"""Parallel partitioned execution: process pools and stream shards.

The paper's Section 4.4 bounds make the per-start instance population
the dominant cost; partitioned execution shards that population by key,
and this package runs the independent partitions, in-process or fanned
out across worker processes:

* :class:`~repro.parallel.pool.ParallelPartitionedMatcher` — batch
  relations, what ``plan.match(partition_by=..., workers=...)`` runs:
  one loop per partition, in-process or chunked over a process pool,
  results merged in deterministic partition order (bit-identical for
  any worker count);
* :class:`~repro.parallel.sharded.ShardedStreamMatcher` — live streams,
  events routed to per-shard
  :class:`~repro.stream.partitioned.PartitionedContinuousMatcher`
  workers by key hash, with bounded queues and crash detection;
* :mod:`~repro.parallel.codec` — the compact tuple encoding events and
  matches travel in.

See ``docs/parallel.md`` for the sharding model, soundness conditions
and ordering guarantees.
"""

from .codec import (decode_event, decode_substitution, encode_event,
                    encode_substitution)
from .errors import WorkerCrashed
from .pool import ParallelPartitionedMatcher, default_context
from .sharded import ShardedStreamMatcher

__all__ = [
    "ParallelPartitionedMatcher",
    "ShardedStreamMatcher",
    "WorkerCrashed",
    "decode_event",
    "decode_substitution",
    "default_context",
    "encode_event",
    "encode_substitution",
]
