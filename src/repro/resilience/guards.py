"""Runtime resource guards: bounded ceilings on executor state.

Section 4.4 of the paper bounds the instance population at
``O(k · (|V1|-1)! · k^(W·|V1|))`` once group variables enter the picture
— in a long-running service one adversarial pattern/input pair can grow
Ω until the process OOMs.  A :class:`ResourceGuard` puts configurable
ceilings on the executor's live state and enforces one of three
policies when a ceiling is crossed:

``raise``
    Raise a typed :class:`ResourceExhausted` naming the resource, the
    ceiling and the observed value.  The default: fail fast, let the
    supervisor (or the caller) decide.
``shed``
    Drop the oldest-start instances until the executor is back under
    the ceiling.  Sheds *potential* matches (the oldest, closest to
    expiry) but keeps the stream alive; counted in
    ``ses_shed_instances``.
``degrade``
    First drop instances whose group variables exceed
    ``degrade_arity`` bindings — bounding group arity collapses the
    ``k^(W·|V1|)`` term to a constant — then shed oldest-start
    instances if that was not enough.

The executor calls :meth:`ResourceGuard.check` once per event behind a
single ``is None`` test (the same idiom the observability hooks use).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["GuardConfig", "ResourceGuard", "ResourceExhausted",
           "DEFAULT_INSTANCE_BYTES", "DEFAULT_EVENT_BYTES"]

#: Rough per-instance heap cost (state ref + buffer shell), used to turn
#: an RSS ceiling into an instance ceiling in :meth:`GuardConfig.from_bounds`.
DEFAULT_INSTANCE_BYTES = 512

#: Rough heap cost of one buffered event binding: one match-buffer node
#: (parent, variable, event, start, size, registers).  The estimate
#: charges every instance its whole buffer (the executor's
#: ``buffered_events``), so where instances share nodes — siblings a
#: prefix, the members of a run their whole DAG — it stays an upper
#: bound.
DEFAULT_EVENT_BYTES = 256

#: Valid breach policies.
POLICIES = ("raise", "shed", "degrade")


class ResourceExhausted(RuntimeError):
    """A guarded executor crossed a configured resource ceiling.

    Attributes
    ----------
    resource:
        Which ceiling tripped: ``"instances"``, ``"buffer_bytes"`` or
        ``"event_seconds"``.
    limit / observed:
        The configured ceiling and the value that crossed it.
    """

    def __init__(self, resource: str, limit, observed):
        super().__init__(
            f"resource guard tripped: {resource} = {observed} exceeds "
            f"ceiling {limit}")
        self.resource = resource
        self.limit = limit
        self.observed = observed

    def __reduce__(self):
        # Survive the pickle trip from a shard worker back to the parent.
        return (type(self), (self.resource, self.limit, self.observed))


@dataclass(frozen=True)
class GuardConfig:
    """Ceilings and breach policy for a :class:`ResourceGuard`.

    All ceilings are optional; ``None`` disables the corresponding
    check.  The config is immutable and picklable, so it ships to shard
    workers unchanged.
    """

    #: Ceiling on live automaton instances (|Ω|) per executor.
    max_instances: Optional[int] = None
    #: Ceiling on the estimated match-buffer bytes per executor.
    max_buffer_bytes: Optional[int] = None
    #: Ceiling on one event's wall-clock processing time, in seconds.
    max_event_seconds: Optional[float] = None
    #: Breach policy: ``"raise"``, ``"shed"`` or ``"degrade"``.
    policy: str = "raise"
    #: Group-variable arity bound used by the ``degrade`` policy.
    degrade_arity: int = 4
    #: Estimated bytes of one buffered event (buffer-bytes ceiling).
    bytes_per_event: int = DEFAULT_EVENT_BYTES

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown guard policy {self.policy!r}; expected one of "
                f"{POLICIES}")
        if (self.max_instances is None and self.max_buffer_bytes is None
                and self.max_event_seconds is None):
            raise ValueError("guard config enables no ceiling")
        for name in ("max_instances", "max_buffer_bytes"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_event_seconds is not None and self.max_event_seconds <= 0:
            raise ValueError("max_event_seconds must be > 0")
        if self.degrade_arity < 1:
            raise ValueError("degrade_arity must be >= 1")

    @classmethod
    def from_bounds(cls, pattern, window: int, max_rss_bytes: int,
                    policy: str = "raise",
                    instance_bytes: int = DEFAULT_INSTANCE_BYTES,
                    **overrides) -> "GuardConfig":
        """Derive ceilings from the Section 4.4 analysis and an RSS budget.

        The instance ceiling is the *smaller* of the theoretical
        per-pattern bound (:func:`repro.complexity.bounds.
        pattern_instance_bound`) and what ``max_rss_bytes`` can hold at
        ``instance_bytes`` apiece — so the guard trips before the
        process approaches the memory ceiling even when the theoretical
        bound is astronomically larger (the ``k > 1`` group-variable
        case).
        """
        from ..complexity.bounds import pattern_instance_bound
        if max_rss_bytes < instance_bytes:
            raise ValueError("max_rss_bytes smaller than one instance")
        theoretical = pattern_instance_bound(pattern, window)
        affordable = max_rss_bytes // instance_bytes
        config = cls(max_instances=max(1, min(theoretical, affordable)),
                     max_buffer_bytes=max_rss_bytes,
                     policy=policy)
        return replace(config, **overrides) if overrides else config


class ResourceGuard:
    """Enforces a :class:`GuardConfig` against one or more executors.

    One guard may be shared by every per-key executor of a partitioned
    stream shard; ceilings apply per executor (the unit the Section 4.4
    bounds describe — instances spawned from the start events of one
    partition).  The guard keeps plain-int trip statistics always, and
    mirrors them into registry counters when built with a registry.
    """

    __slots__ = ("config", "trips", "shed_total", "degraded_total",
                 "_shed_counter", "_degraded_counter", "_trip_counter")

    def __init__(self, config: GuardConfig, registry=None):
        self.config = config
        self.trips = 0
        self.shed_total = 0
        self.degraded_total = 0
        if registry is None:
            self._shed_counter = None
            self._degraded_counter = None
            self._trip_counter = None
        else:
            self._shed_counter = registry.counter(
                "ses_shed_instances",
                help="instances dropped by the shed/degrade guard policy")
            self._degraded_counter = registry.counter(
                "ses_degraded_instances_total",
                help="over-arity group instances dropped by the degrade "
                     "policy")
            self._trip_counter = registry.counter(
                "ses_guard_trips_total",
                help="resource-guard ceiling breaches")

    @property
    def time_limited(self) -> bool:
        """True when the per-event time ceiling is enabled (the executor
        only pays for ``perf_counter`` calls in that case)."""
        return self.config.max_event_seconds is not None

    def stats(self) -> dict:
        """Plain-dict trip statistics (travels in shard flush acks)."""
        return {"trips": self.trips, "shed": self.shed_total,
                "degraded": self.degraded_total}

    # ------------------------------------------------------------------
    # Enforcement (called by the executor once per event)
    # ------------------------------------------------------------------
    def check(self, executor, event, elapsed: Optional[float]) -> None:
        """Check every enabled ceiling after ``executor`` processed
        ``event``; apply the policy on breach."""
        config = self.config
        if config.max_instances is not None:
            size = executor.active_instances
            if size > config.max_instances:
                self._breach(executor, "instances", config.max_instances,
                             size)
        if config.max_buffer_bytes is not None:
            estimate = executor.buffered_events * config.bytes_per_event
            if estimate > config.max_buffer_bytes:
                self._breach(executor, "buffer_bytes",
                             config.max_buffer_bytes, estimate)
        if (elapsed is not None and config.max_event_seconds is not None
                and elapsed > config.max_event_seconds):
            self._breach(executor, "event_seconds",
                         config.max_event_seconds, elapsed)

    def _breach(self, executor, resource: str, limit, observed) -> None:
        self.trips += 1
        if self._trip_counter is not None:
            self._trip_counter.inc()
        if self.config.policy == "raise":
            raise ResourceExhausted(resource, limit, observed)
        if self.config.policy == "degrade":
            self._degrade(executor)
        if resource == "instances":
            target = self.config.max_instances
        elif resource == "buffer_bytes":
            # Shed down to the event count the byte ceiling affords.
            target = None
        else:
            # Time breach under shed/degrade: halve the population.
            target = max(1, executor.active_instances // 2)
        self._shed(executor, resource, target)

    def _degrade(self, executor) -> None:
        """Drop instances whose group variables exceed the arity bound."""
        arity = self.config.degrade_arity
        survivors = []
        dropped = 0
        for instance in executor.instances():
            buffer = instance.buffer
            over = any(variable.is_group
                       and len(buffer.events_of(variable)) > arity
                       for variable in instance.state)
            if over:
                dropped += 1
            else:
                survivors.append(instance)
        if dropped:
            executor.replace_instances(survivors)
            self.degraded_total += dropped
            if self._degraded_counter is not None:
                self._degraded_counter.inc(dropped)

    def _shed(self, executor, resource: str, target: Optional[int]) -> None:
        """Drop oldest-start instances until back under the ceiling."""
        config = self.config
        omega = executor.instances()  # oldest start first

        def under_ceiling() -> bool:
            if resource == "instances":
                return len(omega) <= target
            if resource == "buffer_bytes":
                return (sum(len(i.buffer) for i in omega)
                        * config.bytes_per_event) <= config.max_buffer_bytes
            return len(omega) <= target

        if under_ceiling():
            return
        shed = 0
        while omega and not under_ceiling():
            omega.pop(0)
            shed += 1
        if shed:
            executor.replace_instances(omega)
            self.shed_total += shed
            if self._shed_counter is not None:
                self._shed_counter.inc(shed)

    def __repr__(self) -> str:
        return (f"ResourceGuard({self.config.policy!r}, trips={self.trips}, "
                f"shed={self.shed_total})")
