"""Streaming: a synthetic source and continuous matching."""

from .partitioned import PartitionedContinuousMatcher
from .runner import ContinuousMatcher, MatchHistoryDisabled
from .source import synthetic

__all__ = ["ContinuousMatcher", "MatchHistoryDisabled",
           "PartitionedContinuousMatcher", "synthetic"]
