"""Streaming: sources, sliding windows, continuous matching."""

from .partitioned import PartitionedContinuousMatcher
from .runner import ContinuousMatcher, MatchHistoryDisabled
from .source import from_relation, merge, synthetic, take
from .windows import SlidingWindow, max_window_population, window_profile

__all__ = ["ContinuousMatcher", "MatchHistoryDisabled",
           "PartitionedContinuousMatcher",
           "SlidingWindow", "from_relation", "max_window_population",
           "merge", "synthetic", "take", "window_profile"]
