"""SES automata: construction (Section 4.2) and execution (Section 4.3)."""

from .automaton import AutomatonError, SESAutomaton
from .buffer import MatchBuffer
from .builder import build_automaton, build_set_automaton, concatenate
from .executor import MatchResult, SESExecutor
from .instance import AutomatonInstance
from .metrics import ExecutionStats, sparkline
from .minimize import TrimReport, trim
from .optimizations import partition_attribute
from .states import State, make_state, state_label
from .trace import TraceStep, Tracer, format_trace
from .transitions import Transition

__all__ = [
    "AutomatonError", "AutomatonInstance", "ExecutionStats",
    "MatchBuffer", "MatchResult",
    "SESAutomaton", "SESExecutor", "State", "TrimReport",
    "partition_attribute", "sparkline", "trim",
    "Transition", "build_automaton", "build_set_automaton", "concatenate",
    "TraceStep", "Tracer", "format_trace", "make_state",
    "state_label",
]
