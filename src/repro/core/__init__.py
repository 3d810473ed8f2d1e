"""Core model: events, relations, patterns, substitutions, semantics."""

from .conditions import Attr, Condition, Const, attr, const, parse_condition
from .diagnostics import Diagnostic, diagnose
from .events import Attribute, Event, EventSchema, SchemaError
from .pattern import PatternError, SESPattern
from .relation import EventRelation
from .rewrite import close_equality_joins, implied_equalities
from .substitution import Binding, Substitution
from .timedomain import (DayDomain, HourDomain, MinuteDomain, SecondDomain,
                         TimeDomain)
from .variables import Variable, group, parse_variable, var

__all__ = [
    "Attr", "Attribute", "Binding", "Condition", "Const", "Diagnostic",
    "Event",
    "EventRelation", "EventSchema", "PatternError", "SESPattern",
    "DayDomain", "HourDomain", "MinuteDomain", "SchemaError", "SecondDomain",
    "Substitution", "TimeDomain", "Variable", "attr",
    "close_equality_joins", "const", "diagnose", "group",
    "implied_equalities",
    "parse_condition", "parse_variable", "var",
]
