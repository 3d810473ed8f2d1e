"""Event persistence: typed CSV round trips of an :class:`EventRelation`."""

from .csvio import load_relation, save_relation

__all__ = ["load_relation", "save_relation"]
