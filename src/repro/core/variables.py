"""Event variables: singleton variables and group (Kleene plus) variables.

An event set pattern is a set of event variables (Section 3.2).  A
*singleton* variable binds exactly one input event; a *group* variable
``v+`` carries a Kleene plus quantifier and binds one or more events.
"""

from __future__ import annotations

import threading
import weakref
from typing import Iterable, Tuple

__all__ = ["Variable", "var", "group", "parse_variable"]


class Variable:
    """An event variable, identified by name and quantification.

    Two variables are equal iff they have the same name and the same
    quantifier; a pattern must not reuse a name across variables.
    Variables are interned: constructing one with a name and quantifier
    already in use returns the existing object, so equality is identity
    and hashing is the interpreter's own — buffers and states (dicts and
    frozensets keyed by variables) never call back into Python.
    """

    __slots__ = ("name", "is_group", "__weakref__")

    #: ``(name, is_group) → the variable``, for as long as anything uses it.
    _interned: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
    _intern_lock = threading.Lock()

    def __new__(cls, name: str, is_group: bool = False):
        if not name or not isinstance(name, str):
            raise ValueError(f"variable name must be a non-empty string, got {name!r}")
        if name.endswith("+"):
            raise ValueError(
                f"variable name {name!r} must not end with '+'; "
                "use group=True or parse_variable()"
            )
        key = (name, bool(is_group))
        self = cls._interned.get(key)
        if self is None:
            # Two threads must not each make "the" variable.
            with cls._intern_lock:
                self = cls._interned.get(key)
                if self is None:
                    self = super().__new__(cls)
                    self.name, self.is_group = key
                    cls._interned[key] = self
        return self

    @property
    def is_singleton(self) -> bool:
        """True iff the variable binds exactly one event."""
        return not self.is_group

    def __reduce__(self):
        # Pickling and copying go through the constructor, so they land
        # on the interned object of whichever process they arrive in.
        return (Variable, (self.name, self.is_group))

    def __lt__(self, other: "Variable") -> bool:
        # Deterministic ordering for display and canonical iteration.
        return (self.name, self.is_group) < (other.name, other.is_group)

    def __repr__(self) -> str:
        return f"{self.name}+" if self.is_group else self.name


def var(name: str) -> Variable:
    """Create a singleton event variable."""
    return Variable(name, is_group=False)


def group(name: str) -> Variable:
    """Create a group (Kleene plus) event variable ``name+``."""
    return Variable(name, is_group=True)


def parse_variable(spec: str) -> Variable:
    """Parse ``"v"`` into a singleton and ``"v+"`` into a group variable."""
    spec = spec.strip()
    if spec.endswith("+"):
        return group(spec[:-1])
    return var(spec)


def parse_variables(specs: Iterable[str]) -> Tuple[Variable, ...]:
    """Parse a sequence of variable specs (see :func:`parse_variable`)."""
    return tuple(parse_variable(s) for s in specs)
