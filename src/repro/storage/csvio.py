"""CSV persistence for event relations.

The on-disk format is one CSV file per relation with a two-line header:

* line 1: ``eid, T, <attribute names...>``
* line 2 (comment): ``#types: <python type per attribute>`` so values
  round-trip with their types (int/float/str).

This is the repository's stand-in for the paper's stored relation; it
also makes data sets easy to inspect and to exchange.
"""

from __future__ import annotations

import csv
import logging
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.events import Attribute, Event, EventSchema
from ..core.relation import EventRelation

__all__ = ["save_relation", "load_relation"]

logger = logging.getLogger(__name__)

_TYPE_NAMES = {int: "int", float: "float", str: "str"}
_TYPES_BY_NAME = {name: t for t, name in _TYPE_NAMES.items()}


def _type_name(dtype: Optional[type]) -> str:
    return _TYPE_NAMES.get(dtype, "str")


def _infer_schema(relation: EventRelation) -> EventSchema:
    """Derive a schema from the first event when none is declared."""
    if relation.schema is not None:
        return relation.schema
    if len(relation) == 0:
        return EventSchema([], name=relation.name)
    first = relation[0]
    attributes = []
    for name in sorted(first.keys()):
        value = first[name]
        dtype = type(value) if type(value) in _TYPE_NAMES else str
        attributes.append(Attribute(name, dtype))
    return EventSchema(attributes, name=relation.name)


def save_relation(relation: EventRelation, path: Union[str, Path]) -> None:
    """Write ``relation`` to ``path`` as typed CSV."""
    schema = _infer_schema(relation)
    path = Path(path)
    names = list(schema.attribute_names)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eid", "T"] + names)
        writer.writerow(["#types", "int"]
                        + [_type_name(schema[n].dtype) for n in names])
        for event in relation:
            writer.writerow([event.eid or "", event.ts]
                            + [event.get(n, "") for n in names])
    logger.info("saved %d events to %s", len(relation), path)


def load_relation(path: Union[str, Path],
                  name: Optional[str] = None) -> EventRelation:
    """Read a typed CSV written by :func:`save_relation`."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        if header[:2] != ["eid", "T"]:
            raise ValueError(f"{path} is not a repro event CSV "
                             f"(header {header[:2]!r})")
        names = header[2:]
        types_row = next(reader, None)
        if types_row is None or types_row[0] != "#types":
            raise ValueError(f"{path} is missing the #types header line")
        time_type = _TYPES_BY_NAME.get(types_row[1], int)
        dtypes = [
            _TYPES_BY_NAME.get(t, str) for t in types_row[2:]
        ]
        schema = EventSchema(
            [Attribute(n, t) for n, t in zip(names, dtypes)],
            name=name or path.stem,
        )
        events: List[Event] = []
        for row in reader:
            if not row:
                continue
            eid = row[0] or None
            ts = time_type(row[1])
            attrs: Dict[str, object] = {}
            for column, dtype, raw in zip(names, dtypes, row[2:]):
                attrs[column] = dtype(raw)
            events.append(Event(ts=ts, attrs=attrs, eid=eid))
    relation = EventRelation(schema=schema, name=name or path.stem)
    relation.extend(events)
    logger.info("loaded %d events from %s", len(relation), path)
    return relation
