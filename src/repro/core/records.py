"""One JSON shape for every feature plane's plan, arm and report.

The five optional planes (resilience, autoscale, carbon, DVFS,
durability) each describe an experiment as a frozen dataclass plan,
run it into arms and collect the arms in a report.  This module owns
how all of those become JSON and come back, so a plane declares its
fields and validation and nothing else.  Field values convert by
their annotated type:

* a type with its own ``to_dict``/``from_dict`` (``ShapedLoad``,
  ``FaultPlan``, ``SignalTrace``, or another record) keeps its format;
* a nested dataclass recurses;
* ``Tuple[X, ...]`` is a JSON list, ``Mapping[str, X]`` a JSON object
  and ``Optional[X]`` is ``null`` or ``X``;
* anything else is written as it is.

A :class:`Record` may name computed properties in ``json_tail``: they
are written after the fields, in that order, and skipped on the way
back in.  A field named there moves to its place in the tail, which is
how a record keeps the key order of a committed file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from collections.abc import Mapping as AbcMapping
from functools import cache
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Tuple


def to_dict(record) -> Dict[str, Any]:
    """``record``'s fields (then its ``json_tail``) as a JSON object."""
    tail = getattr(record, "json_tail", ())
    names = [f.name for f in dataclasses.fields(record)
             if f.name not in tail] + list(tail)
    return {name: _encode(getattr(record, name)) for name in names}


def _encode(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, AbcMapping):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    return value


@cache
def _hints(cls) -> Dict[str, Any]:
    return typing.get_type_hints(cls)


def from_dict(cls, data: AbcMapping):
    """Rebuild a ``cls`` dataclass from :func:`to_dict` output.

    Keys that are not init fields (the ``json_tail``) are ignored; a
    missing key falls back to the field's default.
    """
    hints = _hints(cls)
    return cls(**{f.name: _decode(hints[f.name], data[f.name])
                  for f in dataclasses.fields(cls)
                  if f.init and f.name in data})


def _decode(hint, value):
    if value is None:
        return None
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:          # Optional[X]
        return _decode(args[0], value)
    if origin is tuple:
        return tuple(_decode(args[0], item) for item in value)
    if origin in (dict, AbcMapping):
        if not args:
            return dict(value)
        return {key: _decode(args[1], item) for key, item in value.items()}
    if hasattr(hint, "from_dict"):
        return hint.from_dict(value)
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value)
    return value


class Record:
    """Mixin giving a dataclass the shared JSON round-trip."""

    #: Keys written after the fields (see the module docstring).
    json_tail: ClassVar[Tuple[str, ...]] = ()

    def to_dict(self) -> Dict[str, Any]:
        return to_dict(self)

    @classmethod
    def from_dict(cls, data: AbcMapping):
        return from_dict(cls, data)

    def save(self, path: str) -> None:
        """Write :meth:`to_dict` as indented JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1)
            handle.write("\n")

    @classmethod
    def load(cls, path: str):
        """Read back a file :meth:`save` wrote."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def find(items: Iterable, **key):
    """The first item whose attributes equal ``key``; KeyError if none."""
    for item in items:
        if all(getattr(item, name) == want for name, want in key.items()):
            return item
    raise KeyError("no arm with " + ", ".join(
        f"{name}={want!r}" for name, want in key.items()))


class Report(Record):
    """A record whose ``arms`` are looked up by the ``arm_key`` fields."""

    arm_key: ClassVar[Tuple[str, ...]] = ()

    def arm(self, *key):
        return find(self.arms, **dict(zip(self.arm_key, key, strict=True)))


def p95(values: List[float]) -> Optional[float]:
    """Nearest-rank 95th percentile; None for no values."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]
