"""Declared checkpoint state: the :class:`Checkpointed` mixin and its codec.

A checkpointed class names the attributes a resume must restore in
``_STATE`` and the mutable attributes it deliberately leaves to the
constructor in ``_TRANSIENT`` (attribute -> reason).  The mixin's
``state_dict``/``load_state`` encode each ``_STATE`` attribute by the
kind of value it holds:

* JSON scalars, and str-keyed dicts and lists of them, go as they are;
* a ``random.Random`` goes as its ``getstate()`` (tuples as lists);
* a set goes sorted, a ``Counter`` as a dict;
* a component -- anything with its own ``state_dict``/``load_state``,
  or a str-keyed dict or a list of components -- goes through its own
  pair.

A load restores RNGs and components in place, so every reference a
constructor handed out (a server's RNG shared with its connection
handlers) sees the restored state; a ``None`` optional component stays
``None``; every other value is replaced by a fresh copy.  Anything
else (tuples, arrays, tuple keys, dataclass rows) is a ``TypeError``
at encode time: such a class keeps a hand-written pair, often
``super().state_dict()`` plus its own keys.  A pipeline names its
checkpoint roots once, as an ordered str-keyed dict of components:
``encode`` of that dict is its checkpoint, and ``decode`` restores the
roots in the dict's order (DESIGN.md §7).

This module imports nothing from ``repro``: the network layer imports
it at module level, and ``repro.recovery``'s package init imports
``repro.net.chaos``.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Dict, List, Mapping, Tuple

#: Separator for flattened tuple keys.  ``\x1f`` (ASCII unit separator)
#: cannot appear in hostnames, label values, or package ids.
KEY_SEP = "\x1f"

_SCALARS = (str, int, float, bool, type(None))


def join_key(*parts: Any) -> str:
    """Flatten a tuple key into one string for a JSON object key."""
    return KEY_SEP.join(str(part) for part in parts)


def split_key(key: str) -> List[str]:
    return key.split(KEY_SEP)


def _is_component(value: object) -> bool:
    return hasattr(value, "load_state")


def _holds_components(value: object) -> bool:
    items = value.values() if isinstance(value, dict) else value
    return any(_is_component(item) or isinstance(item, random.Random)
               for item in items)  # type: ignore[union-attr]


def encode(value: object) -> object:
    """``value`` as a JSON-safe checkpoint value (see the module doc)."""
    if isinstance(value, _SCALARS):
        return value
    if _is_component(value):
        return value.state_dict()  # type: ignore[attr-defined]
    if isinstance(value, random.Random):
        version, internal, gauss_next = value.getstate()
        return [version, list(internal), gauss_next]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"cannot checkpoint a {type(key).__name__} "
                                f"dict key ({key!r})")
            encoded[key] = encode(item)
        return encoded
    if isinstance(value, list):
        return [encode(item) for item in value]
    raise TypeError(f"cannot checkpoint a {type(value).__name__}")


def decode(current: object, data: object) -> object:
    """Restore ``data`` over ``current``, an attribute's value in a
    freshly constructed object; returns the value the attribute holds
    afterwards (``current`` itself when restored in place)."""
    if _is_component(current):
        if data is not None:
            current.load_state(data)  # type: ignore[attr-defined]
        return current
    if isinstance(current, random.Random):
        version, internal, gauss_next = data  # type: ignore[misc]
        current.setstate((version, tuple(internal), gauss_next))
        return current
    if isinstance(current, (set, frozenset)):
        return type(current)(data)  # type: ignore[call-arg]
    if isinstance(current, Counter):
        return Counter(data)
    if isinstance(current, (dict, list)) and _holds_components(current):
        if len(data) != len(current):  # type: ignore[arg-type]
            raise ValueError(
                f"checkpoint holds {len(data)} components where this run "  # type: ignore[arg-type]
                f"has {len(current)}")
        for key in current if isinstance(current, dict) \
                else range(len(current)):
            decode(current[key], data[key])  # type: ignore[index]
        return current
    return _copy(data)


def _copy(data: object) -> object:
    if isinstance(data, dict):
        return {key: _copy(item) for key, item in data.items()}
    if isinstance(data, list):
        return [_copy(item) for item in data]
    return data


class Checkpointed:
    """Mixin: ``state_dict``/``load_state`` over the class's ``_STATE``.

    ``_TRANSIENT`` maps each attribute a resume leaves to the
    constructor, although the run mutates it, to the reason that is
    safe; the state audit reads it.
    """

    _STATE: Tuple[str, ...] = ()
    _TRANSIENT: Dict[str, str] = {}

    def state_dict(self) -> Dict[str, object]:
        return {name: encode(getattr(self, name)) for name in self._STATE}

    def load_state(self, state: Mapping[str, object]) -> None:
        for name in self._STATE:
            setattr(self, name, decode(getattr(self, name), state[name]))

