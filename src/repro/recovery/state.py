"""JSON codecs for the awkward corners of pipeline state.

Everything a checkpoint stores must round-trip through ``json.dumps``
with ``sort_keys=True`` and come back *exactly* equal, because the
byte-identity invariant rides on it.  Two things need help:

* ``random.Random.getstate()`` is a nested tuple of ints (plus an
  optional float for the Gaussian carry); JSON turns tuples into lists,
  and ``setstate`` insists on tuples again.
* Dict keys that are tuples (label sets, ``(host, port)`` fault
  sequences) must be flattened to strings and rebuilt.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Tuple

#: Separator for flattened tuple keys.  ``\x1f`` (ASCII unit separator)
#: cannot appear in hostnames, label values, or package ids.
KEY_SEP = "\x1f"


def rng_state_to_json(state: Tuple) -> List:
    """``random.Random.getstate()`` as a JSON-safe value."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def rng_state_from_json(data: List) -> Tuple:
    """Invert :func:`rng_state_to_json` into ``setstate`` form."""
    version, internal, gauss_next = data
    return (version, tuple(internal), gauss_next)


def dump_rng(rng: Optional[random.Random]) -> Optional[List]:
    return None if rng is None else rng_state_to_json(rng.getstate())


def load_rng(rng: Optional[random.Random], data: Optional[List]) -> None:
    if rng is not None and data is not None:
        rng.setstate(rng_state_from_json(data))


def join_key(*parts: Any) -> str:
    """Flatten a tuple key into one string for a JSON object key."""
    return KEY_SEP.join(str(part) for part in parts)


def split_key(key: str) -> List[str]:
    return key.split(KEY_SEP)


__all__ = [
    "KEY_SEP",
    "dump_rng",
    "join_key",
    "load_rng",
    "rng_state_from_json",
    "rng_state_to_json",
    "split_key",
]
