"""Stable hashing and RNG derivation for sharded work.

Python's builtin ``hash`` is salted per process, so shard assignment
must come from a content hash: join the parts with ``":"``, SHA-256 the
bytes, and take the first 8 bytes as a big-endian integer.  Everything
downstream of a shard key (shard index, derived seeds, derived RNG
streams) is therefore a pure function of the key, and so is every
fault roll of :mod:`repro.net.chaos`, the serve frontdoor and the
crash plan.
"""

from __future__ import annotations

import hashlib
import random


def stable_hash(*parts: object) -> int:
    """A process-independent 64-bit hash of the joined parts."""
    material = ":".join(str(part) for part in parts).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seed(*parts: object) -> int:
    """A seed for a task-local RNG stream, stable across runs."""
    return stable_hash("rng", *parts)


def derive_rng(*parts: object) -> random.Random:
    """A fresh ``random.Random`` whose stream depends only on the parts.

    Two tasks with different keys get independent streams; the same key
    always gets the same stream — so a honey campaign's behaviour and
    TLS draws do not depend on which campaigns ran before it.
    """
    return random.Random(derive_seed(*parts))
