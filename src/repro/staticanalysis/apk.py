"""APK model and builder."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.staticanalysis.signatures import (
    AD_LIBRARY_SIGNATURES,
    COMMON_NON_AD_LIBRARIES,
)


@dataclass(frozen=True)
class Apk:
    """One downloadable application package.

    ``dex_prefixes`` is the set of top-level code package trees found in
    the binary -- the feature space LibRadar-style detectors work on.
    """

    package: str
    dex_prefixes: FrozenSet[str]
    size_bytes: int

    def contains_prefix(self, prefix: str) -> bool:
        return prefix in self.dex_prefixes


def _obfuscate(prefix: str, rng: random.Random) -> str:
    """ProGuard-style renaming: the original prefix disappears."""
    depth = prefix.count(".") + 1
    letters = "abcdefghijklmnopqrstuvwxyz"
    return ".".join(rng.choice(letters) for _ in range(min(depth, 3)))


class ApkBuilder:
    """Synthesises APKs with a chosen advertising-library load."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._ad_names = sorted(AD_LIBRARY_SIGNATURES)
        self._common_names = sorted(COMMON_NON_AD_LIBRARIES)

    def build(self, package: str, ad_library_count: int,
              obfuscate_fraction: float = 0.0) -> Apk:
        """An APK embedding ``ad_library_count`` distinct ad SDKs.

        ``obfuscate_fraction`` of those SDKs get ProGuard-renamed and
        become invisible to prefix-matching detectors (the paper's
        stated false-negative source).
        """
        if ad_library_count < 0:
            raise ValueError("negative ad library count")
        if not 0.0 <= obfuscate_fraction <= 1.0:
            raise ValueError("obfuscate_fraction out of [0, 1]")
        count = min(ad_library_count, len(self._ad_names))
        chosen = self._rng.sample(self._ad_names, count)
        prefixes: Set[str] = {package}
        for name in chosen:
            prefix = AD_LIBRARY_SIGNATURES[name]
            if self._rng.random() < obfuscate_fraction:
                prefix = _obfuscate(prefix, self._rng)
            prefixes.add(prefix)
        for name in self._rng.sample(self._common_names,
                                     self._rng.randrange(3, 8)):
            prefixes.add(COMMON_NON_AD_LIBRARIES[name])
        return Apk(
            package=package,
            dex_prefixes=frozenset(prefixes),
            size_bytes=4_000_000 + 900_000 * len(prefixes),
        )


class ApkRepository:
    """Downloaded APKs, keyed by package (the paper's APK corpus)."""

    def __init__(self) -> None:
        self._apks: Dict[str, Apk] = {}

    def add(self, apk: Apk) -> None:
        self._apks[apk.package] = apk

    def get(self, package: str) -> Optional[Apk]:
        return self._apks.get(package)

    def packages(self) -> List[str]:
        return sorted(self._apks)

    def __len__(self) -> int:
        return len(self._apks)

    def __contains__(self, package: str) -> bool:
        return package in self._apks
