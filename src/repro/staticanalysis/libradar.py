"""LibRadar-style third-party-library detection."""

from __future__ import annotations

from typing import Dict, Set

from repro.staticanalysis.apk import Apk, ApkRepository
from repro.staticanalysis.signatures import AD_LIBRARY_SIGNATURES


class LibRadarDetector:
    """Detects embedded libraries by dex-package-prefix signatures.

    Fast, accurate on unobfuscated code, and blind to renamed packages
    and dynamically loaded code -- the same upper-bound caveat the paper
    attaches to its Figure 6 analysis.
    """

    def detect(self, apk: Apk) -> Set[str]:
        """The set of known ad-library names present in the APK."""
        return {name for name, prefix in AD_LIBRARY_SIGNATURES.items()
                if apk.contains_prefix(prefix)}

    def unique_ad_library_count(self, apk: Apk) -> int:
        return len(self.detect(apk))

    def scan_repository(self, repository: ApkRepository) -> Dict[str, int]:
        """package -> number of unique ad libraries, for the whole corpus."""
        return {
            package: self.unique_ad_library_count(repository.get(package))
            for package in repository.packages()
        }
