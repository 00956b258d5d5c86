"""Lockstep-behaviour detection (the paper's proposed defense).

Section 5.2: "our proposed measurements can provide a ground truth of
apps to help train machine learning models in detecting the lockstep
behavior of users who perform similar in-app activities to complete the
offer [CopyCatch, CatchSync]".  This package implements that proposal:
CopyCatch-style co-install/burst clustering over install telemetry,
network-colocation analysis, and an evaluation harness that scores the
detector against the simulation's ground truth -- exactly the ground
truth the paper says its methodology can supply.
"""

from repro.detection.events import DeviceInstallEvent, InstallLog
from repro.detection.evaluation import (DetectionReport, evaluate_detector,
                                        sweep_thresholds)
from repro.detection.hardened import HardenedLockstepDetector
from repro.detection.lockstep import (DetectorConfig, LockstepCluster,
                                      LockstepDetector, build_cluster,
                                      cluster_weight)
from repro.detection.live import (LiveDetection, WildEventBridge,
                                  honey_install_event)
from repro.detection.stream import InstallEventBus, OnlineLockstepDetector

__all__ = [
    "DetectionReport",
    "DetectorConfig",
    "DeviceInstallEvent",
    "HardenedLockstepDetector",
    "InstallEventBus",
    "InstallLog",
    "LiveDetection",
    "LockstepCluster",
    "LockstepDetector",
    "OnlineLockstepDetector",
    "WildEventBridge",
    "build_cluster",
    "cluster_weight",
    "evaluate_detector",
    "honey_install_event",
    "sweep_thresholds",
]
