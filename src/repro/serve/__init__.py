"""``repro.serve``: the always-on detection/analytics service.

The production form of the paper's batch monitoring arm: a long-lived
service on a deterministic virtual-time event loop, ingesting install
events into the streaming lockstep detector and answering
flagged/datasets/health/metrics queries behind admission control and a
watermark-keyed cache, load-tested by a seeded client fleet.  Entry
points: :func:`run_serve` (one full run) and the ``repro serve`` CLI.
"""

from repro.serve.admission import (
    ADMIT,
    SHED_QUEUE,
    SHED_RATE,
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
)
from repro.serve.cache import WatermarkCache, params_key
from repro.serve.datasets import DatasetRegistry, build_serve_datasets
from repro.serve.fleet import PROFILES, ClientFleet, FleetClient, FleetConfig
from repro.serve.service import (
    CACHED_ENDPOINTS,
    ENDPOINTS,
    SERVE_DETECTOR_CONFIG,
    DetectionService,
    FrontdoorChaos,
    ServeRequest,
    ServeResponse,
    ServiceConfig,
)
from repro.serve.runner import ServeRunConfig, ServeRunReport, run_serve
from repro.serve.vtime import (
    DAY_SECONDS,
    VirtualClock,
    VirtualLoopStalled,
    VirtualTimeEventLoop,
)

__all__ = [
    "ADMIT",
    "AdmissionConfig",
    "AdmissionController",
    "CACHED_ENDPOINTS",
    "ClientFleet",
    "DAY_SECONDS",
    "DatasetRegistry",
    "DetectionService",
    "ENDPOINTS",
    "FleetClient",
    "FleetConfig",
    "FrontdoorChaos",
    "PROFILES",
    "SERVE_DETECTOR_CONFIG",
    "SHED_QUEUE",
    "SHED_RATE",
    "ServeRequest",
    "ServeResponse",
    "ServeRunConfig",
    "ServeRunReport",
    "ServiceConfig",
    "TokenBucket",
    "VirtualClock",
    "VirtualLoopStalled",
    "VirtualTimeEventLoop",
    "WatermarkCache",
    "build_serve_datasets",
    "params_key",
    "run_serve",
]
