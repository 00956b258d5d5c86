"""End-to-end serve runs: chaos changes the run, not its invariants,
and a load shape that cannot run is refused before the run starts.

Same-seed identity and seed sensitivity are cells of
``tests/integration/test_determinism_matrix.py``.
"""

import json
import math

import pytest

from repro.serve import ServeRunConfig, run_serve

#: Small enough to run in a couple of seconds, large enough to exercise
#: shedding, caching, campaigns, and flagging.
SMALL = dict(days=1, clients=3, requests_per_client_day=150.0)


def small_config(**overrides):
    params = dict(SMALL)
    params.update(overrides)
    return ServeRunConfig(**params)


def artifacts(result):
    """Everything a run externalizes, rendered to comparable text."""
    return (
        json.dumps(result.report, sort_keys=True),
        result.flagged_dump(),
        json.dumps(result.obs.metrics.snapshot(), sort_keys=True),
        result.render(),
    )


class TestServeDeterminism:
    def test_chaos_changes_the_run_but_not_the_invariants(self):
        clean = run_serve(small_config(seed=77))
        chaotic = run_serve(small_config(seed=77, chaos_profile="paper",
                                         chaos_seed=7))
        assert artifacts(clean) != artifacts(chaotic)
        for result in (clean, chaotic):
            report = result.report
            assert report["detection"]["online_equals_batch"]
            assert report["admission"]["unshed_overflows"] == 0
            assert report["admission"]["accounting_consistent"]
        assert chaotic.report["chaos"]["connect_faults"] > 0

    def test_report_covers_every_endpoint(self):
        result = run_serve(small_config(seed=77))
        endpoints = result.report["endpoints"]
        assert set(endpoints) == {
            "ingest", "flagged", "datasets", "health", "metrics"}
        for stats in endpoints.values():
            latency = stats["latency_vtime_ms"]
            assert latency["p50"] <= latency["p95"] <= latency["p99"]


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -5.0])
@pytest.mark.parametrize("field", ["scale", "requests_per_client_day"])
def test_bad_load_shape_refused_at_construction(field, value):
    # NaN requests per day used to spin forever, 0 divided by zero and
    # a negative rate ran a flood; each is now refused at once.
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        run_serve(small_config(**{field: value}))
