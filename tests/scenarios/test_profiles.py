"""Scenario profile parsing and the pack's composition rules."""

import pickle

import pytest

from repro.scenarios import NAIVE, ScenarioPack, parse_scenario


class TestParseScenario:
    def test_naive_is_the_noop(self):
        pack = parse_scenario("naive")
        assert pack == NAIVE
        assert not pack.adversarial
        assert pack.name == "naive"

    @pytest.mark.parametrize("token,flag", [
        ("evasive", "evasive"),
        ("fake-reviews", "fake_reviews"),
        ("download-fraud", "download_fraud"),
    ])
    def test_single_profiles(self, token, flag):
        pack = parse_scenario(token)
        assert getattr(pack, flag)
        assert pack.adversarial
        assert pack.name == token

    def test_profiles_compose(self):
        pack = parse_scenario("evasive,download-fraud")
        assert pack.evasive and pack.download_fraud
        assert not pack.fake_reviews
        assert pack.name == "evasive+download-fraud"

    def test_all_three(self):
        pack = parse_scenario("evasive,fake-reviews,download-fraud")
        assert pack.name == "evasive+fake-reviews+download-fraud"

    def test_whitespace_and_order_tolerated(self):
        assert (parse_scenario(" fake-reviews , evasive ")
                == parse_scenario("evasive,fake-reviews"))

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            parse_scenario("stealthy")

    def test_naive_cannot_combine(self):
        with pytest.raises(ValueError, match="cannot be combined"):
            parse_scenario("naive,evasive")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_scenario(" , ")


class TestScenarioPack:
    def test_frozen(self):
        with pytest.raises(Exception):
            NAIVE.evasive = True

    def test_picklable(self):
        # The pack rides inside WildScenarioConfig into process-backend
        # worker replicas; a pack that cannot round-trip through pickle
        # would silently fall back to naive workers.
        pack = parse_scenario("evasive,fake-reviews,download-fraud")
        clone = pickle.loads(pickle.dumps(pack))
        assert clone == pack
