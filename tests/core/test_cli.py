"""CLI tests: every subcommand, argument handling, export/report flow."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import CRASH_EXIT_CODE, build_parser, main
from repro.recovery import CheckpointStore
from repro.serve import ServeRunConfig

SRC = Path(__file__).resolve().parents[2] / "src"

#: Size flags that must be positive, per subcommand.  ``--qps`` is not
#: one of them: 0 is a valid refill rate.
NON_POSITIVE_SIZES = [
    ("wild", "--scale", "0"), ("wild", "--scale", "-0.5"),
    ("wild", "--scale", "banana"), ("wild", "--scale", "nan"),
    ("wild", "--days", "0"),
    ("wild", "--days", "-3"), ("wild", "--days", "2.5"),
    ("serve", "--clients", "0"), ("serve", "--days", "0"),
    ("serve", "--shards", "0"), ("serve", "--burst", "0"),
    ("serve", "--scale", "0"), ("serve", "--scale", "nan"),
    ("detect", "--scale", "0"), ("detect", "--days", "0"),
    ("paper", "--scale", "0"), ("paper", "--days", "0"),
]
NON_POSITIVE_IDS = [
    f"{flag}-{value}" if subcommand == "wild"
    else f"{subcommand}-{flag}-{value}"
    for subcommand, flag, value in NON_POSITIVE_SIZES]

#: Size flags where 0 means something (the honey dry run, the
#: materialised wild run, a token bucket that never refills) but a
#: negative value does not.
NON_NEGATIVE_SIZES = [
    ("honey", "--installs-per-iip"),
    ("detect", "--installs-per-iip"),
    ("wild", "--batch-devices"),
    ("serve", "--qps"),
]
NON_NEGATIVE_IDS = [f"{subcommand}-{flag}"
                    for subcommand, flag in NON_NEGATIVE_SIZES]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_wild_arguments(self):
        args = build_parser().parse_args(
            ["wild", "--scale", "0.1", "--days", "30",
             "--export-offers", "x.json"])
        assert args.scale == 0.1
        assert args.days == 30
        assert args.export_offers == "x.json"

    def test_report_requires_offers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_wild_chaos_arguments(self):
        args = build_parser().parse_args(
            ["wild", "--chaos-profile", "paper", "--chaos-seed", "7"])
        assert args.chaos_profile == "paper"
        assert args.chaos_seed == 7

    def test_wild_chaos_defaults_off(self):
        args = build_parser().parse_args(["wild"])
        assert args.chaos_profile == "off"
        assert args.chaos_seed is None

    def test_unknown_chaos_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["wild", "--chaos-profile", "catastrophic"])

    @pytest.mark.parametrize("subcommand,flag,value", NON_POSITIVE_SIZES,
                             ids=NON_POSITIVE_IDS)
    def test_wild_rejects_non_positive_scale_and_days(self, capsys,
                                                      subcommand, flag,
                                                      value):
        """A clear usage error (exit 2), not a deep traceback from
        inside the scenario builder or a serve config."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([subcommand, flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "positive" in err or "is not" in err

    @pytest.mark.parametrize("subcommand,flag", NON_NEGATIVE_SIZES,
                             ids=NON_NEGATIVE_IDS)
    def test_negative_sizes_rejected(self, capsys, subcommand, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([subcommand, flag, "-5"])
        assert excinfo.value.code == 2
        assert "must not be negative" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand,flag", NON_NEGATIVE_SIZES,
                             ids=NON_NEGATIVE_IDS)
    def test_zero_sizes_accepted(self, subcommand, flag):
        args = build_parser().parse_args([subcommand, flag, "0"])
        assert getattr(args, flag[2:].replace("-", "_")) == 0

    @pytest.mark.parametrize("subcommand", ["honey", "wild", "serve"])
    @pytest.mark.parametrize("rate", ["-0.5", "7", "nan"])
    def test_crash_rate_outside_a_probability_rejected(self, capsys,
                                                       subcommand, rate):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([subcommand, "--crash-rate", rate])
        assert excinfo.value.code == 2
        assert "must be in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["honey", "wild", "serve"])
    def test_crash_rate_bounds_accepted(self, subcommand):
        for rate in (0.0, 1.0):
            args = build_parser().parse_args(
                [subcommand, "--crash-rate", str(rate)])
            assert args.crash_rate == rate

    def test_wild_streaming_arguments(self):
        args = build_parser().parse_args(
            ["wild", "--batch-devices", "256", "--spill-dir", "/tmp/s"])
        assert args.batch_devices == 256
        assert args.spill_dir == "/tmp/s"

    def test_wild_streaming_defaults_materialised(self):
        args = build_parser().parse_args(["wild"])
        assert args.batch_devices == 0
        assert args.spill_dir is None

    def test_serve_shards_default_is_the_library_default(self):
        # ``repro serve`` and ``run_serve(ServeRunConfig())`` run the
        # same service: the worker count changes the whole run.
        assert (build_parser().parse_args(["serve"]).shards
                == ServeRunConfig().shards)

    @pytest.mark.parametrize("argv", [
        ["wild", "--backend", "process"],
        ["honey", "--backend", "serial"],
        ["detect", "--backend", "thread"],
        ["honey", "--shards", "2"],
        ["wild", "--shards", "2"],
        ["detect", "--shards", "2"],
        ["serve", "--cache-policy", "keyed"],
        ["honey", "--no-tls-resumption"],
    ])
    def test_removed_execution_flags_are_unknown(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "RankApp" in out

    def test_detect(self, capsys):
        assert main(["detect", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out
        assert "policy candidate: com.advertised." in out

    def test_honey(self, capsys):
        assert main(["honey", "--seed", "2019"]) == 0
        out = capsys.readouterr().out
        assert "total installs: 1679" in out
        assert "1000+" in out

    @pytest.mark.parametrize("argv", [
        ["honey", "--installs-per-iip", "1"],
        ["honey", "--installs-per-iip", "21"],
        ["detect", "--source", "honey", "--installs-per-iip", "5"],
    ])
    def test_unsupported_honey_purchase_fails_cleanly(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "smallest supported purchase is 22" in captured.err

    def test_wild_with_export_and_report_round_trip(self, capsys, tmp_path):
        offers = tmp_path / "offers.json"
        archive = tmp_path / "archive.json"
        assert main(["wild", "--scale", "0.05", "--days", "14",
                     "--export-offers", str(offers),
                     "--export-archive", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Table 5" in out
        assert "exported" in out
        assert offers.exists()
        assert archive.exists()

        assert main(["report", "--offers", str(offers),
                     "--archive", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "loaded" in out
        assert "Table 3" in out
        assert "Table 4" in out

    @pytest.mark.chaos
    def test_wild_chaos_run_prints_coverage_loss(self, capsys):
        assert main(["wild", "--scale", "0.05", "--days", "10",
                     "--chaos-profile", "paper", "--chaos-seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "chaos profile: paper (seed 7)" in out
        assert "faults injected" in out
        assert "survived" in out

    def test_wild_without_chaos_omits_coverage_loss(self, capsys):
        assert main(["wild", "--scale", "0.05", "--days", "10"]) == 0
        out = capsys.readouterr().out
        assert "chaos profile" not in out

    def test_streamed_run_removes_its_temporary_spill_dir(self, tmp_path):
        """Without --spill-dir a streamed run spills to a fresh temp
        directory, which must be gone once the interpreter exits."""
        env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=str(SRC))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "wild", "--scale", "0.02",
             "--days", "2", "--batch-devices", "7"],
            capture_output=True, text=True, env=env, timeout=600)
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "Table 3" in completed.stdout
        assert not list(tmp_path.glob("repro-spill-*"))

    def test_streamed_run_resumes_without_a_spill_dir(self, capsys,
                                                      tmp_path):
        """With --checkpoint-dir and no --spill-dir the spill files live
        under the checkpoint directory, so the checkpoints' spill
        cursors still point at them when the run resumes."""
        argv = ["wild", "--scale", "0.02", "--days", "3",
                "--batch-devices", "4", "--checkpoint-dir", str(tmp_path)]
        assert main(argv + ["--crash-at", "wild.day:2"]) == CRASH_EXIT_CODE
        assert main(argv + ["--resume"]) == 0
        assert "Table 3" in capsys.readouterr().out
        assert (tmp_path / "spill" / "observations.jsonl").stat().st_size

    def test_resume_from_another_pipeline_fails_cleanly(self, capsys,
                                                        tmp_path):
        CheckpointStore(tmp_path, "wild").write(0, {})
        assert main(["honey", "--installs-per-iip", "40",
                     "--checkpoint-dir", str(tmp_path), "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: checkpoint kind mismatch")

    def test_streamed_checkpoint_resumed_materialised_fails_cleanly(
            self, capsys, tmp_path):
        argv = ["wild", "--scale", "0.02", "--days", "2",
                "--checkpoint-dir", str(tmp_path)]
        assert main(argv + ["--batch-devices", "4", "--crash-at",
                            "wild.day:1"]) == CRASH_EXIT_CODE
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: checkpoint was written by a spilling run")

    def test_report_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["report", "--offers", str(tmp_path / "nope.json")]) == 2
        assert "cannot load offers" in capsys.readouterr().err

    def test_report_bad_file_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["report", "--offers", str(bad)]) == 2
        assert "cannot load offers" in capsys.readouterr().err

    def test_report_malformed_archive_fails_cleanly(self, capsys, tmp_path):
        offers = tmp_path / "offers.json"
        offers.write_text(json.dumps({"kind": "offer_dataset",
                                      "format_version": 1, "offers": []}))
        archive = tmp_path / "archive.json"
        archive.write_text(json.dumps({
            "kind": "crawl_archive", "format_version": 1, "crawl_days": [],
            "charts": [], "profiles": [{"package": "com.app.one"}]}))
        assert main(["report", "--offers", str(offers),
                     "--archive", str(archive)]) == 2
        assert "cannot load archive" in capsys.readouterr().err


class TestPaperCommand:
    def test_paper_small_scale(self, capsys):
        assert main(["paper", "--scale", "0.05", "--days", "14",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        for marker in ("Table 1", "Table 3", "Table 5", "Table 7",
                       "Figure 4", "Figure 6", "Arbitrage", "Enforcement",
                       "Cost recovery"):
            assert marker in out
