"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``honey``    Run the Section-3 honey-app experiment and print its report.
``wild``     Run the Section-4 wild measurement and print every table;
             optionally export the dataset/archive JSON (the public
             data release).
``report``   Re-run the analyses on previously exported data files.
``detect``   Stream install events from a source pipeline (synthetic
             corpus, honey telemetry, or the wild monitor) through the
             online lockstep detector and score it against ground truth.
``serve``    Run the always-on detection/analytics service on the
             virtual-time loop under a seeded client fleet and print
             its latency/admission/cache/detection report.
``tables``   Print the static tables (1 and 2).
``obs``      Print top counters/spans from a metrics snapshot (or from
             a fresh honey run when no snapshot is given).

The global ``--metrics-out PATH`` flag (before the subcommand) dumps
the observability snapshot of any world-running subcommand as JSON.

``honey``, ``wild``, and ``serve`` additionally accept the recovery
flags (``--checkpoint-dir``, ``--resume``, ``--crash-at``,
``--crash-rate``, ``--crash-seed``): checkpoints are written at every
quiescent barrier, injected crashes exit with code
:data:`CRASH_EXIT_CODE`, and a resumed run produces byte-identical
reports and metric exports to an uninterrupted one.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional, Sequence

from repro.core import reports
from repro.simulation.paperdata import HONEY_INSTALLS_PURCHASED


#: Every chaos-capable subcommand offers the same profiles.
CHAOS_PROFILE_CHOICES = ("off", "mild", "paper", "harsh")


def _add_chaos_flags(parser) -> None:
    """The ``--chaos-profile/--chaos-seed`` pair shared by every
    world-running subcommand (honey, wild, detect, serve)."""
    parser.add_argument("--chaos-profile", default="off",
                        choices=CHAOS_PROFILE_CHOICES,
                        help="inject deterministic network faults at the "
                             "named intensity (default: off)")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        help="seed for the fault schedule (defaults to "
                             "--seed); same seed => identical faults")


def _chaos_scenario(args):
    """Build the :class:`ChaosScenario` the shared flags describe."""
    from repro.net.chaos import ChaosScenario
    seed = args.chaos_seed if args.chaos_seed is not None else args.seed
    return ChaosScenario.profile(args.chaos_profile, seed=seed)


def _add_scenario_flag(parser) -> None:
    """The ``--scenario`` adversarial-profile flag (wild, detect)."""
    parser.add_argument("--scenario", default="naive", metavar="PROFILES",
                        help="adversarial population profile(s), comma-"
                             "separated: naive (default), evasive, "
                             "fake-reviews, download-fraud; profiles "
                             "compose, and every choice stays byte-"
                             "identical at the same seed under every "
                             "chaos profile")


def _scenario_pack(args):
    """Parse ``--scenario`` into a :class:`ScenarioPack`, or exit 2."""
    from repro.scenarios import parse_scenario
    try:
        return parse_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _honey_experiment(args, world, detection=None):
    """The honey experiment ``--installs-per-iip`` asks for, or exit 2
    on a purchase too small to run."""
    from repro import HoneyAppExperiment
    try:
        return HoneyAppExperiment(world, args.installs_per_iip, detection)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _print_scenario_sections(world, scenario, through_day: int) -> None:
    """The adversarial report sections ``wild`` and ``detect`` share."""
    pack = scenario.config.scenario
    if pack.fake_reviews:
        from repro.scenarios import ReviewSpamDetector, render_review_report
        paid = scenario.paid_reviewer_ids()
        book = world.store.reviews
        report = ReviewSpamDetector().evaluate(book, paid)
        print(render_review_report(book, report, len(paid)))
    if pack.download_fraud:
        from repro.scenarios import DownloadFraudDetector, render_fraud_report
        packages = (scenario.advertised_packages()
                    + scenario.baseline_packages())
        report = DownloadFraudDetector().evaluate(
            world.store, packages, scenario.fraud_packages(), through_day)
        print(render_fraud_report(world.store, scenario.boost_plans(),
                                  report, through_day))


def _float(text: str) -> float:
    """``text`` as a float, or an argparse usage error."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")


def _positive_float(text: str) -> float:
    """Argparse type: a strictly positive float (every ``--scale``)."""
    value = _float(text)
    if not value > 0:  # NaN included
        raise argparse.ArgumentTypeError(
            f"must be positive, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    """Argparse type: a float of at least 0 (``serve --qps``, where 0
    stops the token refill)."""
    value = _float(text)
    if not value >= 0:  # NaN included
        raise argparse.ArgumentTypeError(
            f"must not be negative, got {value}")
    return value


def _probability(text: str) -> float:
    """Argparse type: a float in [0, 1] (``--crash-rate``)."""
    value = _float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 1], got {value}")
    return value


def _int(text: str) -> int:
    """``text`` as an integer, or an argparse usage error."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")


def _positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer (``--days`` and the
    serve sizes)."""
    value = _int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be positive, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """Argparse type: an integer of at least 0 (``--installs-per-iip``,
    where 0 is the honey dry run, and ``--batch-devices``, where 0
    materialises)."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must not be negative, got {value}")
    return value


#: Exit code for a run terminated by an injected SimulatedCrash: the
#: run did what it was told, but the pipeline did not finish.
CRASH_EXIT_CODE = 70


def _add_recovery_flags(parser, stages: str) -> None:
    """The checkpoint/resume/crash-injection flags shared by the
    crash-tolerant subcommands (honey, wild, serve)."""
    group = parser.add_argument_group(
        "recovery", "durable checkpoints, resume, and crash-fault "
                    "injection (all require --checkpoint-dir)")
    group.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="write a checkpoint at every quiescent "
                            "barrier into DIR (enables recovery)")
    group.add_argument("--resume", action="store_true",
                       help="resume from the newest valid checkpoint in "
                            "--checkpoint-dir instead of starting fresh")
    group.add_argument("--crash-at", metavar="STAGE:DAY[:SEQ]",
                       action="append", default=None,
                       help="inject a SimulatedCrash at the named kill "
                            f"point (repeatable; stages: {stages})")
    group.add_argument("--crash-rate", type=_probability, default=0.0,
                       help="hashed probability of crashing at each kill "
                            "point (default: 0.0)")
    group.add_argument("--crash-seed", type=int, default=None,
                       help="seed for the hashed crash schedule "
                            "(defaults to --seed)")


def _recovery_context(args, kind: str):
    """Build the :class:`RecoveryContext` the recovery flags describe,
    ``None`` when recovery is off.  Exits with a usage error when a
    recovery flag is given without ``--checkpoint-dir``.
    """
    wants = (args.resume or args.crash_at or args.crash_rate > 0.0
             or args.crash_seed is not None)
    if args.checkpoint_dir is None:
        if wants:
            print("error: --resume/--crash-* require --checkpoint-dir",
                  file=sys.stderr)
            raise SystemExit(2)
        return None
    from repro.recovery import CrashPlan, RecoveryContext, parse_kill_point
    crash = None
    if args.crash_at or args.crash_rate > 0.0:
        try:
            points = tuple(parse_kill_point(spec)
                           for spec in (args.crash_at or ()))
        except ValueError as exc:
            print(f"error: bad --crash-at: {exc}", file=sys.stderr)
            raise SystemExit(2)
        seed = (args.crash_seed if args.crash_seed is not None
                else args.seed)
        crash = CrashPlan(seed=seed, rate=args.crash_rate,
                          kill_points=points)
    return RecoveryContext.create(args.checkpoint_dir, kind, crash=crash,
                                  resume=args.resume)


def _run_recovering(run, recovery):
    """``run(recovery=recovery)``, then the recovery counters' export.

    Returns the run's result, or an exit code: :data:`CRASH_EXIT_CODE`
    after an injected crash, reported the way a real fault would look,
    and 2 when the checkpoint directory holds a run this one cannot
    resume (another pipeline's, another format version's, or a streamed
    run resumed materialised and vice versa).
    """
    from repro.analysis.streams import SpillError
    from repro.recovery import CheckpointError, SimulatedCrash
    try:
        result = run(recovery=recovery)
    except SimulatedCrash as exc:
        recovery.export_metrics()
        print(f"simulated crash: {exc}", file=sys.stderr)
        print(f"resume with: --checkpoint-dir "
              f"{recovery.store.root} --resume", file=sys.stderr)
        return CRASH_EXIT_CODE
    except (CheckpointError, SpillError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if recovery is not None:
        recovery.export_metrics()
    return result


def _add_honey(subparsers) -> None:
    parser = subparsers.add_parser(
        "honey", help="run the Section-3 honey-app experiment")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--installs-per-iip", type=_non_negative_int,
                        default=HONEY_INSTALLS_PURCHASED,
                        help="installs to purchase from each IIP "
                             "(default: the paper's 500)")
    _add_chaos_flags(parser)
    _add_recovery_flags(parser, "honey.campaign, honey.checkpoint")


def _add_wild(subparsers) -> None:
    parser = subparsers.add_parser(
        "wild", help="run the Section-4 wild measurement")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--scale", type=_positive_float, default=0.25,
                        help="fraction of the paper's 922 advertised apps "
                             "(must be positive)")
    parser.add_argument("--days", type=_positive_int, default=60,
                        help="measurement days (must be positive)")
    parser.add_argument("--batch-devices", type=_non_negative_int,
                        default=0, metavar="N",
                        help="stream the analysis in N-row chunks and "
                             "spill the observation/archive logs to disk "
                             "(bounded peak-RSS; 0 = materialise "
                             "everything in memory, the default); any "
                             "value yields byte-identical exports at the "
                             "same seed")
    parser.add_argument("--spill-dir", metavar="DIR", default=None,
                        help="directory for the streamed append-only "
                             "spill files (default: a spill/ "
                             "subdirectory of --checkpoint-dir when one is "
                             "given, so the run can --resume; otherwise a "
                             "fresh temporary directory, removed at exit)")
    parser.add_argument("--export-offers", metavar="PATH",
                        help="write the offer corpus JSON here")
    parser.add_argument("--export-archive", metavar="PATH",
                        help="write the crawl archive JSON here")
    _add_scenario_flag(parser)
    _add_chaos_flags(parser)
    _add_recovery_flags(parser, "wild.day, wild.milk, wild.crawl, "
                                "wild.checkpoint")


def _add_report(subparsers) -> None:
    parser = subparsers.add_parser(
        "report", help="analyse previously exported data")
    parser.add_argument("--offers", required=True,
                        help="offer corpus JSON (from `wild --export-offers`)")
    parser.add_argument("--archive",
                        help="crawl archive JSON (enables Table 4)")


def _add_detect(subparsers) -> None:
    parser = subparsers.add_parser(
        "detect", help="stream install events through the online lockstep "
                       "detector and score it against ground truth")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--source", default="corpus",
                        choices=("corpus", "honey", "wild"),
                        help="event source: the synthetic labelled corpus, "
                             "the Section-3 honey telemetry, or the "
                             "Section-4 wild monitor (default: corpus)")
    parser.add_argument("--scale", type=_positive_float, default=0.05,
                        help="wild source: fraction of the paper's 922 "
                             "advertised apps (default: 0.05)")
    parser.add_argument("--days", type=_positive_int, default=14,
                        help="wild source: measurement days (default: 14)")
    parser.add_argument("--installs-per-iip", type=_non_negative_int,
                        default=HONEY_INSTALLS_PURCHASED,
                        help="honey source: installs to purchase from each "
                             "IIP (default: the paper's 500)")
    _add_scenario_flag(parser)
    _add_chaos_flags(parser)


def _add_serve(subparsers) -> None:
    from repro.serve.runner import ServeRunConfig
    parser = subparsers.add_parser(
        "serve", help="run the always-on detection/analytics service "
                      "under a seeded load-generating client fleet")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--days", type=_positive_int, default=2,
                        help="simulated service days on the virtual-time "
                             "loop (default: 2)")
    parser.add_argument("--clients", type=_positive_int, default=8,
                        help="fleet clients, each with its own derived "
                             "RNG stream (default: 8)")
    parser.add_argument("--qps", type=_non_negative_float, default=1.0,
                        help="admission token refill, requests per virtual "
                             "second (default: 1.0)")
    parser.add_argument("--burst", type=_positive_int, default=12,
                        help="admission token-bucket capacity (default: 12)")
    parser.add_argument("--scale", type=_positive_float, default=0.1,
                        help="device-population multiplier per client, "
                             "toward millions of simulated users "
                             "(default: 0.1)")
    parser.add_argument("--profile", default="query-heavy",
                        choices=("query-heavy", "ingest-heavy", "mixed"),
                        help="fleet endpoint mix (default: query-heavy)")
    parser.add_argument("--shards", type=_positive_int,
                        default=ServeRunConfig.shards,
                        help="the service's worker-task count (default: "
                             "%(default)s); another count changes queueing, "
                             "so the closed-loop fleet sends other requests "
                             "and the whole run changes")
    _add_chaos_flags(parser)
    _add_recovery_flags(parser,
                        "serve.day, serve.request, serve.checkpoint")
    parser.add_argument("--flagged-out", metavar="PATH",
                        help="write the final flagged-device dump (JSON) "
                             "here")


def _add_obs(subparsers) -> None:
    parser = subparsers.add_parser(
        "obs", help="print top counters and spans as a text table")
    parser.add_argument("--metrics", metavar="PATH",
                        help="snapshot JSON written by --metrics-out; when "
                             "omitted, runs the honey experiment and reports "
                             "its observability")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--top", type=int, default=15,
                        help="rows per table section")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Understanding Incentivized Mobile "
                    "App Installs on Google Play Store' (IMC 2020)")
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="after the subcommand, dump the observability snapshot "
             "(metrics + spans) as JSON to PATH")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_honey(subparsers)
    _add_wild(subparsers)
    _add_report(subparsers)
    _add_detect(subparsers)
    _add_serve(subparsers)
    _add_obs(subparsers)
    subparsers.add_parser("tables", help="print the static tables (1 and 2)")
    paper = subparsers.add_parser(
        "paper", help="run the full reproduction and print every table")
    paper.add_argument("--seed", type=int, default=2019)
    paper.add_argument("--scale", type=_positive_float, default=1.0)
    paper.add_argument("--days", type=_positive_int, default=None)
    return parser


def _maybe_dump_metrics(args, obs) -> int:
    """Honour the global ``--metrics-out`` flag for a finished world.

    Returns a process exit code: the experiment already ran, but a
    snapshot the user asked for and did not get is still a failure.
    """
    path = getattr(args, "metrics_out", None)
    if not path:
        return 0
    from repro.obs import save_snapshot
    try:
        save_snapshot(obs, path)
    except OSError as exc:
        print(f"error: cannot write metrics snapshot: {exc}", file=sys.stderr)
        return 1
    print(f"metrics snapshot written to {path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_tables() -> int:
    print(reports.render_table1())
    print()
    print(reports.render_table2())
    return 0


def _cmd_honey(args) -> int:
    from repro import World
    world = World(seed=args.seed, chaos=_chaos_scenario(args))
    experiment = _honey_experiment(args, world)
    results = _run_recovering(experiment.run,
                              _recovery_context(args, "honey"))
    if isinstance(results, int):
        return results
    print(reports.render_honey_report(results))
    return _maybe_dump_metrics(args, world.obs)


def _cmd_wild(args) -> int:
    from repro import (
        WildMeasurement,
        WildMeasurementConfig,
        WildScenario,
        WildScenarioConfig,
        World,
    )
    from repro.core.paper_report import SECTIONS

    pack = _scenario_pack(args)
    chaos = _chaos_scenario(args)
    world = World(seed=args.seed, chaos=chaos)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=args.scale, measurement_days=args.days, scenario=pack))
    scenario.build()
    spill_dir = args.spill_dir
    if spill_dir is None and args.checkpoint_dir is not None:
        # Spill files a checkpoint points into must outlive the process.
        spill_dir = os.path.join(args.checkpoint_dir, "spill")
    measurement = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=args.days, batch_devices=args.batch_devices,
        spill_dir=spill_dir))
    results = _run_recovering(measurement.run,
                              _recovery_context(args, "wild"))
    if isinstance(results, int):
        return results
    print(f"{results.dataset.offer_count()} offers from "
          f"{len(results.dataset.unique_packages())} apps "
          f"({results.milk_runs} milk runs, "
          f"{results.crawl_requests} crawl requests)\n")
    if chaos.enabled:
        print(f"chaos profile: {chaos.name} (seed {chaos.seed})")
        for line in results.coverage_loss.summary_lines():
            print(f"  {line}")
        print()
    print("\n\n".join(SECTIONS[name](results) for name in (
        "table3", "table4", "table5", "table6", "enforcement")))
    if pack.adversarial:
        print(f"\nscenario: {pack.name}")
        _print_scenario_sections(world, scenario, args.days - 1)
    if args.export_offers or args.export_archive:
        from repro.monitor.storage import save_archive, save_dataset
        if args.export_offers:
            count = save_dataset(results.dataset, args.export_offers)
            print(f"\nexported {count} offers to {args.export_offers}")
        if args.export_archive:
            count = save_archive(results.archive, args.export_archive)
            print(f"exported {count} profile snapshots to "
                  f"{args.export_archive}")
    return _maybe_dump_metrics(args, world.obs)


def _cmd_report(args) -> int:
    from repro.analysis.characterize import iip_summary_table, offer_type_table
    from repro.iip.registry import VETTED_IIPS
    from repro.monitor.storage import (
        DatasetFormatError,
        load_archive,
        load_offer_records,
        rehydrate_dataset,
    )
    try:
        dataset = rehydrate_dataset(load_offer_records(args.offers))
    except (OSError, DatasetFormatError) as exc:
        print(f"error: cannot load offers: {exc}", file=sys.stderr)
        return 2
    print(f"loaded {dataset.offer_count()} offers from "
          f"{len(dataset.unique_packages())} apps\n")
    print(reports.render_table3(offer_type_table(dataset)))
    if args.archive:
        try:
            archive = load_archive(args.archive)
        except (OSError, DatasetFormatError) as exc:
            print(f"error: cannot load archive: {exc}", file=sys.stderr)
            return 2
        print()
        print(reports.render_table4(iip_summary_table(
            dataset, archive, VETTED_IIPS)))
    return 0


def _cmd_detect(args) -> int:
    from repro.detection.lockstep import LockstepDetector
    from repro.detection.live import LiveDetection
    from repro.obs import Observability

    pack = _scenario_pack(args)
    chaos = _chaos_scenario(args)
    scenario = None
    world = None
    if args.source == "corpus":
        if pack.adversarial:
            print("error: --scenario applies to the honey and wild "
                  "sources, not the synthetic corpus", file=sys.stderr)
            return 2
        from repro.detection.bridge import build_training_corpus
        obs = Observability()
        hook = LiveDetection(obs=obs, source="corpus")
        log, incentivized = build_training_corpus(seed=args.seed)
        hook.record_incentivized(incentivized)
        hook.publish_batch(log.events())
    elif args.source == "honey":
        if pack.fake_reviews or pack.download_fraud:
            print("error: the honey pipeline has no store population; "
                  "only the evasive scenario applies to --source honey",
                  file=sys.stderr)
            return 2
        from repro.simulation.world import World
        world = World(seed=args.seed, chaos=chaos)
        obs = world.obs
        if pack.evasive:
            from repro.scenarios import EvasiveLiveDetection
            hook = EvasiveLiveDetection(
                world.seeds.seed_for("honey-evasion"),
                obs=obs, source="honey")
        else:
            hook = world.detection_hook("honey")
        _honey_experiment(args, world, hook).run()
    else:
        from repro.simulation.world import World
        from repro.simulation.scenarios import (WildScenario,
                                                WildScenarioConfig)
        from repro.core.wild_measurement import (WildMeasurement,
                                                 WildMeasurementConfig)
        world = World(seed=args.seed, chaos=chaos)
        obs = world.obs
        hook = world.detection_hook("wild")
        scenario = WildScenario(world, WildScenarioConfig(
            scale=args.scale, measurement_days=args.days, scenario=pack))
        scenario.build()
        WildMeasurement(world, scenario, WildMeasurementConfig(
            measurement_days=args.days), detection=hook).run()
    flagged = hook.finalize()
    report = hook.evaluate()
    print(f"{args.source}: {len(hook.log)} events, "
          f"{len(hook.log.devices())} devices, "
          f"{len(hook.incentivized)} incentivized")
    if pack.adversarial:
        print(f"scenario: {pack.name}")
    if chaos.enabled and args.source != "corpus":
        print(f"chaos profile: {chaos.name} (seed {chaos.seed})")
    print(f"flagged {len(flagged)}: precision {report.precision:.2f}, "
          f"recall {report.recall:.2f}, FPR {report.false_positive_rate:.3f}")
    batch = LockstepDetector(hook.config).flag_devices(hook.log)
    agreement = "yes" if batch == flagged else "NO"
    print(f"online == batch: {agreement} "
          f"({len(hook.online.clusters)} clusters)")
    for package in hook.online.flagged_packages(min_clusters=1):
        print(f"policy candidate: {package}")
    if pack.evasive:
        from repro.detection import HardenedLockstepDetector
        from repro.detection.live import HONEY_HARDENED_FLAG_THRESHOLD
        if args.source == "honey":
            hardened = HardenedLockstepDetector(HONEY_HARDENED_FLAG_THRESHOLD)
        else:
            hardened = HardenedLockstepDetector()
        hardened_flagged = hardened.flag_devices(hook.log)
        hardened_report = hook.score(hardened_flagged)
        print(f"hardened flagged {len(hardened_flagged)}: "
              f"precision {hardened_report.precision:.2f}, "
              f"recall {hardened_report.recall:.2f}, "
              f"FPR {hardened_report.false_positive_rate:.3f}")
    if scenario is not None and pack.adversarial:
        _print_scenario_sections(world, scenario, args.days - 1)
    return _maybe_dump_metrics(args, obs)


def _cmd_serve(args) -> int:
    from repro.serve import ServeRunConfig, run_serve
    config = ServeRunConfig(
        seed=args.seed,
        days=args.days,
        clients=args.clients,
        qps=args.qps,
        burst=args.burst,
        shards=args.shards,
        scale=args.scale,
        profile=args.profile,
        chaos_profile=args.chaos_profile,
        chaos_seed=args.chaos_seed,
    )
    result = _run_recovering(functools.partial(run_serve, config),
                             _recovery_context(args, "serve"))
    if isinstance(result, int):
        return result
    print(result.render())
    if args.flagged_out:
        try:
            with open(args.flagged_out, "w", encoding="utf-8") as handle:
                handle.write(result.flagged_dump())
        except OSError as exc:
            print(f"error: cannot write flagged dump: {exc}",
                  file=sys.stderr)
            return 1
        print(f"flagged dump written to {args.flagged_out}")
    return _maybe_dump_metrics(args, result.obs)


def _cmd_obs(args) -> int:
    from repro.obs import load_snapshot, render_obs_table
    if args.metrics:
        try:
            snapshot = load_snapshot(args.metrics)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load snapshot: {exc}", file=sys.stderr)
            return 2
        rc = 0
    else:
        from repro import HoneyAppExperiment, World
        world = World(seed=args.seed)
        HoneyAppExperiment(world).run()
        snapshot = world.obs.snapshot()
        rc = _maybe_dump_metrics(args, world.obs)
    print(render_obs_table(snapshot, top=args.top))
    return rc


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # Reports are routinely piped into head/less; a closed pipe is
        # not an error worth a traceback.
        sys.stderr.close()
        return 0


def _dispatch(args) -> int:
    if args.command == "tables":
        return _cmd_tables()
    if args.command == "honey":
        return _cmd_honey(args)
    if args.command == "wild":
        return _cmd_wild(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "detect":
        return _cmd_detect(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "paper":
        from repro.core.paper_report import run_full_reproduction
        from repro.obs import Observability
        obs = Observability() if args.metrics_out else None
        report = run_full_reproduction(seed=args.seed, scale=args.scale,
                                       days=args.days, obs=obs)
        print(report.render())
        if obs is not None:
            return _maybe_dump_metrics(args, obs)
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
