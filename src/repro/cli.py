"""Command-line interface: every ``macaw-sim`` subcommand.

Usage::

    macaw-sim list
    macaw-sim table5
    macaw-sim table5 --seed 3 --duration 200
    macaw-sim all --duration 200
    macaw-sim all --seeds 0,1,2,3 --jobs 4
    macaw-sim table9 --seeds 8 --jobs 4 --cache --digest
    macaw-sim table2 --metrics --seeds 3 --metrics-out runs/
    macaw-sim table2 --chaos churn-light
    macaw-sim verify-trace table5
    macaw-sim verify-trace all
    macaw-sim chaos --list
    macaw-sim chaos noise-burst --duration 300 --metrics
    macaw-sim analyze src/repro
    macaw-sim analyze src/repro --format sarif --output analysis.sarif
    macaw-sim sweep table2 table9 --seeds 0,1,2,3 --jobs 4
    macaw-sim sweep table2 --adaptive --epsilon 2.0 --max-seeds 16
    macaw-sim sweep --resume 3f9c2a1b04de
    macaw-sim sweep --list
    macaw-sim diff table2 fig1 --duration 60 --warmup 10
    macaw-sim diff table2 --full --seeds 0,1
    macaw-sim fuzz --budget 25 --seed from-run-id

``--seeds`` accepts either a count (``--seeds 4`` runs seed..seed+3) or an
explicit comma-separated list (``--seeds 0,1,2,3``).  ``--jobs N`` fans the
experiment × seed grid out over N worker processes via the cell scheduler
(:mod:`repro.service.scheduler`); results are byte-identical to a serial
run.  ``--cache`` memoizes finished cells on disk (keyed by experiment,
seed, bounds, runtime config and a source-tree content hash), and
``--digest`` prints each cell's combined trace digest — the determinism
fingerprint.

``--metrics`` instruments every run with the :mod:`repro.obs` probe
catalogue (sampled at ``--metrics-interval`` simulated seconds) without
perturbing determinism; ``--metrics-out DIR`` writes one JSONL file per
run, ready for ``python -m repro.obs.aggregate`` to band across seeds.

``verify-trace`` runs experiments with the protocol conformance sanitizer
enabled: every station's trace is replayed through the statechart and
dialogue checker (:mod:`repro.verify.conformance`) and any violation is
reported and fails the command.

``sweep`` runs the grid as a durable job (:mod:`repro.service`): the
spec is digest-keyed, completed cells append to a chained journal, and
worker death retries with backoff.  ^C drains and journals in-flight
cells and exits 130; ``--resume JOB`` (or re-running the same spec)
replays the journal + cache byte-identically and continues.
``--adaptive --epsilon E`` switches from fixed seeds to sequential
stopping: per experiment, seeds are added until the target metric's CI
half-width drops below E (or ``--max-seeds`` caps it).

``--faults spec.json`` / ``--chaos PRESET`` inject a
:class:`~repro.fault.schedule.FaultSchedule` into every run (link flaps,
noise bursts, station churn — :mod:`repro.fault`); same-seed runs stay
deterministic.  The ``chaos`` subcommand instead runs the degradation
benchmark: clean vs faulted six-pad cells per protocol, reporting how
much throughput and delay MACAW/MACA/CSMA retain under the schedule.

``diff`` and ``fuzz`` drive the differential oracle
(:mod:`repro.verify.diff`); ``analyze`` is the static analyzer
(:mod:`repro.verify.analysis.cli`).

Every subcommand is parsed here, from one definition per shared flag.
Set-up (flag checks, experiment lookup and horizons, building the
profile, spec or oracle) runs inside :func:`_setup`, which turns what
it rejects into a :class:`UsageError`: one ``macaw-sim:`` line, exit 2.
A worker that kept dying, a cell that raised in a worker or a broken
journal is one line and exit 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.config import RunProfile
from repro.experiments.base import Experiment, SeedSweepResult, check_horizon
from repro.experiments.registry import all_experiments, get_experiment
from repro.runner import ResultCache, expand_cells
from repro.runner.cells import parse_seeds
from repro.service import (
    DEFAULT_BACKOFF_S,
    DEFAULT_JOB_DIR,
    DEFAULT_RETRIES,
    AdaptiveSeeds,
    CellFailure,
    FixedSeeds,
    Job,
    JobSpec,
    JournalError,
    WorkerDeath,
    find_job,
    run_cells,
    run_job,
)


class UsageError(Exception):
    """A bad command line: :func:`main` prints it as one line, exit 2."""


@contextmanager
def _setup() -> Iterator[None]:
    """A subcommand's set-up: what it rejects becomes a :class:`UsageError`.

    Only set-up belongs inside; an exception a running experiment raises
    is not a usage error.
    """
    try:
        yield
    except KeyError as exc:  # the registry's message names the known ids
        raise UsageError(exc.args[0]) from None
    except (ValueError, FileNotFoundError) as exc:
        raise UsageError(str(exc)) from None


def _warn(message: str) -> None:
    """One ``macaw-sim:`` line on stderr."""
    print(f"macaw-sim: {message}", file=sys.stderr)


# ------------------------------------------------------------ shared flags
def _add_seeds(parser: argparse.ArgumentParser, seeds: Optional[str] = "1",
               multi: bool = True) -> None:
    """``--seed``, and ``--seeds`` (default ``seeds``) when ``multi``."""
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    if multi:
        parser.add_argument(
            "--seeds", default=seeds, metavar="N|A,B,...",
            help="run N seeds (seed..seed+N-1) or an explicit "
            "comma-separated seed list"
            + ("" if seeds is None else f" (default {seeds})"),
        )


def _seeds(args: argparse.Namespace, default: str = "1") -> List[int]:
    spec = args.seeds if args.seeds is not None else default
    return parse_seeds(spec, args.seed, warn=_warn)


def _add_horizon(parser: argparse.ArgumentParser,
                 duration: Optional[float] = None,
                 warmup: Optional[float] = None,
                 warmup_flag: bool = True) -> None:
    """``--duration``, and ``--warmup`` when ``warmup_flag``."""
    def default(value: Optional[float]) -> str:
        return "experiment-specific" if value is None else f"{value:g}"

    parser.add_argument(
        "--duration", type=float, default=duration,
        help=f"simulated seconds per run (default: {default(duration)})",
    )
    if warmup_flag:
        parser.add_argument(
            "--warmup", type=float, default=warmup,
            help="seconds excluded from measurements "
            f"(default: {default(warmup)})",
        )


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="SPEC.json",
        help="inject the fault schedule in a JSON spec into every run "
        "(see repro.fault; deterministic per seed)",
    )


def _add_execution(parser: argparse.ArgumentParser) -> None:
    """``--jobs``, ``--queue``, ``--faults`` and ``--chaos``; read by
    :func:`_profile`."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the experiment × seed grid; results are "
        "byte-identical at any value (default 1)",
    )
    parser.add_argument(
        "--queue", default=None, metavar="BACKEND",
        help="event-queue backend: 'heap' (default), 'wheel', or "
        "'wheel:WIDTH' with an explicit bucket width in seconds; "
        "results are byte-identical per seed, only speed differs "
        "($REPRO_QUEUE sets the ambient default)",
    )
    _add_faults(parser)
    parser.add_argument(
        "--chaos", default=None, metavar="PRESET",
        help="inject a named chaos preset ('macaw-sim chaos --list' "
        "shows them); mutually exclusive with --faults",
    )


def _load_schedule(faults_path: Optional[str], chaos_name: Optional[str]):
    """The fault schedule the flags ask for, or None.

    Raises ValueError on conflicting flags, unknown presets, or an
    unreadable/invalid spec file.
    """
    if faults_path is not None and chaos_name is not None:
        raise ValueError("--faults and --chaos are mutually exclusive")
    if chaos_name is not None:
        from repro.fault.presets import get_preset

        return get_preset(chaos_name)
    if faults_path is not None:
        from repro.fault import FaultSchedule

        try:
            return FaultSchedule.from_file(faults_path)
        except OSError as exc:
            raise ValueError(f"cannot read --faults spec: {exc}") from None
    return None


def _profile(args: argparse.Namespace, **knobs: Any) -> RunProfile:
    """The profile :func:`_add_execution`'s flags ask for, plus ``knobs``."""
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    return RunProfile(faults=_load_schedule(args.faults, args.chaos),
                      queue=args.queue, **knobs)


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default .macaw_cache or "
        "$MACAW_CACHE_DIR); a run caches with --cache or this flag, a "
        "sweep always caches",
    )


def _add_metrics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", action="store_true",
        help="instrument runs with the repro.obs probe catalogue "
        "(per-station backoff/queue/dwell, channel busy fraction, "
        "per-stream load, fault.* under faults); determinism-neutral",
    )
    parser.add_argument(
        "--metrics-interval", default="1.0", metavar="SECONDS",
        help="sampling cadence in simulated seconds (default 1.0)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="DIR",
        help="write one metrics JSONL file per run into DIR "
        "(implies --metrics; aggregate sweeps with "
        "'python -m repro.obs.aggregate DIR/*.jsonl')",
    )


def _metrics_interval(args: argparse.Namespace) -> Optional[float]:
    """The sampling interval when metrics are on, else None."""
    try:
        interval = float(args.metrics_interval)
    except ValueError:
        interval = math.nan
    if not (math.isfinite(interval) and interval > 0):
        raise ValueError("--metrics-interval must be a positive number of "
                         f"seconds, got {args.metrics_interval!r}")
    return interval if args.metrics or args.metrics_out is not None else None


def _write_metrics(out_dir: Optional[str], interval: float,
                   runs: List[tuple]) -> None:
    """Write one JSONL file per ``(file stem, meta, dumps)`` run into
    ``out_dir``, or summarize the series when there is none."""
    series = sum(len(dump.get("series", []))
                 for _, _, dumps in runs for dump in dumps)
    if out_dir is None:
        print(f"metrics: {series} series collected at {interval:g}s cadence "
              "(pass --metrics-out DIR to save JSONL)")
        return
    from repro.obs.export import write_jsonl

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written = 0
    for stem, meta, dumps in runs:
        if dumps:
            write_jsonl(directory / f"{stem}.metrics.jsonl", dumps,
                        meta={**meta, "interval": interval})
            written += 1
    print(f"metrics: {series} series -> {directory}/ ({written} files)")


def _add_matrix(parser: argparse.ArgumentParser, out: str) -> None:
    """``--queues`` and ``--out``: the mode matrix's backends, and where a
    divergence's repro lands."""
    parser.add_argument("--queues", default="heap,wheel", metavar="A,B",
                        help="queue backends to cross (first = baseline)")
    parser.add_argument("--out", default=out, metavar="PATH",
                        help="where the minimal-repro JSON lands on failure")


def _queues(args: argparse.Namespace) -> List[str]:
    queues = [item.strip() for item in args.queues.split(",") if item.strip()]
    if not queues:
        raise ValueError(f"--queues needs at least one backend, got {args.queues!r}")
    return queues


def _experiments(selectors: Sequence[str], duration: Optional[float],
                 warmup: Optional[float]) -> List[Experiment]:
    """The experiments ``selectors`` name ('all' is every one), after
    checking each has a measurement window under the bounds.

    An unknown id raises the registry's KeyError, which names the known
    ids.
    """
    experiments: List[Experiment] = []
    for name in selectors:
        experiments += all_experiments() if name == "all" else [get_experiment(name)]
    for exp in experiments:
        exp.horizon(duration, warmup)
    return experiments


# ------------------------------------------------------------- subcommands
def _cmd_run(argv: List[str]) -> int:
    """Run experiments; print each table with its checks."""
    parser = argparse.ArgumentParser(
        prog="macaw-sim",
        description="MACAW (SIGCOMM '94) reproduction: run the paper's experiments.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'all' or 'list'; or one of the "
        f"subcommands {', '.join(_COMMANDS)}",
    )
    _add_seeds(parser)
    _add_horizon(parser)
    parser.add_argument(
        "--no-paper", action="store_true",
        help="hide the paper's reference columns",
    )
    _add_execution(parser)
    parser.add_argument(
        "--digest", action="store_true",
        help="print each run's combined trace digest (forces tracing on)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="memoize finished runs on disk (.macaw_cache or $MACAW_CACHE_DIR)",
    )
    _add_cache_dir(parser)
    _add_metrics(parser)
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for exp in all_experiments():
            print(f"{exp.spec.exp_id:24} {exp.spec.title}")
        return 0

    with _setup():
        experiments = _experiments([args.experiment], args.duration, args.warmup)
        seeds = _seeds(args)
        interval = _metrics_interval(args)
        # The one profile of the invocation: it flows through run_cells
        # into every cell, serially or into each worker process.
        profile = _profile(args, metrics=interval)

    cache = (ResultCache(args.cache_dir)
             if args.cache or args.cache_dir is not None else None)
    started = time.perf_counter()  # repro-lint: allow=REPRO102 (wall-time report)
    cells = expand_cells(
        [exp.spec.exp_id for exp in experiments], seeds,
        duration=args.duration, warmup=args.warmup,
    )
    outcomes = run_cells(cells, jobs=args.jobs, cache=cache,
                         collect_digests=args.digest, profile=profile)
    elapsed = time.perf_counter() - started  # repro-lint: allow=REPRO102

    if interval is not None:
        _write_metrics(args.metrics_out, interval, [
            (f"{o.cell.exp_id}_seed{o.cell.seed}",
             {"exp": o.cell.exp_id, "seed": o.cell.seed,
              "duration": o.cell.duration}, o.metrics)
            for o in outcomes
        ])

    all_passed = True
    for exp in experiments:
        rows = [o for o in outcomes if o.cell.exp_id == exp.spec.exp_id]
        result = rows[0].result if len(rows) == 1 else SeedSweepResult(
            spec=exp.spec, results=[row.result for row in rows])
        print(result.render(show_paper=not args.no_paper))
        all_passed = all_passed and result.passed
        if args.digest:
            for row in rows:
                print(f"  digest seed {row.cell.seed}: {row.digest}")
        detail = f"{len(rows)} run{'s' if len(rows) != 1 else ''}"
        cached = sum(1 for row in rows if row.cached)
        if cached:
            detail += f", {cached} cached"
        print(f"  ({rows[0].result.duration:g}s simulated, "
              f"seed {rows[0].cell.seed}; {detail})")
        print()

    summary = f"{len(outcomes)} cells in {elapsed:.1f}s wall (jobs={args.jobs}"
    if cache is not None:
        summary += f", cache: {cache.hits} hits / {cache.misses} misses"
    print(summary + ")")
    return 0 if all_passed else 1


def _cmd_verify_trace(argv: List[str]) -> int:
    """Run experiments under the conformance sanitizer; nonzero on violations."""
    from repro.topo.builder import capturing
    from repro.verify.conformance import ConformanceError

    parser = argparse.ArgumentParser(
        prog="macaw-sim verify-trace",
        description="Replay experiment traces through the protocol "
        "conformance sanitizer.",
    )
    parser.add_argument(
        "experiment", help="experiment id (see 'list'), or 'all'",
    )
    _add_seeds(parser, multi=False)
    _add_horizon(parser)
    args = parser.parse_args(argv)

    with _setup():
        experiments = _experiments([args.experiment], args.duration, args.warmup)
        profile = RunProfile(sanitize=True)

    clean = True
    for exp in experiments:
        with capturing() as runs:
            try:
                exp.run(seed=args.seed, duration=args.duration,
                        warmup=args.warmup, profile=profile)
            except ConformanceError as exc:
                clean = False
                print(f"{exp.spec.exp_id:24} CONFORMANCE VIOLATIONS")
                print(exc.report.render())
                continue
        records = sum(run.examined or 0 for run in runs)
        print(
            f"{exp.spec.exp_id:24} OK "
            f"({records} trace records, {len(runs)} scenario runs)"
        )
    return 0 if clean else 1


def _cmd_chaos(argv: List[str]) -> int:
    """Degradation benchmark: clean vs faulted runs per protocol."""
    from repro.fault.presets import preset_names

    parser = argparse.ArgumentParser(
        prog="macaw-sim chaos",
        description="Compare protocol throughput/delay with and without a "
        "fault schedule (six-pad cell, Figure 3 topology).",
    )
    parser.add_argument(
        "preset", nargs="?", default=None,
        help="chaos preset name (see --list); or use --faults SPEC.json",
    )
    _add_faults(parser)
    parser.add_argument(
        "--list", action="store_true", help="list the known presets and exit",
    )
    _add_seeds(parser, multi=False)
    _add_horizon(parser, duration=300.0, warmup=50.0)
    _add_metrics(parser)
    args = parser.parse_args(argv)

    if args.list:
        for name in preset_names():
            print(name)
        return 0
    with _setup():
        interval = _metrics_interval(args)
        schedule = _load_schedule(args.faults, args.preset)
        check_horizon(args.duration, args.warmup)
        if schedule is None:
            raise ValueError(f"chaos needs a preset ({', '.join(preset_names())}) "
                             "or --faults SPEC.json")
        if args.warmup >= args.duration:
            raise ValueError("--warmup must precede --duration")

    from repro.fault.report import run_degradation

    report = run_degradation(schedule, seed=args.seed, duration=args.duration,
                             warmup=args.warmup, metrics=interval)
    print(report.render())
    if interval is not None:
        _write_metrics(args.metrics_out, interval, [
            (f"chaos_{protocol}_seed{args.seed}",
             {"exp": f"chaos:{args.preset or args.faults}",
              "seed": args.seed, "duration": args.duration}, [dump])
            for protocol, dump in report.metrics.items()
        ])
    return 0


def _cmd_sweep(argv: List[str]) -> int:
    """Durable, resumable sweep jobs (the repro.service orchestrator).

    A sweep is journaled under ``--job-dir/<job_id>/``: every completed
    cell appends to a digest-chained JSONL journal, so ``--resume JOB``
    (or simply re-running the same spec) replays completed cells from
    the journal + result cache and continues byte-identically.  ^C
    drains in-flight workers, journals them, and exits 130.  The
    progress lines are the journal's records as they are appended.
    """
    parser = argparse.ArgumentParser(
        prog="macaw-sim sweep",
        description="Run a durable experiment × seed sweep job with "
        "journaled resume, worker-death retry, and optional adaptive "
        "(CI-driven) seed allocation.",
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help="experiment ids (see 'list'), or 'all'",
    )
    parser.add_argument(
        "--resume", default=None, metavar="JOB",
        help="resume the job with this id (or unambiguous id prefix, or "
        "a path to a job directory); the saved spec wins over spec flags",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_jobs",
        help="list the jobs under --job-dir and exit",
    )
    _add_seeds(parser, seeds=None)
    parser.add_argument(
        "--adaptive", action="store_true",
        help="sequential stopping instead of fixed seeds (default --seeds "
        "3): per experiment, keep adding seeds until the target metric's "
        "CI half-width is below --epsilon (or --max-seeds is hit)",
    )
    parser.add_argument(
        "--epsilon", type=float, default=None, metavar="PPS",
        help="target CI half-width in metric units (required with "
        "--adaptive)",
    )
    parser.add_argument(
        "--metric", default="total", metavar="SPEC",
        help="stopping metric: 'total' (default) or 'variant:NAME'",
    )
    parser.add_argument(
        "--min-seeds", type=int, default=3, metavar="N",
        help="adaptive: seeds to run before the first CI decision "
        "(default 3)",
    )
    parser.add_argument(
        "--max-seeds", type=int, default=32, metavar="N",
        help="adaptive: hard cap per experiment (default 32)",
    )
    parser.add_argument(
        "--step", type=int, default=1, metavar="N",
        help="adaptive: seeds added per round (default 1)",
    )
    parser.add_argument(
        "--confidence", type=float, default=0.95,
        help="adaptive: CI confidence level, 0.95 or 0.99 (default 0.95)",
    )
    _add_horizon(parser)
    _add_execution(parser)
    parser.add_argument(
        "--job-dir", default=None, metavar="DIR",
        help=f"where job journals live (default {DEFAULT_JOB_DIR})",
    )
    _add_cache_dir(parser)
    parser.add_argument(
        "--no-digest", action="store_true",
        help="skip per-cell trace digests (faster; forfeits the "
        "resume byte-equality fingerprint)",
    )
    parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
        help="worker-death retries per cell before the job fails "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--backoff", type=float, default=DEFAULT_BACKOFF_S, metavar="SECONDS",
        help="retry backoff base; retry N waits backoff * 2^(N-1) "
        "(default %(default)s)",
    )
    # Deterministic interruption for tests and the CI resume smoke:
    # stop scheduling after N fresh cells, exit as if ^C'd.
    parser.add_argument(
        "--stop-after", type=int, default=None, help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)

    job_dir = args.job_dir if args.job_dir is not None else DEFAULT_JOB_DIR
    if args.list_jobs:
        return _list_jobs(Path(job_dir))

    with _setup():
        # Built (and so checked) on --resume too, where the saved spec's
        # profile wins.
        profile = _profile(args)
        if args.retries < 0:
            raise ValueError(f"--retries must be >= 0, got {args.retries}")
        if not (math.isfinite(args.backoff) and args.backoff >= 0):
            raise ValueError("--backoff must be a finite number of seconds "
                             f">= 0, got {args.backoff}")
        if args.resume is not None:
            if args.experiments or args.seeds or args.adaptive:
                raise ValueError("--resume takes no spec flags (the saved "
                                 "spec wins)")
            spec = find_job(args.resume, job_dir).spec
        elif not args.experiments:
            raise ValueError("sweep needs experiment ids, --resume JOB, "
                             "or --list")
        else:
            experiments = _experiments(args.experiments, args.duration,
                                       args.warmup)
            if not args.adaptive:
                policy = FixedSeeds(seeds=tuple(_seeds(args, default="3")))
            elif args.seeds is not None:
                raise ValueError("--seeds and --adaptive are mutually exclusive")
            elif args.epsilon is None:
                raise ValueError("--adaptive requires --epsilon")
            else:
                policy = AdaptiveSeeds(
                    epsilon=args.epsilon, metric=args.metric,
                    min_seeds=args.min_seeds, max_seeds=args.max_seeds,
                    step=args.step, base_seed=args.seed,
                    confidence=args.confidence,
                )
            spec = JobSpec(
                experiments=tuple(exp.spec.exp_id for exp in experiments),
                policy=policy, profile=profile,
                duration=args.duration, warmup=args.warmup,
                collect_digests=not args.no_digest,
            )

    cache = ResultCache(args.cache_dir)
    print(f"job {spec.job_id} -> {Path(job_dir) / spec.job_id}/ "
          f"(jobs={args.jobs})")
    ran = 0

    def on_event(kind: str, record: Dict[str, Any]) -> None:
        nonlocal ran
        if kind == "cell":
            ran += 1
            note = f" ({record['attempts']} attempts)" \
                if record["attempts"] > 1 else ""
            print(f"  [{ran:>3}] {record['exp']} seed {record['seed']}: "
                  f"{record['wall_s']:.2f}s{note}")
        elif kind == "stop":
            print(f"  {record['exp']}: stopped after {record['n']} "
                  f"seeds ({record['reason']})")
        elif kind == "interrupt":
            print(f"\nmacaw-sim: interrupted — draining "
                  f"{record['drain']} in-flight cell(s), journaling; "
                  "^C again to terminate", file=sys.stderr)

    started = time.perf_counter()  # repro-lint: allow=REPRO102 (wall-time report)
    try:
        job = run_job(spec, jobs=args.jobs, job_dir=job_dir, cache=cache,
                      retries=args.retries, backoff_s=args.backoff,
                      on_event=on_event, stop_after=args.stop_after)
    except KeyboardInterrupt:
        _warn("sweep terminated")
        return 130
    elapsed = time.perf_counter() - started  # repro-lint: allow=REPRO102

    failed = sum(1 for o in job.outcomes if o.failed_checks)
    print(f"\njob {job.job_id}: {job.status} — {len(job.outcomes)} cells "
          f"({job.executed} executed, {job.replayed} replayed, "
          f"{job.retries} worker retries, {failed} with failed checks) "
          f"in {elapsed:.1f}s wall")
    for exp_id, stop in job.stops.items():
        half = stop["half_width"]
        half_text = f", CI half-width {half:.3g}" if half is not None else ""
        print(f"  {exp_id}: {stop['n']} seeds ({stop['reason']}{half_text})")
    if spec.collect_digests:
        print(f"  digest set: {job.digest_set()}")
    if job.interrupted:
        print(f"  resume with: macaw-sim sweep --resume {job.job_id}"
              + (f" --job-dir {job_dir}" if args.job_dir is not None else ""))
        return 130
    return 0


def _list_jobs(root: Path) -> int:
    """``sweep --list``: one line per job under ``root``, read from its
    spec and journal."""
    entries = sorted(
        entry for entry in (root.iterdir() if root.is_dir() else [])
        if (entry / "spec.json").exists()
    )
    if not entries:
        print(f"no jobs under {root}/")
        return 0
    for entry in entries:
        try:
            job = Job.load(entry)
        except (ValueError, KeyError) as exc:
            print(f"{entry.name}  (unreadable spec: {exc})")
            continue
        try:
            records = job.journal().load()
        except JournalError:
            status, cells = "corrupt", 0
        else:
            cells = sum(1 for r in records if r.get("kind") == "cell")
            ends = [r["kind"] for r in records
                    if r.get("kind") in ("complete", "interrupted")]
            status = ends[-1] if ends else "running"
        policy = job.spec.policy.to_dict()
        policy_text = (
            f"seeds={len(policy['seeds'])}" if policy["kind"] == "fixed"
            else f"adaptive eps={policy['epsilon']:g}"
        )
        print(f"{job.job_id}  {status:<12} {cells:>4} cells  "
              f"{policy_text:<20} {','.join(job.spec.experiments)}")
    return 0


def _cmd_diff(argv: List[str]) -> int:
    """Run experiments under the execution-mode matrix; exit 1 with a
    bisected repro on any digest mismatch."""
    from repro.verify.diff.bisect import BisectError, locate_first_divergence
    from repro.verify.diff.fuzz import experiment_repro, write_repro
    from repro.verify.diff.modes import default_matrix, full_matrix
    from repro.verify.diff.oracle import DiffOracle

    parser = argparse.ArgumentParser(
        prog="macaw-sim diff",
        description="Differential execution oracle: run experiments under "
        "a matrix of execution modes (queue backend x jobs x metrics) "
        "and require byte-identical digests; bisect any mismatch to its "
        "first divergent event.",
    )
    parser.add_argument(
        "experiments", nargs="+",
        help="experiment ids (see 'macaw-sim list'), or 'all'",
    )
    _add_seeds(parser)
    _add_horizon(parser)
    _add_matrix(parser, out="diff-repro.json")
    parser.add_argument("--full", action="store_true",
                        help="full 8-point cross product instead of the "
                        "baseline-plus-one-axis covering matrix")
    parser.add_argument("--no-bisect", action="store_true",
                        help="report digest mismatches without localizing")
    args = parser.parse_args(argv)

    with _setup():
        experiments = _experiments(args.experiments, args.duration, args.warmup)
        queues = _queues(args)
        oracle = DiffOracle(
            [exp.spec.exp_id for exp in experiments], seeds=_seeds(args),
            duration=args.duration, warmup=args.warmup,
            modes=full_matrix(queues) if args.full else default_matrix(queues),
        )

    print(f"diff: {len(oracle.cells)} cell(s) x {len(oracle.modes)} mode(s) "
          f"[{', '.join(mode.label for mode in oracle.modes)}]")
    report = oracle.check()
    for mode in report.modes:
        digests = report.digests[mode.label]
        print(f"  {mode.label:16} {len([d for d in digests if d])} digest(s)")
    if report.ok:
        print("diff: all modes byte-identical")
        return 0

    for divergence in report.divergences:
        print(f"diff: DIVERGENCE {divergence.describe()}", file=sys.stderr)
    first = report.divergences[0]
    point = None
    if not args.no_bisect and first.cell is not None:
        print(f"diff: bisecting {first.cell.exp_id} seed {first.cell.seed} "
              f"({first.mode_a.label} vs {first.mode_b.label})...")
        try:
            point = locate_first_divergence(
                oracle.replayer(first.cell, first.mode_a),
                oracle.replayer(first.cell, first.mode_b),
                first.cell.duration,
            )
        except BisectError as exc:
            print(f"diff: bisection aborted: {exc}", file=sys.stderr)
        if point is not None:
            print(f"diff: first divergent event: scenario "
                  f"{point.scenario_index} seq {point.event_index} "
                  f"at t={point.time} (horizon {point.horizon:.6f}, "
                  f"{point.probes} probes)")
        else:
            print("diff: divergence did not reproduce in-process "
                  "(likely jobs-axis only)", file=sys.stderr)
    payload = experiment_repro(
        first.cell.exp_id, first.cell.seed, first.cell.duration,
        first.cell.warmup, oracle.profile, first, point,
    )
    out = write_repro(args.out, payload)
    print(f"diff: repro written to {out}", file=sys.stderr)
    return 1


def _cmd_fuzz(argv: List[str]) -> int:
    """Run generated scenarios under the mode matrix; exit 1 with a
    shrunk, bisected repro on the first divergence."""
    from repro.verify.diff.fuzz import (
        DEFAULT_CASE_DURATION_S,
        run_fuzz,
        write_repro,
    )
    from repro.verify.diff.modes import default_matrix

    parser = argparse.ArgumentParser(
        prog="macaw-sim fuzz",
        description="Scenario fuzzer: generate random topologies, traffic "
        "mixes and fault schedules, run each under the execution-mode "
        "matrix, and shrink + bisect the first divergence.",
    )
    parser.add_argument("--budget", type=int, default=25,
                        help="number of generated cases (default 25)")
    # Not _add_seeds: a fuzz seed names a case universe and may come
    # from the CI run id.
    parser.add_argument(
        "--seed", default="0", metavar="S|from-run-id",
        help="fuzz universe seed; 'from-run-id' uses $GITHUB_RUN_ID so "
        "every CI run explores a fresh slice",
    )
    _add_horizon(parser, duration=DEFAULT_CASE_DURATION_S, warmup_flag=False)
    _add_matrix(parser, out="fuzz-repro.json")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip greedy shrinking of a failing case")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress lines")
    args = parser.parse_args(argv)

    with _setup():
        try:
            seed = int((os.environ.get("GITHUB_RUN_ID") or "0")
                       if args.seed == "from-run-id" else args.seed)
        except ValueError:
            raise ValueError("--seed must be an integer or 'from-run-id', "
                             f"got {args.seed!r}") from None
        if args.budget < 1:
            raise ValueError(f"--budget must be >= 1, got {args.budget}")
        modes = default_matrix(_queues(args))

    print(f"fuzz: seed {seed}, budget {args.budget}, "
          f"{args.duration}s cases, modes "
          f"[{', '.join(mode.label for mode in modes)}]")
    progress = None if args.quiet else (lambda message: print(f"fuzz: {message}"))
    failure = run_fuzz(
        budget=args.budget, seed=seed, duration=args.duration,
        modes=modes, shrink=not args.no_shrink, progress=progress,
    )
    if failure is None:
        print(f"fuzz: {args.budget} case(s) passed the mode matrix clean")
        return 0

    print(f"fuzz: DIVERGENCE in case {failure.index}: "
          f"{failure.divergence.describe()}", file=sys.stderr)
    print(f"fuzz: shrunk case: {failure.shrunk.describe()}", file=sys.stderr)
    if failure.point is not None:
        print(f"fuzz: first divergent event: seq "
              f"{failure.point.event_index} at t={failure.point.time} "
              f"(horizon {failure.point.horizon:.6f})", file=sys.stderr)
    out = write_repro(args.out, failure.repro)
    print(f"fuzz: repro written to {out}", file=sys.stderr)
    return 1


def _cmd_analyze(argv: List[str]) -> int:
    from repro.verify.analysis.cli import main as analysis_main

    return analysis_main(argv)


#: Subcommand name -> handler; any other first word is the run command.
_COMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "verify-trace": _cmd_verify_trace,
    "chaos": _cmd_chaos,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "diff": _cmd_diff,
    "fuzz": _cmd_fuzz,
}


def main(argv: Optional[List[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    command = _COMMANDS.get(raw[0]) if raw else None
    try:
        return command(raw[1:]) if command is not None else _cmd_run(raw)
    except UsageError as exc:
        _warn(str(exc))
        return 2
    except (WorkerDeath, CellFailure, JournalError) as exc:
        _warn(str(exc))
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
