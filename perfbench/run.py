"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0

``--trace 0`` times plain runs in a closed loop for ``--seconds`` and
prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1`` alternates
plain runs with span runs (see spans.py) and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers for people, plus the checks that are printed but not
counted.  ``--tiny`` shrinks every workload for the smoke test;
``--write-reference`` re-records reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from workloads import (
    HERE, REFERENCE_SEED, ROOT, SWEEP_JOBS, WORKLOADS, Op, Workload, bootstrap,
    output_problems, paper_err, run_op,
)

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 9
#: Fewest timed operations a run measures.
MIN_OPS = 3


@dataclass
class Outcome:
    metrics: Dict[str, float]
    ops: List[Op]
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


def closed_loop(op: Callable[[int], Op], seconds: float, min_ops: int) -> List[Op]:
    """Run ``op(i)`` back to back for ``seconds`` (and at least ``min_ops`` times)."""
    ops: List[Op] = []
    end = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < end:
        ops.append(op(len(ops)))
    return ops


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus its largest finished child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def setup_probe(w: Workload, seed: int, probe_dir: Path, tiny: bool) -> float:
    """Seconds from a fresh interpreter to the first simulated event."""
    start = time.perf_counter()
    cmd = [sys.executable, str(HERE / "setup_probe.py"), w.name, str(seed),
           str(probe_dir), repr(start)] + (["--tiny"] if tiny else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        line = proc.stdout.readline()  # type: ignore[union-attr]
    finally:
        # A sweep's probe leaves its orchestrator and workers running.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.stdout.close()  # type: ignore[union-attr]
        proc.wait()
    shutil.rmtree(probe_dir, ignore_errors=True)
    if not line.strip():
        raise RuntimeError(f"setup probe for {w.name} printed nothing")
    return float(line)


def plain_run(w: Workload, seed: int, seconds: float, workdir: Path,
              tiny: bool) -> Outcome:
    """End-to-end metrics from timed operations.

    The only probe in the timed loop counts kernel events at the boundary
    of ``Simulator.run`` (one call per scenario run, nothing per event).
    A sweep's events fire in its forked workers, out of the probe's
    sight, so they are counted by running the same cells inline after the
    timed loop.  Rates are totals over the whole timed section, so a run
    averages over the host's slow and fast spells instead of picking one.
    """
    from spans import EventCounter

    inputs = w.inputs(seed)
    setups: List[float] = []

    def counted(index: int, jobs: int = SWEEP_JOBS) -> Op:
        with EventCounter() as counter:
            op = run_op(w, inputs[index % len(inputs)], workdir, jobs)
        op.events_fired = counter.events_fired
        return op

    def timed_op(index: int) -> Op:
        op = counted(index)
        # Set-up probes sit between timed operations (outside their
        # timing) so they, too, sample the whole run.
        if len(setups) < SETUP_PROBES:
            setups.append(setup_probe(w, inputs[0], workdir / "probe", tiny))
        return op

    # The first operation of a process pays lazy imports and first calls
    # (past setup_s's first event); it is not timed.
    untimed = [] if w.is_sweep else [counted(0)]
    timed = closed_loop(timed_op, seconds, max(MIN_OPS, len(inputs)))
    rss = peak_rss_mb(with_children=w.is_sweep)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(w, inputs[0], workdir / "probe", tiny))
    if w.is_sweep:
        # After the timed loop, so the orchestrator's RSS stays its own;
        # the inline cells' digests must also match the workers'.
        untimed = [counted(0, jobs=1)]
        for op in timed:
            op.events_fired = untimed[0].events_fired
    done = [op for op in timed if not op.failed]
    if not done:
        raise RuntimeError(f"every {w.name} operation failed: {timed[0].error}")
    simulating_s = sum(op.cold_s for op in done)
    tables = {op.seed: op.tables for op in done}
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(op.wall_s for op in timed) / len(timed),
        "events_per_s": sum(op.events_fired for op in done) / simulating_s,
        "cells_per_s": sum(op.cells for op in done) / simulating_s,
        "peak_rss_mb": rss,
    }
    error = paper_err([t for per_seed in tables.values() for t in per_seed])
    notes = [f"{len(timed)} timed operations over seeds {sorted(tables)}; "
             f"kernel events per operation "
             f"{statistics.median(op.events_fired for op in done):g} (median)",
             f"paper_err {error:.6g} frac over those seeds (printed, not bounded)"]
    if not w.is_sweep:
        notes.append(f"first operation of the process (untimed): "
                     f"{untimed[0].wall_s:.3f} s")
    ops = untimed + timed
    return Outcome(metrics, ops, output_problems(ops), notes)


def layer_metrics(op: Op, run: Any) -> Dict[str, float]:
    """Per-layer metrics of one span run."""
    from repro.mac.frames import FrameType
    from spans import LAYERS

    rec, wall = run.rec, op.wall_s
    calls, inclusive = rec.calls, rec.inclusive_s
    scenarios = run.scenarios
    macs = [st.mac for sc in scenarios for st in sc.stations.values()]
    streams = [s.counters() for sc in scenarios for s in sc.streams.values()]
    rts = sum(mac.stats.sent_of(FrameType.RTS) for mac in macs)
    cts_timeouts = sum(mac.stats.cts_timeouts for mac in macs)
    clean = sum(sc.medium.clean_deliveries for sc in scenarios)
    receptions = clean + sum(sc.medium.corrupt_deliveries for sc in scenarios)
    offered = sum(c["offered"] for c in streams)
    scheduled = (calls["Simulator.at"] + calls["Simulator.schedule"]
                 + calls["Simulator.reschedule"])
    transmits = calls["Medium.transmit"]
    delivered = calls["FlowRecorder.record"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = rec.self_s.get(layer, 0.0)
        m[f"{layer}.share"] = ratio(m[f"{layer}.self_s"], wall)
    m.update({
        "instrumentation.share": ratio(rec.instrumentation_s, wall),
        "unattributed.share": ratio(wall - rec.covered_s, wall),
        "sim.events_fired": run.events_fired,
        "sim.scheduled": scheduled,
        "sim.cancel_frac": ratio(run.cancelled, scheduled),
        "queues.push_calls": calls["HeapQueue.push"] + calls["WheelQueue.push"],
        "queues.peak_pending": run.peak_pending,
        "core.on_frame_calls": calls["MacawMac.on_frame"],
        "core.rts_success_frac": ratio(rts - cts_timeouts, rts),
        "core.cts_timeouts": cts_timeouts,
        "mac.send_frame_calls": calls["BaseMac.send_frame"],
        "mac.drops": sum(mac.stats.drops for mac in macs),
        "phy.transmit_calls": transmits,
        "phy.receptions_per_tx": ratio(receptions, transmits),
        "phy.clean_frac": ratio(clean, receptions),
        "net.delivered": delivered,
        "net.delivered_frac": ratio(delivered, offered),
        "net.tcp_retransmissions": sum(c.get("retransmissions", 0) for c in streams),
        "trace.records": sum(len(sc.sim.trace) for sc in scenarios),
        "trace.digest_s": inclusive["Trace.digest"],
        "verify.records_checked": run.records_checked,
        "obs.samples": sum(sc.metrics.sampler.samples_taken
                           for sc in scenarios if sc.metrics is not None),
        "fault.injected": sum(sum(sc.fault_injector.injected.values())
                              for sc in scenarios if sc.fault_injector is not None),
        "runner.execute_cell_s": op.execute_cell_s,
        "runner.cache_get_s": inclusive["ResultCache.get"],
        "runner.cache_put_s": inclusive["ResultCache.put"],
        "runner.cache_hit_frac": op.cache_hit_frac,
        "service.wait_s": inclusive["CellScheduler.reap"],
        "service.journal_append_s": inclusive["Journal.append"],
        "service.journal_appends": calls["Journal.append"],
        "service.resume_s": op.resume_s,
        "service.worker_retries": op.worker_retries,
        "topo.build_s": inclusive["ScenarioBuilder.build"],
        "experiments.paper_err": paper_err(op.tables) if op.tables else 0.0,
    })
    return m


def span_run(w: Workload, seed: int, seconds: float, workdir: Path,
             units: Dict[str, str], coverage: List[str]) -> Outcome:
    """Per-layer metrics: span runs alternated with plain runs."""
    from spans import SpanRun

    seed = w.inputs(seed)[0]
    warm = run_op(w, seed, workdir)
    plain: List[Op] = []
    spanned: List[Op] = []
    layers: List[Dict[str, float]] = []
    end = time.perf_counter() + seconds
    while not layers or time.perf_counter() < end:
        plain.append(run_op(w, seed, workdir))
        run = SpanRun(parent_side_only=w.is_sweep)
        with run:
            op = run_op(w, seed, workdir)
        spanned.append(op)
        layers.append(layer_metrics(op, run))
        del run  # frees the span run's scenarios (and their traces)
    ops = [warm] + plain + spanned
    problems = output_problems(ops)
    metrics: Dict[str, float] = {}
    for name in units:
        if name == "span_overhead":
            continue
        values = [m[name] for m in layers]
        if units[name] != "count":
            metrics[name] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            problems.append(f"{name} differs between span runs: {values}")
            metrics[name] = max(values)
    metrics["span_overhead"] = (statistics.median(o.wall_s for o in spanned)
                                / statistics.median(o.wall_s for o in plain))
    missing = [name for name in coverage if not metrics[name] > 0]
    if missing:
        problems.append(f"layer coverage: zero on {w.name}: {', '.join(missing)}")
    wall = statistics.median(o.wall_s for o in spanned)
    accounted = sum(value for name, value in metrics.items()
                    if name.endswith(".share"))
    notes = [
        f"{len(spanned)} span runs, {len(plain)} plain runs",
        f"self-time accounting: layer shares + instrumentation.share + "
        f"unattributed.share = "
        f"{accounted:.4f} of a {wall:.3f} s span-run wall",
        f"layer coverage: {len(coverage) - len(missing)} of {len(coverage)} "
        f"required layer metrics non-zero",
    ]
    return Outcome(metrics, ops, problems, notes)


def reference_of(w: Workload, workdir: Path) -> Dict[str, Any]:
    """Simulated statistics at the reference seed: kernel events fired and
    the trace digest (a sweep: its digest set)."""
    from spans import EventCounter

    with EventCounter() as counter:
        op = run_op(w, REFERENCE_SEED, workdir, jobs=1, collect_digest=True)
    if op.failed:
        raise RuntimeError(f"{w.name} failed at the reference seed: {op.error}")
    digest = op.digest_set if w.is_sweep else op.digests[0]
    return {"seed": REFERENCE_SEED, "events_fired": counter.events_fired,
            "digest": digest}


def load_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.workload and not args.write_reference:
        parser.error("--workload is required")
    bootstrap()
    spec = load_json(ROOT / "BENCHMARK.json")
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            refs = {name: reference_of(w, workdir) for name, w in WORKLOADS.items()}
            with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
                json.dump(refs, handle, indent=2, sort_keys=True)
                handle.write("\n")
            return 0
        w = WORKLOADS[args.workload]
        if args.tiny:
            w = w.tiny()
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if args.trace:
            coverage = load_json(HERE / "layers.json")["coverage"][w.name]
            outcome = span_run(w, args.seed, args.seconds, workdir, units, coverage)
            if not args.tiny:
                stored = load_json(HERE / "reference.json")[w.name]
                found = reference_of(w, workdir)
                outcome.notes.append(
                    f"reference at seed {REFERENCE_SEED}: events_fired "
                    f"{found['events_fired']} (stored {stored['events_fired']}), "
                    f"digest {found['digest'][:16]} (stored {stored['digest'][:16]}): "
                    f"{'identical' if found == stored else 'DIFFERENT'} "
                    "(printed, not counted)")
        else:
            outcome = plain_run(w, args.seed, args.seconds, workdir, args.tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(op.cells for op in outcome.ops)
    failed = sum(op.failed for op in outcome.ops)
    print(f"workload {w.name}: {w.experiment}, horizon {w.duration:g} s, "
          f"seed {args.seed}, closed loop, 1 caller")
    for note in outcome.notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:28s} {outcome.metrics[name]:.6g} {unit}")
    print(f"  {'failed_frac':28s} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for name, ok in outcome.ops[0].checks.items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {name} (qualitative, not counted)")
    for problem in outcome.problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
