"""Command-line driver: ``python -m repro.verify.analysis`` and
``macaw-sim analyze``.

Exit codes: 0 clean (modulo baseline), 1 at least one non-baselined
finding, 2 usage errors.  ``--update-baseline`` rewrites the committed
inventory from the current run (adds new findings, prunes stale
entries).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.verify.analysis.baseline import Baseline, apply_baseline
from repro.verify.analysis.engine import analyze_paths, collect_files
from repro.verify.analysis.fixes import fix_paths
from repro.verify.analysis.output import (
    render_json,
    render_sarif,
    render_text,
    summary_line,
)
from repro.verify.analysis.registry import all_rules, get_rules

__all__ = ["main", "DEFAULT_BASELINE"]

#: The committed whole-tree baseline (relative to the repo root).
DEFAULT_BASELINE = Path("benchmarks/ANALYSIS_baseline.json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.analysis",
        description="Layer-aware static analysis for the MACAW repro tree.",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to analyze")
    parser.add_argument("--rules", default=None, metavar="CODES",
                        help="comma-separated rule codes (default: all)")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json", "sarif"),
                        help="output format (default: text)")
    parser.add_argument("--output", type=Path, default=None, metavar="FILE",
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--baseline", type=Path, default=None, metavar="FILE",
                        help=f"baseline file (default: {DEFAULT_BASELINE}"
                             " when it exists)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from this run and exit 0")
    parser.add_argument("--fix", action="store_true",
                        help="apply mechanically-safe fixes (unused imports,"
                             " stale pragmas) and re-report")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    return parser


def _resolve_baseline(args: argparse.Namespace) -> Optional[Path]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return args.baseline
    return DEFAULT_BASELINE if DEFAULT_BASELINE.exists() else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return 0

    if not args.paths:
        print("usage: python -m repro.verify.analysis PATH [PATH...]",
              file=sys.stderr)
        return 2
    missing = [p for p in args.paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2

    try:
        codes = ([c.strip() for c in args.rules.split(",") if c.strip()]
                 if args.rules else None)
        rules = get_rules(codes)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    run = analyze_paths(args.paths, rules=rules)

    if args.fix:
        files = collect_files(args.paths)
        outcomes = fix_paths(files, run.files, run.index)
        changed = [o for o in outcomes if o.changed]
        for outcome in changed:
            details = []
            if outcome.removed_imports:
                details.append(f"{outcome.removed_imports} unused import(s)")
            if outcome.removed_pragmas:
                details.append(f"{outcome.removed_pragmas} stale pragma(s)")
            print(f"fixed {outcome.path}: {', '.join(details) or 'rewritten'}")
        if changed:
            # Re-analyze so the report reflects the fixed tree.
            run = analyze_paths(args.paths, rules=rules)

    pairs = run.fingerprints
    baseline_path = _resolve_baseline(args)

    if args.update_baseline:
        target = baseline_path or DEFAULT_BASELINE
        target.parent.mkdir(parents=True, exist_ok=True)
        Baseline.from_findings(pairs).save(target)
        print(f"baseline updated: {target} ({len(pairs)} finding(s))")
        return 0

    baseline = Baseline.load(baseline_path) if baseline_path else Baseline()
    delta = apply_baseline(pairs, baseline)

    if args.fmt == "text":
        report = render_text([f for f, _ in delta.new])
    elif args.fmt == "json":
        report = render_json(delta.new, stale_baseline=delta.stale)
    else:
        report = render_sarif(delta.new, rules, baselined=delta.baselined)

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)

    notes: List[str] = []
    if delta.baselined:
        notes.append(f"{len(delta.baselined)} baselined finding(s) hidden")
    if delta.stale:
        notes.append(
            f"{len(delta.stale)} stale baseline entr(y/ies) — run"
            " --update-baseline to prune"
        )
    if args.output is not None and delta.new:
        notes.append(summary_line([f for f, _ in delta.new]))
    for note in notes:
        print(f"note: {note}", file=sys.stderr)

    return 1 if delta.new else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
