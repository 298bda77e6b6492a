#!/usr/bin/env python3
"""The repository benchmark: one workload per run, answers checked, metrics printed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload whatif-d4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-rw --seed 1 --trace 1
    python3 perfbench/run.py --steady [--runs 5] [--seeds 1,101]
    python3 perfbench/run.py --write-manifest

A run drives the program only through its public API (``MaxRankService``,
``maxrank()``, ``RStarTree`` and the ``serve --listen`` front), measures a
fixed number of operations (``--seconds`` is accepted for callers that
pass a time budget, but never shortens a run: a fixed count keeps runs
comparable), verifies a
seeded sample of answers against standalone ``maxrank()``, prints a
human-readable table on stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the loop untraced and
then traced, and reports the per-layer metrics.

``--steady`` is the self-check: it runs every workload several times under
two seeds and prints each end-to-end metric's quartile spread against its
bound, plus the determinism canary (identical work counts for one seed).

Scratch files (snapshots) go to ``.perfbench_work/`` in the checkout and
are removed when the run ends.  The exit code is 0 when every answer was
correct, 1 when some answer was wrong, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))
    __package__ = "perfbench"


def _require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))


def run_workload(name: str, seed: int, trace: bool) -> dict:
    from . import serve_rw, whatif
    from .spec import WORKLOADS

    spec = WORKLOADS[name]
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if spec["kind"] == "whatif":
            return whatif.run(spec, seed, workdir, trace)
        return serve_rw.run(spec, seed, ROOT, workdir, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def report(name: str, seed: int, out: dict) -> dict:
    """Print the human table on stderr; return the result document."""
    from .common import GLUE_SPANS, mode_flags
    from .spec import LAYER_MAP, UNITS

    err = sys.stderr
    print(f"== {name} seed={seed}  attempted={out['attempted']} "
          f"failed={out['failed']} "
          f"failed_ratio={out['failed'] / out['attempted']:.4f}", file=err)
    for kind, values in out["latency"].items():
        if values:
            q = statistics.quantiles(values, n=10, method="inclusive")
            print(f"   {kind:9s} n={len(values):4d} ms p10={q[0]:.3g} "
                  f"p25={statistics.quantiles(values, n=4)[0]:.3g} "
                  f"p50={statistics.median(values):.3g} p75="
                  f"{statistics.quantiles(values, n=4)[2]:.3g} p90={q[8]:.3g} "
                  f"max={max(values):.3g}", file=err)
    raw = out.get("raw", {})
    for key, value in out["metrics"].items():
        scale = f"  (raw {raw[key]:.6g})" if key in raw else ""
        print(f"   {key:36s} {value:14.6g} {UNITS[key]}{scale}", file=err)
    if "stages" in out:
        stages = out["stages"]
        print(f"   stage self time / client wall of traced requests "
              f"({stages['wall_s']:.3f} s):", file=err)
        for stage, share in sorted(stages["shares"].items(), key=lambda kv: -kv[1]):
            glue = "  (glue, unattributed)" if stage in GLUE_SPANS else ""
            print(f"     {stage:30s} {share:8.4f}{glue}", file=err)
        print(f"     {'unattributed':30s} {stages['unattributed']:8.4f}", file=err)
        print("   layer -> metrics -> end-to-end metric they should move:", file=err)
        for layer, metrics, target in LAYER_MAP:
            print(f"     {layer}: {', '.join(metrics)} -> {target}", file=err)
    for flag in out["flags"] + mode_flags(out["latency"]):
        print(f"   FLAG {flag}", file=err)
    for problem in out["problems"]:
        print(f"   FAIL {problem}", file=err)
    if out["work_counts"]:
        print(f"   work-counts: {json.dumps(out['work_counts'], sort_keys=True)}",
              file=err)
    return {
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {key: {"value": float(value), "unit": UNITS[key]}
                    for key, value in out["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted and ignored: runs have a fixed "
                             "operation count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true",
                        help="repeat every workload under two seeds and print "
                             "spreads against bounds")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per seed in --steady mode (default 5)")
    parser.add_argument("--seeds", default="1,101",
                        help="comma-separated seeds for --steady")
    parser.add_argument("--only", default=None,
                        help="comma-separated workloads for --steady")
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json from perfbench/spec.py")
    args = parser.parse_args(argv)

    if args.write_manifest:
        from .spec import write_manifest
        print(write_manifest(ROOT))
        return 0
    _require_program()
    if args.steady:
        from .steady import steady
        return steady(ROOT, args.runs, [int(s) for s in args.seeds.split(",")],
                      args.only.split(",") if args.only else None)

    from .spec import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    out = run_workload(args.workload, args.seed, bool(args.trace))
    result = report(args.workload, args.seed, out)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
