"""Steadiness self-check: are the end-to-end metrics steady across seeds?

For every workload this runs the benchmark ``runs`` times for each base
seed ``b`` in ``seeds``, with the distinct seeds ``b, b+1, ..., b+runs-1``
(a different focal draw and traffic order in every run), one run at a
time in a subprocess, alternating between the groups.  It then prints, per metric:

* the median and the quartile spread ``(Q3 - Q1) / median`` of each seed
  group, against the metric's bound and a third of it;
* how far the second group's median moved from the first's, in the
  metric's "worse" direction, against the bound.

It finally reruns the first seed of the first group and requires the
what-if work counts (LP calls, candidates, quad-tree nodes, planar lines)
to repeat exactly - a mismatch is a determinism failure, not noise.

Exit status 1 when a spread or a median shift exceeds its bound, a run
was incorrect, or the canary failed.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .spec import END_TO_END, WORKLOADS

RUN_TIMEOUT_S = 600


def _one(root: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    counts = re.search(r"work-counts: (\{.*\})", proc.stderr)
    result["work_counts"] = json.loads(counts.group(1)) if counts else {}
    result["flags"] = [line.strip() for line in proc.stderr.splitlines()
                       if line.strip().startswith("FLAG")]
    result["returncode"] = proc.returncode
    return result


def spread(values: List[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def steady(root: Path, runs: int, seeds: List[int],
           only: Optional[List[str]] = None) -> int:
    ok = True
    for workload in only or list(WORKLOADS):
        # Interleave the groups (A, B, A+1, B+1, ...) so a slow host phase
        # falls on both of them instead of shifting one group's median.
        groups: Dict[int, List[dict]] = {base: [] for base in seeds}
        for offset in range(runs):
            for base in seeds:
                seed = base + offset
                result = _one(root, workload, seed)
                groups[base].append(result)
                values = {k: round(v["value"], 4)
                          for k, v in result["metrics"].items()}
                print(f"{workload} seed={seed} correct={result['correct']} "
                      f"{json.dumps(values)}", flush=True)
                for flag in result["flags"]:
                    print(f"  {flag}", flush=True)
                if not result["correct"] or result["returncode"] != 0:
                    ok = False
        print(f"\n{workload}: {runs} runs per seed group, groups {seeds}")
        print(f"  {'metric':18s} {'seeds':>6s} {'median':>11s} {'spread':>7s} "
              f"{'bound/3':>7s} {'bound':>6s} {'shift':>7s}  verdict")
        for metric in END_TO_END:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            first_median = None
            for base in seeds:
                values = [r["metrics"][name]["value"] for r in groups[base]
                          if name in r["metrics"]]
                if len(values) < 2:
                    print(f"  {name:18s} {base:>6d} missing")
                    ok = False
                    continue
                median = statistics.median(values)
                if first_median is None:
                    first_median = median
                s = spread(values)
                shift = sign * (median - first_median) / first_median
                if s > bound:
                    verdict = "SPREAD > bound"
                elif shift > bound:
                    verdict = "SHIFT > bound"
                elif s > bound / 3:
                    verdict = "spread > bound/3"
                else:
                    verdict = "ok"
                ok = ok and verdict in ("ok", "spread > bound/3")
                print(f"  {name:18s} {base:>6d} {median:11.4g} {s:7.3f} "
                      f"{bound / 3:7.3f} {bound:6.2f} {shift:+7.3f}  {verdict}")
        first = groups[seeds[0]][0]
        if first["work_counts"]:
            again = _one(root, workload, seeds[0])
            same = again["work_counts"] == first["work_counts"]
            print(f"  determinism canary (seed {seeds[0]} twice): "
                  f"{'identical' if same else 'MISMATCH'} {first['work_counts']}"
                  + ("" if same else f" vs {again['work_counts']}"))
            ok = ok and same
        print(flush=True)
    print("steady: OK" if ok else "steady: FAILED")
    return 0 if ok else 1
