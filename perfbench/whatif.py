"""The ``whatif-*`` workloads: one analyst asking MaxRank questions in process.

A closed loop over :class:`repro.MaxRankService`.  Each step asks one
*cold* query (a focal never asked before, so it is computed), re-asks one
earlier query (a *hot* read, answered from the result cache) and writes:
it inserts a record dominated by every record.  The write exercises
R*-tree maintenance and the scoped cache sweep but can change no answer
(a dominated record never outscores a focal), so the cold queries measure
the compute path alone, cached answers stay valid and focal ids never
shift.

The dataset is fixed per workload and every focal of its dominance band
is asked once; ``--seed`` draws their order, the hot re-asks, the inserted
records and the verified sample.  Drawing 96% of the band instead left a
12% spread in ``query_p50_ms`` between seeds on top of host noise.

Every operation and every set-up is timed with :meth:`HostSpeed.timed`
and reported at the reference host speed by the kernel samples around it
(and, for queries and set-ups, inside it).  A full collection runs before
each step, outside the operations: the long-lived heap (cached answers,
the tree) otherwise made the collector pause for ~0.1 s in a seed-dependent
14% of the queries, right at their p90.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import CostCounters, MaxRankService, generate_independent, maxrank
from repro.errors import ReproError
from repro.obs.trace import Tracer
from repro.service.core import result_fingerprint

from .common import (
    HostSpeed, dominator_counts, p50, ratio, rss_peak_mb, span_self_times,
    stage_table, summary,
)
from .probes import LayerProbes
from .spec import CANARY_COUNTS

WARMUP_FOCALS = 1
VERIFY_SAMPLE = 6


class Setup:
    """Dataset, dominance band and a warm service cold-started from a snapshot."""

    def __init__(self, spec: dict, workdir: Path) -> None:
        self.dataset = generate_independent(spec["n"], spec["d"],
                                            seed=spec["data_seed"])
        dom = dominator_counts(self.dataset.records)
        lo, hi = spec["band"]
        order = np.lexsort((np.arange(len(dom)), dom))
        above = [int(i) for i in order if dom[i] > hi]
        self.warmups = above[:WARMUP_FOCALS]
        self.band_ids = np.flatnonzero((dom >= lo) & (dom <= hi))
        builder = MaxRankService(self.dataset)
        self.build_s = builder.tree_build_seconds
        snapshot = workdir / "whatif.rprs"
        builder.save_snapshot(snapshot)
        builder.close()
        load_start = time.perf_counter()
        self.service = MaxRankService.from_snapshot(snapshot)
        self.load_s = time.perf_counter() - load_start
        for focal in self.warmups:
            self.service.query(focal, tau=spec["tau"])


def _plan(spec: dict, setup: Setup, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    focals = [int(f) for f in rng.permutation(setup.band_ids)]
    steps = len(focals)
    floor = setup.dataset.records.min(axis=0)
    return {
        "focals": focals,
        "hot": [int(rng.integers(0, i + 1)) for i in range(steps)],
        "inserts": floor * rng.uniform(0.0, 1.0, size=(steps, setup.dataset.d)),
        "verify": [int(i) for i in rng.choice(steps, size=VERIFY_SAMPLE,
                                              replace=False)],
    }


class Loop:
    """One pass of the closed loop; records latencies, results and spans.

    ``latency`` holds the measured milliseconds per operation type and
    ``scaled`` the same operations at the reference host speed, each by
    the kernel samples around it (:meth:`HostSpeed.timed`).
    """

    KINDS = ("query", "hot_read", "write")

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = {kind: [] for kind in self.KINDS}
        self.scaled: Dict[str, List[float]] = {kind: [] for kind in self.KINDS}
        #: Seconds of the timed calls (operations and collections), kernel
        #: samples excluded: as measured and at the reference speed.
        self.busy_s = 0.0
        self.busy_scaled_s = 0.0
        self.cold_wall_s: List[float] = []
        self.results: Dict[int, object] = {}
        self.self_s: Dict[str, float] = {}
        self.errors: List[str] = []
        self.wall_s = 0.0
        self.speed = HostSpeed()

    def _timed(self, kind: Optional[str], fn, inside: bool = False):
        result, seconds, scaled = self.speed.timed(fn, inside)
        self.busy_s += seconds
        self.busy_scaled_s += scaled
        if kind:
            self.latency[kind].append(1000.0 * seconds)
            self.scaled[kind].append(1000.0 * scaled)
        return result, seconds

    def run(self, service: MaxRankService, plan: dict, tau: int,
            probes: LayerProbes = None) -> "Loop":
        n0 = service.dataset.n
        start = time.perf_counter()
        for step, focal in enumerate(plan["focals"]):
            # Each query starts with an empty collector, so the collections
            # inside it are set by its own allocations, not by where the
            # previous queries left the collector's counts.  The collection
            # counts towards ops_per_s, not towards any latency.
            self._timed(None, gc.collect)
            try:
                tracer = Tracer() if probes is not None else None
                if probes is not None:
                    probes.tracer = tracer
                # Untraced, the kernel is timed inside the query too; traced,
                # it would land in the spans, so the traced run skips it.
                result, seconds = self._timed(
                    "query", lambda: service.query(focal, tau=tau, tracer=tracer),
                    inside=probes is None)
                if probes is not None:
                    probes.tracer = None
                    for name, self_s in span_self_times(
                        (r.span_id, r.parent_id, r.name, r.elapsed)
                        for r in tracer.records()
                    ).items():
                        self.self_s[name] = self.self_s.get(name, 0.0) + self_s
                self.cold_wall_s.append(seconds)
                self.results[focal] = result

                again = plan["focals"][plan["hot"][step]]
                self._timed("hot_read", lambda: service.query(again, tau=tau))
                new_id, _ = self._timed(
                    "write", lambda: service.insert(plan["inserts"][step]))
                if new_id != n0 + step:
                    self.errors.append(f"insert got id {new_id}, "
                                       f"expected {n0 + step}")
            except ReproError as exc:
                self.errors.append(f"focal {focal}: {type(exc).__name__}: {exc}")
        self.wall_s = time.perf_counter() - start
        return self


def _verify(spec: dict, dataset, loop: Loop, plan: dict) -> List[str]:
    """Standalone ``maxrank()`` over the final records must reproduce a
    seeded sample bit for bit, with the same work counts (the determinism
    canary)."""
    problems = []
    for step in plan["verify"]:
        focal = plan["focals"][step]
        served = loop.results.get(focal)
        if served is None:
            problems.append(f"focal {focal}: no answer to verify")
            continue
        fresh = maxrank(dataset, focal, tau=spec["tau"], counters=CostCounters())
        if result_fingerprint(fresh) != result_fingerprint(served):
            problems.append(f"focal {focal}: answer differs from standalone maxrank()")
        for key in CANARY_COUNTS:
            a, b = getattr(fresh.counters, key), getattr(served.counters, key)
            if a != b:
                problems.append(f"determinism: focal {focal} {key} "
                                f"{b} served vs {a} standalone")
    return problems


def work_counts(loop: Loop) -> Dict[str, int]:
    return {key: sum(int(getattr(r.counters, key)) for r in loop.results.values())
            for key in CANARY_COUNTS}


def run(spec: dict, seed: int, workdir: Path, trace: bool) -> dict:
    setups, setup_speed, setup_s, setup_scaled_s = [], HostSpeed(), [], []
    for _ in range(spec["setups"]):
        if setups:
            setups[-1].service.close()
        setup, seconds, scaled = setup_speed.timed(
            lambda: Setup(spec, workdir), inside=True)
        setups.append(setup)
        setup_s.append(seconds)
        setup_scaled_s.append(scaled)
    plan = _plan(spec, setup, seed)
    loop = Loop().run(setup.service, plan, spec["tau"])
    final = setup.service.dataset
    if final.n != spec["n"] + len(plan["focals"]):
        loop.errors.append(f"served {final.n} records, expected "
                           f"{spec['n'] + len(plan['focals'])}")
    setup.service.close()
    problems = loop.errors + _verify(spec, final, loop, plan)
    attempted = len(plan["focals"]) * 3 + len(plan["verify"])
    ops = sum(len(values) for values in loop.latency.values())
    rss = rss_peak_mb()
    out = {
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "flags": [],
        "work_counts": work_counts(loop),
        "latency": loop.latency,
    }
    if not trace:
        out["metrics"] = summary(loop.scaled, setup_scaled_s, rss,
                                 ops / loop.busy_scaled_s)
        out["raw"] = summary(loop.latency, setup_s, rss, ops / loop.wall_s)
        return out

    traced_setup = Setup(spec, workdir)
    with LayerProbes() as probes:
        traced = Loop().run(traced_setup.service, plan, spec["tau"], probes)
    stats = traced_setup.service.stats()
    traced_setup.service.close()
    out["problems"] += traced.errors
    out["failed"] += len(traced.errors)
    out["metrics"], out["stages"], stage_flags = layer_metrics(
        setups, traced, stats, probes, untraced_busy_s=loop.busy_s)
    out["flags"] += stage_flags
    return out


def layer_metrics(setups, loop: Loop, stats: dict, probes: LayerProbes,
                  untraced_busy_s: float) -> dict:
    queries = len(loop.results)
    total = CostCounters()
    for result in loop.results.values():
        total += result.counters

    def per_query(value: float) -> float:
        return ratio(value, queries)

    def self_ms(name: str) -> float:
        return 1000.0 * per_query(loop.self_s.get(name, 0.0))

    candidates = total.candidates_generated + total.pairwise_pruned
    resolved = total.pairwise_pruned + total.screen_accepts + total.screen_rejects
    sum_ratio, stages, flags = stage_table(loop.self_s, sum(loop.cold_wall_s))
    return {
        "index.build_s": p50([s.build_s for s in setups]),
        "index.snapshot_load_s": p50([s.load_s for s in setups]),
        "index.page_reads_per_query": per_query(total.page_reads),
        "index.insert_ms": probes.rstar_insert.mean_ms,
        "index.delete_ms": probes.delete_ms,
        "skyline.self_ms": self_ms("skyline"),
        "skyline.updates_per_query": per_query(total.skyline_updates),
        "skyline.reused_per_query": per_query(total.skyline_reused),
        "quadtree_build.self_ms": self_ms("quadtree_build"),
        "quadtree.nodes_created": per_query(total.nodes_created),
        "quadtree.splits_performed": per_query(total.splits_performed),
        "within_leaf.self_ms": self_ms("within_leaf"),
        "withinleaf.candidates_generated": per_query(total.candidates_generated),
        "withinleaf.prefixes_cut": per_query(total.prefixes_cut),
        "withinleaf.screen_resolved_ratio": ratio(resolved, candidates),
        "lp.calls_per_query": per_query(total.lp_calls),
        "lp.rows_per_call": ratio(total.lp_constraint_rows, total.lp_calls),
        "planar.self_ms": self_ms("planar"),
        "planar.lines_inserted": per_query(total.lines_inserted),
        "planar.faces_enumerated": per_query(total.faces_enumerated),
        "expansion.self_ms": self_ms("expansion"),
        "collect_level.self_ms": self_ms("collect_level"),
        "cells.examined": per_query(total.cells_examined),
        "aa.iterations": per_query(total.iterations),
        "cache.hit_ratio": ratio(stats["cache_hits"], stats["queries_served"]),
        "cache.invalidated": float(stats["invalidated"]),
        "cache.retained": float(stats["retained"]),
        "cache.evictions": float(stats["cache_evictions"]),
        "admission.wait_ms": 0.0,
        "admission.coalesced_ratio": 0.0,
        "admission.wave_size_mean": 0.0,
        "transport.overhead_ms": 0.0,
        "obs.trace_overhead_ratio": ratio(loop.busy_s, untraced_busy_s),
        "stages.sum_ratio": sum_ratio,
    }, stages, flags
