"""What the benchmark measures: workloads, metrics, bounds and the layer map.

This module is the single source of ``BENCHMARK.json`` (``python3
perfbench/run.py --write-manifest`` regenerates it) and of the per-layer
table the traced run prints.  The manifest carries only the keys its
format allows; the layer -> metric -> workload map that explains *why*
each per-layer number exists lives in :data:`LAYER_MAP`, which every
traced run prints.
"""

from __future__ import annotations

import json
from pathlib import Path

#: The data every workload serves.  Datasets are fixed per workload (only
#: order, hot sets and traffic depend on ``--seed``), because the cost of a
#: MaxRank query is a property of the dataset: two IND datasets drawn with
#: different seeds differ by 2-3x in median query cost, which no affordable
#: sample size averages out.  ``band`` is the dominator-count range whose
#: focals are asked.  ``setups`` is how many times a run sets up; its
#: ``setup_s`` is their median, so the count makes 4-9 s of set-up per run
#: and the median is not left to one short host phase.
WORKLOADS = {
    "whatif-d4": {
        "why": "one analyst, distinct MaxRank queries on IND n=300 d=4: the "
               "quad-tree -> within-leaf generate/screen -> LP path (the "
               "ROADMAP's LP tail)",
        "kind": "whatif",
        "d": 4, "n": 300, "data_seed": 1, "tau": 0,
        "band": (0, 3), "setups": 5,
    },
    "whatif-d3": {
        "why": "same loop at d=3, tau=1 (iMaxRank), larger n: planar "
               "arrangement path with zero LP calls, so LP or within-leaf "
               "changes must not move it",
        "kind": "whatif",
        "d": 3, "n": 1000, "data_seed": 5, "tau": 1,
        "band": (0, 5), "setups": 20,
    },
    "serve-rw": {
        "why": "2 connections to a real serve --listen process with two d=3 "
               "shards: hot/cold reads and 12% writes stress transport, "
               "admission, cache and mutation paths",
        "kind": "serve",
        "d": 3, "n": 1000, "tau": 0,
        "shards": {"east": 21, "north": 22},
        "band": (0, 3), "setups": 9,
        "hot_focals": 6, "cold_reads": 87, "writes": 200, "hot_reads": 1400,
    },
}

#: End-to-end metrics.  Every workload reports every one of them (the
#: what-if loops re-ask an earlier query and insert a dominated record
#: after every query, so hot reads and writes exist there too).
#: ``bound`` is the share of the parent's median by which a metric may
#: worsen before a change counts as a regression.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rss_peak_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "query_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "hot_read_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "write_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "write_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]

#: Per-layer metrics of the traced run (no bound: they explain, not gate).
PER_LAYER = [
    ("index.build_s", "s", "lower"),
    ("index.snapshot_load_s", "s", "lower"),
    ("index.page_reads_per_query", "count", "lower"),
    ("index.insert_ms", "ms", "lower"),
    ("index.delete_ms", "ms", "lower"),
    ("skyline.self_ms", "ms", "lower"),
    ("skyline.updates_per_query", "count", "lower"),
    ("skyline.reused_per_query", "count", "higher"),
    ("quadtree_build.self_ms", "ms", "lower"),
    ("quadtree.nodes_created", "count", "lower"),
    ("quadtree.splits_performed", "count", "lower"),
    ("within_leaf.self_ms", "ms", "lower"),
    ("withinleaf.candidates_generated", "count", "lower"),
    ("withinleaf.prefixes_cut", "count", "higher"),
    ("withinleaf.screen_resolved_ratio", "ratio", "higher"),
    ("lp.calls_per_query", "count", "lower"),
    ("lp.rows_per_call", "count", "lower"),
    ("planar.self_ms", "ms", "lower"),
    ("planar.lines_inserted", "count", "lower"),
    ("planar.faces_enumerated", "count", "lower"),
    ("expansion.self_ms", "ms", "lower"),
    ("collect_level.self_ms", "ms", "lower"),
    ("cells.examined", "count", "lower"),
    ("aa.iterations", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.invalidated", "count", "lower"),
    ("cache.retained", "count", "higher"),
    ("cache.evictions", "count", "lower"),
    ("admission.wait_ms", "ms", "lower"),
    ("admission.coalesced_ratio", "ratio", "higher"),
    ("admission.wave_size_mean", "count", "higher"),
    ("transport.overhead_ms", "ms", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("stages.sum_ratio", "ratio", "higher"),
]

#: layer (module) -> (its per-layer metrics, the end-to-end metric each
#: should move, on which workloads).  Counts are per computed query and
#: ``*.self_ms`` are exclusive span times per computed query.
LAYER_MAP = [
    ("index (index.rstar, index.diskio)",
     ["index.build_s", "index.snapshot_load_s", "index.page_reads_per_query",
      "index.insert_ms", "index.delete_ms"],
     "setup_s (all); write_p90_ms (all, serve-rw first)"),
    ("skyline (skyline.bbs)",
     ["skyline.self_ms", "skyline.updates_per_query", "skyline.reused_per_query"],
     "query_p50_ms (whatif-d3)"),
    ("quadtree (quadtree.quadtree, quadtree.build)",
     ["quadtree_build.self_ms", "quadtree.nodes_created",
      "quadtree.splits_performed"],
     "query_p50_ms (whatif-d4)"),
    ("quadtree.withinleaf",
     ["within_leaf.self_ms", "withinleaf.candidates_generated",
      "withinleaf.prefixes_cut", "withinleaf.screen_resolved_ratio"],
     "query_p90_ms (whatif-d4)"),
    ("geometry.lp / geometry.seidel",
     ["lp.calls_per_query", "lp.rows_per_call"],
     "query_p90_ms (whatif-d4); 0 on whatif-d3"),
    ("geometry.planar",
     ["planar.self_ms", "planar.lines_inserted", "planar.faces_enumerated"],
     "query_p50_ms (whatif-d3); 0 on whatif-d4"),
    ("core (core.aa, core.aa3d, core.cells)",
     ["expansion.self_ms", "collect_level.self_ms", "cells.examined",
      "aa.iterations"],
     "ops_per_s (both whatif)"),
    ("service.cache",
     ["cache.hit_ratio", "cache.invalidated", "cache.retained",
      "cache.evictions"],
     "hot_read_p50_ms, ops_per_s (serve-rw)"),
    ("service.admission",
     ["admission.wait_ms", "admission.coalesced_ratio",
      "admission.wave_size_mean"],
     "query_p90_ms (serve-rw); 0 on whatif"),
    ("service.transport",
     ["transport.overhead_ms"],
     "hot_read_p50_ms (serve-rw); 0 on whatif"),
    ("obs", ["obs.trace_overhead_ratio", "stages.sum_ratio"],
     "none (watch only)"),
]

#: Work counts that must repeat exactly for one seed (determinism canary).
CANARY_COUNTS = ("lp_calls", "candidates_generated", "nodes_created",
                 "lines_inserted")

UNITS = {m["name"]: m["unit"] for m in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [
            {"name": name, "why": spec["why"]}
            for name, spec in WORKLOADS.items()
        ],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def write_manifest(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    return path
