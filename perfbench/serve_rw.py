"""The ``serve-rw`` workload: read/write traffic against a real TCP server.

The load generator boots ``python -m repro.service serve --listen`` as a
subprocess over two d = 3 shards cold-started from snapshots, then drives
it with two connections (one per core), each a closed loop: one analyst
per shard, so the write order of a shard is the order its connection sent
and the generator's own copy of the records stays exact.

Each connection sends a seeded, shuffled mix of

* *hot* reads - Zipf-skewed repeats over a few focals, mostly cache hits;
* *cold* reads - focals never asked before, so they are computed;
* *writes* (about 12%) - alternating ``insert`` / ``delete``, where every
  delete removes the record the connection inserted just before, so focal
  ids never shift.  One insert in 25 lands just above a hot focal and
  invalidates cached hot answers; the others land below every record, so
  they change no answer and every cached answer survives them.  (Records
  below the hot focals only were incomparable to a seed-dependent share of
  the cached cold answers, whose invalidation checks then set the write
  latency: ``write_p90_ms`` moved 3x between seeds.)

The server runs two admission slots and the shard names hash to different
ones, so each connection has its own slot; the connections contend only
for the server's interpreter lock and transport.  A run whose shards share
a slot is flagged.  The server is pinned to one CPU and the load generator
to the other (see ``SERVER_CPUS``).

Both connections follow one shared, seeded sequence of operation types.
Hot reads run freely on both connections at once.  Cold reads and writes
take turns: at each one the connections meet, connection 0 sends its
request, then connection 1, then connection 0 times the host-speed kernel
(:class:`HostSpeed`), and they meet again before the next hot read.
Which operations overlap is then part of the workload, not chance: free
running, a write's latency depended on whether the other connection
happened to be computing, and its median moved by 2x between seeds; in
lock-step rounds, two computations shared the server's interpreter lock
and each one's latency held part of the other's.

The datasets and the hot focals are fixed; ``--seed`` draws the cold focals
(from the rest of the dominance band), the hot focals' Zipf ranks, where
the hot reads fall between the turns and the inserted records.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro import CostCounters, Dataset, MaxRankService, generate_independent, maxrank
from repro.index.rstar import RStarTree

from .common import (
    SPEED_SAMPLES, HostSpeed, dominator_counts, p50, ratio, rss_peak_mb,
    span_self_times, stage_table, stratified_draw, summary,
)
from .probes import LayerProbes

WARMUP_FOCALS = 1
VERIFY_COLD = 4
ZIPF_S = 1.2
#: One insert in this many lands just above a hot focal.  Such a record
#: invalidates every cached hot answer it is incomparable to, so a higher
#: rate turns hot reads into computed reads.
ABOVE_EVERY = 25
#: Seed of the hot-focal draw, fixed so that every run has the same hot set.
HOT_DRAW_SEED = 0
IO_TIMEOUT_S = 60.0
SLOTS = 2
#: The server runs on the last CPU this process may use and the load
#: generator on the others; the host-speed kernel is timed on the server's
#: CPU.  Unpinned, a kernel timed in the load generator missed the server's
#: slowdowns: in one run on the 2-core VM the cold reads were 1.5x slower
#: than in other runs of the same seed, the kernel 9% slower.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = set(_CPUS[-1:])
CLIENT_CPUS = set(_CPUS[:-1]) or SERVER_CPUS


def _sample_speed(speed: HostSpeed) -> None:
    """Time the host-speed kernel on the server's CPU (calling thread only).

    The first kernel after the move to that CPU ran 2-3x slower than the
    next ones (346-469 us against ~150 us), so it is run untimed.
    """
    os.sched_setaffinity(0, SERVER_CPUS)
    try:
        speed.sample(SPEED_SAMPLES, discard=1)
    finally:
        os.sched_setaffinity(0, CLIENT_CPUS)


class Shard:
    """One shard's data, band and snapshot (rebuilt at every set-up)."""

    def __init__(self, name: str, data_seed: int, spec: dict, workdir: Path):
        self.name = name
        self.dataset = generate_independent(spec["n"], spec["d"], seed=data_seed)
        dom = dominator_counts(self.dataset.records)
        lo, hi = spec["band"]
        order = np.lexsort((np.arange(len(dom)), dom))
        self.warmups = [int(i) for i in order if dom[i] > hi][:WARMUP_FOCALS]
        in_band = (dom >= lo) & (dom <= hi)
        self.band_ids = np.flatnonzero(in_band)
        self.band_strata = dom[in_band]
        builder = MaxRankService(self.dataset, name=name)
        self.build_s = builder.tree_build_seconds
        self.snapshot = workdir / f"{name}.rprs"
        builder.save_snapshot(self.snapshot)
        builder.close()


class Client:
    """One newline-JSON connection to the server."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=IO_TIMEOUT_S)
        self.file = self.sock.makefile("rwb")
        greeting = json.loads(self.file.readline())
        if not greeting.get("ready"):
            raise RuntimeError(f"unexpected greeting {greeting}")

    def ask(self, payload: dict) -> Tuple[dict, float]:
        line = (json.dumps(payload) + "\n").encode()
        start = self.started = time.perf_counter()
        self.file.write(line)
        self.file.flush()
        reply = self.file.readline()
        elapsed = time.perf_counter() - start
        if not reply:
            raise RuntimeError("server closed the connection")
        return json.loads(reply), elapsed

    def close(self) -> None:
        try:
            self.file.close()
        finally:
            self.sock.close()


class Server:
    """The ``serve --listen`` subprocess; always reaped by :meth:`stop`."""

    def __init__(self, root: Path, shards: Dict[str, Shard]) -> None:
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        argv = [sys.executable, "-m", "repro.service", "serve",
                "--listen", "127.0.0.1:0", "--slots", str(SLOTS)]
        for name, shard in shards.items():
            argv += ["--shard", f"{name}={shard.snapshot}"]
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS),
        )
        try:
            ready = json.loads(self.proc.stdout.readline())
            self.port = int(ready["listening"][1])
        except (ValueError, KeyError, TypeError) as exc:
            self.stop()
            raise RuntimeError(f"server failed to start: {exc}") from exc

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Boot:
    """One set-up: shard data + snapshots, a server, warm connections."""

    def __init__(self, spec: dict, root: Path, workdir: Path) -> None:
        start = self.started = time.perf_counter()
        self.shards = {name: Shard(name, seed, spec, workdir)
                       for name, seed in spec["shards"].items()}
        self.server = Server(root, self.shards)
        self.clients: Dict[str, Client] = {}
        try:
            for name, shard in self.shards.items():
                client = self.clients[name] = Client(self.server.port)
                for focal in shard.warmups:
                    reply, _ = client.ask({"dataset": name, "focal": focal,
                                           "tau": spec["tau"]})
                    if "k_star" not in reply:
                        raise RuntimeError(f"warm-up failed: {reply}")
        except BaseException:
            self.stop()
            raise
        self.seconds = time.perf_counter() - start

    def stop(self) -> None:
        for client in self.clients.values():
            client.close()
        self.server.stop()


def _kinds(spec: dict, rng: np.random.Generator) -> List[str]:
    """The shared sequence of operation types.

    The cold reads and writes ("turns") follow one fixed order, the writes
    spread evenly among the cold reads; the seed spreads the hot reads over
    the gaps between turns.  A write right after another write cost about
    twice one right after a cold read (5-6 ms against 2.5-3.5 ms), so with
    a shuffled order the share of such pairs set ``write_p50_ms``, which
    sat between the two modes and moved by a quarter between seeds.
    """
    turns = spec["cold_reads"] + spec["writes"]
    order = ["write" if (i + 1) * spec["writes"] // turns
             > i * spec["writes"] // turns else "cold" for i in range(turns)]
    gaps = rng.multinomial(spec["hot_reads"], [1.0 / (turns + 1)] * (turns + 1))
    kinds: List[str] = []
    for gap, turn in zip(gaps, order + [None]):
        kinds += ["hot"] * int(gap)
        if turn is not None:
            kinds.append(turn)
    return kinds


def _plan(spec: dict, shard: Shard, kinds: List[str],
          rng: np.random.Generator) -> dict:
    """One connection's seeded op list over its shard.

    The hot focals are the same for every seed (a stratified draw under
    :data:`HOT_DRAW_SEED`); the seed ranks them for the Zipf weights and
    draws the cold focals from the rest of the band.  Each hot answer is
    computed at its first read and again after each insert above a hot
    focal, so a seeded hot set of 6 heavy-tailed costs moved the total
    work, and ``ops_per_s``, between seeds.  The inserts above hot focals
    take the hot focals in turn, for the same reason.
    """
    hot = sorted(stratified_draw(shard.band_strata, shard.band_ids,
                                 spec["hot_focals"],
                                 np.random.default_rng(HOT_DRAW_SEED)))
    rest = ~np.isin(shard.band_ids, hot)
    cold = stratified_draw(shard.band_strata[rest], shard.band_ids[rest],
                           spec["cold_reads"], rng)
    ranked = [int(f) for f in rng.permutation(hot)]
    weights = 1.0 / np.arange(1, len(ranked) + 1) ** ZIPF_S
    hot_picks = rng.choice(ranked, size=spec["hot_reads"],
                           p=weights / weights.sum())
    records = shard.dataset.records
    floor = records.min(axis=0)
    hot_iter, cold_iter = iter(int(f) for f in hot_picks), iter(cold)
    ops, writes = [], 0
    for kind in kinds:
        if kind == "hot":
            ops.append(("hot", next(hot_iter)))
        elif kind == "cold":
            ops.append(("cold", next(cold_iter)))
        elif writes % 2:
            ops.append(("delete", None))
            writes += 1
        else:
            if writes // 2 % ABOVE_EVERY == 0:
                base = records[hot[writes // 2 // ABOVE_EVERY % len(hot)]]
                point = base + (1.0 - base) * rng.uniform(0.002, 0.01, base.shape)
            else:
                point = floor * rng.uniform(0.0, 1.0, floor.shape)
            ops.append(("insert", point))
            writes += 1
    return {"ops": ops, "hot": hot, "cold": cold,
            "verify_cold": [int(f) for f in rng.choice(cold, size=VERIFY_COLD,
                                                       replace=False)]}


class Connection:
    """Runs one plan on one client, mirroring writes into a record copy."""

    def __init__(self, shard: Shard, client: Client, plan: dict, tau: int,
                 traced: bool, speed: HostSpeed) -> None:
        self.shard, self.client, self.plan = shard, client, plan
        self.tau, self.traced, self.speed = tau, traced, speed
        self.records = shard.dataset.records.copy()
        self.latency: Dict[str, List[float]] = {"query": [], "hot_read": [],
                                                "write": []}
        #: (start stamp, seconds) of each operation, in ``latency`` order.
        self.spans: Dict[str, List[Tuple[float, float]]] = {
            kind: [] for kind in self.latency}
        self.writes: List[Tuple[str, object, int]] = []
        self.traces: List[Tuple[float, dict]] = []
        self.errors: List[str] = []

    def run(self, index: int, start: threading.Barrier,
            step: threading.Barrier) -> None:
        start.wait()
        for kind, arg in self.plan["ops"]:
            if kind == "hot":
                self._do(kind, arg)
                continue
            # Cold reads and writes take turns (connection 0, then 1, ...).
            # Then, with no request in flight anywhere, connection 0 times
            # the host-speed kernel (a kernel running next to the server's
            # work ran ~2x slower on the 2-core VM, so it measured the
            # program, not the host).  Hot reads resume together after the
            # last turn, so no computation or write overlaps another request.
            parties = step.parties
            for turn in range(parties + 2):
                try:
                    step.wait(timeout=IO_TIMEOUT_S)
                except threading.BrokenBarrierError:
                    self.errors.append(f"{self.shard.name}: the other "
                                       "connection stopped")
                    return
                if turn == index:
                    self._do(kind, arg)
                elif turn == parties and index == 0:
                    _sample_speed(self.speed)

    def _do(self, kind: str, arg) -> None:
        try:
            if kind in ("hot", "cold"):
                request = {"dataset": self.shard.name, "focal": arg,
                           "tau": self.tau}
                if self.traced:
                    request["cmd"] = "trace"
                reply, elapsed = self.client.ask(request)
                if "k_star" not in reply:
                    raise RuntimeError(f"read failed: {reply}")
                self._record("hot_read" if kind == "hot" else "query", elapsed)
                if self.traced:
                    self.traces.append((elapsed, reply["trace"]))
            elif kind == "insert":
                self._record("write", self._insert(arg))
            else:
                self._record("write", self._delete())
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            self.errors.append(f"{self.shard.name} {kind}: {exc}")

    def _record(self, kind: str, seconds: float) -> None:
        self.latency[kind].append(1000.0 * seconds)
        self.spans[kind].append((self.client.started, seconds))

    def scaled(self, speed: HostSpeed) -> Dict[str, List[float]]:
        """The latencies (ms) at the reference host speed, one by one.

        Hot reads stay as measured: a cache hit's round trip is thread
        wake-ups and socket calls, whose time did not follow the kernel.
        Over 5 seeds their raw p50 spread 0.04 and the scaled one 0.13.
        """
        return {kind: list(self.latency[kind]) if kind == "hot_read" else
                [1000.0 * speed.scaled(start, start + seconds)
                 for start, seconds in spans]
                for kind, spans in self.spans.items()}

    def _insert(self, point: np.ndarray) -> float:
        n = self.records.shape[0]
        reply, seconds = self.client.ask(
            {"cmd": "insert", "dataset": self.shard.name,
             "record": point.tolist()})
        if reply.get("record_id") != n:
            raise RuntimeError(f"insert answered {reply}, expected id {n}")
        self.writes.append(("insert", point, n))
        self.records = np.vstack([self.records, point[None, :]])
        return seconds

    def _delete(self) -> float:
        """Delete the record this connection inserted last."""
        last = self.records.shape[0] - 1
        reply, seconds = self.client.ask(
            {"cmd": "delete", "dataset": self.shard.name, "record_id": last})
        if reply.get("deleted") is not True:
            raise RuntimeError(f"delete answered {reply}")
        self.writes.append(("delete", self.records[last], last))
        self.records = self.records[:last]
        return seconds

    def verify(self) -> List[str]:
        """Re-ask hot and sampled cold focals; compare with standalone
        ``maxrank()`` over this connection's copy of the final records."""
        name, problems = self.shard.name, []
        stats, _ = self.client.ask({"cmd": "stats"})
        served_n = stats["services"][name]["n"]
        if served_n != self.records.shape[0]:
            problems.append(f"{name}: server holds {served_n} records, "
                            f"copy holds {self.records.shape[0]}")
        final = Dataset(self.records, name=name)
        for focal in list(self.plan["hot"]) + self.plan["verify_cold"]:
            reply, _ = self.client.ask({"dataset": name, "focal": int(focal),
                                        "tau": self.tau})
            fresh = maxrank(final, int(focal), tau=self.tau,
                            counters=CostCounters())
            expected = {
                "k_star": fresh.k_star,
                "regions": fresh.region_count,
                "dominators": fresh.dominator_count,
                "tau": fresh.tau,
                "representative": [round(float(w), 9) for w in
                                   fresh.regions[0].representative_query()]
                if fresh.regions else None,
            }
            got = {key: reply.get(key) for key in expected}
            if got != expected:
                problems.append(f"{name} focal {focal}: served {got} != "
                                f"standalone {expected}")
        return problems


def _drive(boot: Boot, plans: Dict[str, dict], tau: int, traced: bool):
    speed = HostSpeed()
    connections = [Connection(boot.shards[name], boot.clients[name],
                              plans[name], tau, traced, speed)
                   for name in plans]
    start = threading.Barrier(len(connections) + 1)
    step = threading.Barrier(len(connections))
    threads = [threading.Thread(target=c.run, args=(i, start, step),
                                daemon=True)
               for i, c in enumerate(connections)]
    for thread in threads:
        thread.start()
    start.wait()
    began = time.perf_counter()
    for thread in threads:
        thread.join()
    return connections, began, time.perf_counter(), speed


def run(spec: dict, seed: int, root: Path, workdir: Path, trace: bool) -> dict:
    os.sched_setaffinity(0, CLIENT_CPUS)
    boots: List[Boot] = []
    setup_speed = HostSpeed()
    try:
        for _ in range(spec["setups"]):
            if boots:
                boots[-1].stop()
            _sample_speed(setup_speed)
            boots.append(Boot(spec, root, workdir))
        _sample_speed(setup_speed)
        boot = boots[-1]
        rng = np.random.default_rng(seed)
        kinds = _kinds(spec, rng)
        plans = {name: _plan(spec, shard, kinds, rng)
                 for name, shard in boot.shards.items()}
        connections, began, ended, loop_speed = _drive(
            boot, plans, spec["tau"], traced=False)
        problems = [e for c in connections for e in c.errors]
        stats, _ = next(iter(boot.clients.values())).ask({"cmd": "stats"})
        slot_flags = ([] if len(set(stats["datasets"].values())) == len(plans)
                      else [f"shards share an admission slot: {stats['datasets']}"])
        for connection in connections:
            problems += connection.verify()
    finally:
        if boots:
            boots[-1].stop()
    per_connection = [c.scaled(loop_speed) for c in connections]
    latency = {kind: [ms for c in connections for ms in c.latency[kind]]
               for kind in ("query", "hot_read", "write")}
    scaled = {kind: [ms for c in per_connection for ms in c[kind]]
              for kind in latency}
    attempted = sum(len(p["ops"]) + len(p["hot"]) + VERIFY_COLD + 1
                    for p in plans.values())
    out = {
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "flags": slot_flags,
        "work_counts": {},
        "latency": latency,
    }
    ops = sum(len(values) for values in latency.values())
    wall = ended - began
    if not trace:
        rss = rss_peak_mb(resource.RUSAGE_CHILDREN)
        out["metrics"] = summary(
            scaled, [setup_speed.scaled(b.started, b.started + b.seconds)
                     for b in boots],
            rss, ops / loop_speed.scaled_span(began, ended))
        out["raw"] = summary(latency, [b.seconds for b in boots], rss,
                             ops / wall)
        return out

    traced_boot = Boot(spec, root, workdir)
    try:
        traced, traced_began, traced_ended, _ = _drive(
            traced_boot, plans, spec["tau"], traced=True)
        metrics_reply, _ = next(iter(traced_boot.clients.values())).ask(
            {"cmd": "metrics"})
    finally:
        traced_boot.stop()
    out["problems"] += [e for c in traced for e in c.errors]
    out["failed"] = len(out["problems"])
    out["metrics"], out["stages"], stage_flags = layer_metrics(
        boots, traced, metrics_reply["serving"],
        (traced_ended - traced_began) / wall)
    out["flags"] += stage_flags
    return out


def _replay_writes(shards: Dict[str, Shard], connections) -> LayerProbes:
    """Time the index layer alone: replay each shard's writes on a local
    R*-tree built like the server's, under the R*-tree timers."""
    trees = {name: RStarTree.build(shard.dataset.records)
             for name, shard in shards.items()}
    with LayerProbes() as probes:
        for connection in connections:
            tree = trees[connection.shard.name]
            for kind, point, record_id in connection.writes:
                if kind == "insert":
                    tree.insert(point, record_id)
                else:
                    tree.delete(point, record_id)
                    tree.renumber_after_delete(record_id)
    return probes


def layer_metrics(boots: List[Boot], connections, serving: dict,
                  overhead: float):
    shards = boots[-1].shards
    load_s = []
    for shard in shards.values():
        start = time.perf_counter()
        MaxRankService.from_snapshot(shard.snapshot).close()
        load_s.append(time.perf_counter() - start)
    probes = _replay_writes(shards, connections)

    self_s: Dict[str, float] = {}
    submit_s, transport_s, client_s = [], [], 0.0
    for connection in connections:
        for elapsed, trace in connection.traces:
            spans = trace["spans"]
            client_s += elapsed
            request = next(s for s in spans if s["name"] == "request")
            transport_s.append(elapsed - request["elapsed_s"])
            times = span_self_times((s["id"], s["parent"], s["name"],
                                     s["elapsed_s"]) for s in spans)
            submit_s.append(times.get("admission.submit", 0.0))
            times["transport"] = transport_s[-1]
            for name, seconds in times.items():
                self_s[name] = self_s.get(name, 0.0) + seconds
    sum_ratio, stages, flags = stage_table(self_s, client_s)
    computed = serving["queries_computed"]
    shard_stats = serving["shards"].values()

    def self_ms(name: str) -> float:
        return 1000.0 * ratio(self_s.get(name, 0.0), computed)

    def per_query(key: str) -> float:
        return ratio(sum(s[key] for s in shard_stats), computed)

    metrics = {
        "index.build_s": p50([np.mean([s.build_s for s in b.shards.values()])
                              for b in boots]),
        "index.snapshot_load_s": float(np.mean(load_s)),
        # page reads are not exposed over the wire
        "index.page_reads_per_query": 0.0,
        "index.insert_ms": probes.rstar_insert.mean_ms,
        "index.delete_ms": probes.delete_ms,
        "skyline.self_ms": self_ms("skyline"),
        "skyline.updates_per_query": 0.0,
        "skyline.reused_per_query": per_query("skyline_reused"),
        "quadtree_build.self_ms": self_ms("quadtree_build"),
        "quadtree.nodes_created": per_query("nodes_created"),
        "quadtree.splits_performed": per_query("splits_performed"),
        "within_leaf.self_ms": self_ms("within_leaf"),
        "withinleaf.candidates_generated": 0.0,
        "withinleaf.prefixes_cut": 0.0,
        "withinleaf.screen_resolved_ratio": 0.0,
        "lp.calls_per_query": 0.0,
        "lp.rows_per_call": 0.0,
        "planar.self_ms": 0.0,
        "planar.lines_inserted": 0.0,
        "planar.faces_enumerated": 0.0,
        "expansion.self_ms": self_ms("expansion"),
        "collect_level.self_ms": self_ms("collect_level"),
        "cells.examined": 0.0,
        "aa.iterations": 0.0,
        "cache.hit_ratio": ratio(serving["cache_hits"], serving["queries_served"]),
        "cache.invalidated": float(sum(s["invalidated"] for s in shard_stats)),
        "cache.retained": float(sum(s["retained"] for s in shard_stats)),
        "cache.evictions": float(serving["cache_evictions"]),
        "admission.wait_ms": 1000.0 * float(np.mean(submit_s)),
        "admission.coalesced_ratio": ratio(serving["coalesced"], serving["admitted"]),
        "admission.wave_size_mean": ratio(serving["wave_jobs"], serving["waves"]),
        "transport.overhead_ms": 1000.0 * float(np.mean(transport_s)),
        "obs.trace_overhead_ratio": overhead,
        "stages.sum_ratio": sum_ratio,
    }
    return metrics, stages, flags
