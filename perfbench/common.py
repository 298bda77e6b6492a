"""Helpers shared by the workloads: percentiles, draws, span self-times, timers.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import bisect
import resource
import signal
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


def p50(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quantile(values: Sequence[float], q: float, steps: int = 64) -> float:
    """The Harrell-Davis estimate of the ``q``-quantile.

    A mean of all order statistics, weighted by a beta distribution
    centred on rank ``q * (n + 1)``, instead of the one or two samples at
    that rank.  Every reported percentile is this estimate: the what-if
    queries' p90 rests on ~10 neighbouring ranks, where a plain
    percentile rested on 2, and per-query noise of a few percent moved it
    twice as much between runs.  Callers keep at least 100 samples for a
    p90, so ten or more lie beyond it.  The weight of the ``i``-th sample
    is the beta mass on ``((i - 1) / n, i / n)``, integrated here by the
    midpoint rule on ``steps`` points per sample (importing
    ``scipy.stats`` for it would double the benchmark's resident set).
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    x = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(np.dot(weights, ordered) / weights.sum())


def rss_peak_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def dominator_counts(records: np.ndarray, block: int = 256) -> np.ndarray:
    """How many records dominate each record (numpy, blockwise ``O(n^2 d)``)."""
    n = records.shape[0]
    counts = np.empty(n, dtype=np.int64)
    for start in range(0, n, block):
        rows = records[start:start + block, None, :]
        dominates = (records[None, :, :] >= rows).all(axis=2) & (
            records[None, :, :] > rows
        ).any(axis=2)
        counts[start:start + block] = dominates.sum(axis=1)
    return counts


def stratified_draw(strata: np.ndarray, ids: np.ndarray, size: int,
                    rng: np.random.Generator) -> List[int]:
    """Draw ``size`` ids without replacement, allocated to the strata in
    proportion to their sizes (largest remainder), in a seeded order."""
    if size > len(ids):
        raise ValueError(f"cannot draw {size} of {len(ids)} ids")
    keys = sorted(set(int(s) for s in strata))
    sizes = {k: int((strata == k).sum()) for k in keys}
    quotas = {k: size * sizes[k] / len(ids) for k in keys}
    alloc = {k: int(quotas[k]) for k in keys}
    by_remainder = sorted(keys, key=lambda k: (alloc[k] - quotas[k], k))
    for k in by_remainder[: size - sum(alloc.values())]:
        alloc[k] += 1
    picked: List[int] = []
    for k in keys:
        members = ids[strata == k]
        picked.extend(int(i) for i in rng.choice(members, size=alloc[k],
                                                 replace=False))
    rng.shuffle(picked)
    return picked


#: Median seconds of one :meth:`HostSpeed.sample` kernel on the 2-core
#: VM the benchmark was tuned on.  Reported times are scaled to this speed.
REFERENCE_KERNEL_S = 150e-6

#: Wall seconds between kernel samples inside an operation: about 3% of
#: the operation's time goes to the kernel, and is subtracted again.
INSIDE_INTERVAL_S = 0.005

#: Kernel samples taken before and after each measured operation or set-up.
SPEED_SAMPLES = 3


class HostSpeed:
    """How fast the host runs right now, from a fixed kernel of benchmark code.

    The kernel is small-array numpy and interpreter work (tuple keys, dict
    stores, a dominance count) like the program's, but it is not program
    code, so no change to the program moves it.  A workload times it
    between its measured operations and reports each operation at the
    reference speed: its seconds times :func:`local_factor` of the samples
    around it (:meth:`timed`, :meth:`scaled`).  On the shared 2-core VM the
    benchmark was tuned on, the host slowed and sped up by 20-40% over tens
    of seconds, and it also flipped between a slow and a ~1.7x faster phase
    within a fraction of a second, often in the middle of a query; one
    factor per phase (set-up, loop) left ``query_p90_ms`` spreading by a
    quarter between runs.  The raw values are printed on stderr.  The
    kernel must run where the measured work runs and while nothing else
    does: next to other work it measures that work, not the host.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.stamps: List[float] = []
        self._rows = np.random.default_rng(0).random((64, 4))
        self._keys: Dict[tuple, int] = {}

    def _kernel(self) -> float:
        start = time.perf_counter()
        rows, keys = self._rows, self._keys
        for i in range(8):
            row = rows[i]
            keys[("idx", i, 0, "aa", ())] = int(
                ((rows >= row).all(axis=1) & (rows > row).any(axis=1)).sum())
        return time.perf_counter() - start

    def sample(self, times: int = 1, discard: int = 0) -> None:
        """Time the kernel ``times`` times, after ``discard`` untimed runs."""
        for _ in range(discard):
            self._kernel()
        for _ in range(times):
            self.samples.append(self._kernel())
            self.stamps.append(time.perf_counter())

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` (``perf_counter`` stamps) at the
        reference speed, by the :data:`SPEED_SAMPLES` samples taken just
        before ``start`` and those taken just after ``end``."""
        first = bisect.bisect_right(self.stamps, start)
        after = bisect.bisect_right(self.stamps, end)
        picked = (self.samples[max(0, first - SPEED_SAMPLES):first]
                  + self.samples[after:after + SPEED_SAMPLES])
        return (end - start) * local_factor(picked or self.samples)

    def scaled_span(self, start: float, end: float) -> float:
        """:meth:`scaled` over a long stretch, cut at every sample in it."""
        inner = [t for t in self.stamps if start < t < end]
        cuts = [start] + inner + [end]
        return sum(self.scaled(a, b) for a, b in zip(cuts, cuts[1:]))

    def timed(self, fn, inside: bool = False):
        """Run ``fn()`` with :data:`SPEED_SAMPLES` kernel samples before and after.

        Returns ``(result, seconds, scaled)``: ``fn``'s wall seconds and
        those seconds at the reference speed, by the :func:`local_factor`
        of the samples around it (and inside it, with ``inside``, for
        operations long enough to span a change of host phase).
        """
        self.sample(SPEED_SAMPLES)
        around = self.samples[-SPEED_SAMPLES:]
        start = time.perf_counter()
        with self.inside() if inside else nullcontext(InsideSpeed()) as probe:
            result = fn()
        seconds = time.perf_counter() - start - probe.stolen_s
        self.sample(SPEED_SAMPLES)
        around = around + probe.samples + self.samples[-SPEED_SAMPLES:]
        return result, seconds, seconds * local_factor(around)

    @contextmanager
    def inside(self):
        """Time the kernel every :data:`INSIDE_INTERVAL_S` of wall time
        *during* an operation, from a ``SIGALRM`` handler in the calling
        (main) thread.

        The host switches between a slow and a fast phase within a fraction
        of a second, often in the middle of a long query, so samples taken
        only before and after an operation miss part of what slowed it.
        Yields an :class:`InsideSpeed` whose :attr:`~InsideSpeed.stolen_s`
        (the handlers' own time) the caller subtracts from the operation's
        wall time.
        """
        probe = InsideSpeed()

        def handler(_signum, _frame) -> None:
            start = time.perf_counter()
            probe.samples.append(self._kernel())
            probe.stolen_s += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, INSIDE_INTERVAL_S,
                         INSIDE_INTERVAL_S)
        try:
            yield probe
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)


class InsideSpeed:
    """Kernel samples taken during one operation (see :meth:`HostSpeed.inside`)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.stolen_s = 0.0


def local_factor(samples: Sequence[float]) -> float:
    """The mean host speed over ``samples`` (kernel seconds), relative to
    the reference speed: seconds measured there times it are seconds at
    the reference speed.

    The mean of speeds, not a median, because a long operation often spans
    both host phases, and the work it did is its wall time times the
    time-weighted mean speed; the samples are evenly spaced in time.
    """
    return float(np.mean([REFERENCE_KERNEL_S / k for k in samples]))


def summary(latency: Dict[str, List[float]], setup_s: Sequence[float],
            rss_mb: float, ops_per_s: float) -> Dict[str, float]:
    """The end-to-end metrics from latencies (ms) and set-up times (s)."""
    return {
        "setup_s": quantile(setup_s, 0.5),
        "rss_peak_mb": rss_mb,
        "query_p50_ms": quantile(latency["query"], 0.5),
        "query_p90_ms": quantile(latency["query"], 0.9),
        "hot_read_p50_ms": quantile(latency["hot_read"], 0.5),
        "write_p50_ms": quantile(latency["write"], 0.5),
        "write_p90_ms": quantile(latency["write"], 0.9),
        "ops_per_s": ops_per_s,
    }


def mode_flags(latency: Dict[str, List[float]]) -> List[str]:
    """:func:`boundary_flags` for every percentile :func:`end_to_end` reports."""
    reported = {"query": (0.5, 0.9), "hot_read": (0.5,), "write": (0.5, 0.9)}
    return [flag for kind, quantiles in reported.items() for q in quantiles
            for flag in boundary_flags(kind, latency[kind], q)]


def boundary_flags(name: str, samples: Sequence[float], q: float,
                   min_gap: float = 3.0, margin: float = 0.05) -> List[str]:
    """Flag a percentile that sits near a gap between latency modes.

    A mode boundary is a gap where consecutive sorted samples differ by a
    factor of at least ``min_gap`` with at least 3% of the samples on each
    side (for example sub-millisecond cache hits against computed
    answers).  The ``q``-quantile is unsteady when the share of samples
    below such a gap lies within ``margin`` of ``q``: a small shift in the
    mix then moves the percentile from one mode to the other.
    """
    ordered = sorted(samples)
    n = len(ordered)
    flags = []
    for i in range(1, n):
        low, high = ordered[i - 1], ordered[i]
        if low <= 0 or high / low < min_gap:
            continue
        share = i / n
        if min(share, 1 - share) < 0.03:
            continue
        if abs(share - q) < margin:
            flags.append(
                f"{name}: p{round(q * 100)} sits near a mode boundary "
                f"({share:.0%} of {n} samples below {low:.3g}..{high:.3g} ms)"
            )
    return flags


def span_self_times(spans: Iterable[Tuple[str, Optional[str], str, float]]
                    ) -> Dict[str, float]:
    """Exclusive seconds per span name from ``(id, parent, name, elapsed)``.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of one trace partition its root span.
    """
    spans = list(spans)
    child_total: Dict[str, float] = defaultdict(float)
    for _span_id, parent, _name, elapsed in spans:
        if parent is not None:
            child_total[parent] += elapsed
    out: Dict[str, float] = defaultdict(float)
    for span_id, _parent, name, elapsed in spans:
        out[name] += elapsed - child_total.get(span_id, 0.0)
    return dict(out)


#: Spans that belong to a layer of LAYER_MAP: the engine phases, the
#: benchmark's ``planar`` probe, admission, and ``transport`` (client round
#: trip minus the server ``request`` span, added by the serving workload).
LAYER_SPANS = (
    "skyline", "quadtree_build", "within_leaf", "collect_level", "expansion",
    "planar", "admission.submit", "admission.wave", "transport",
)

#: Glue spans of no layer.  Their self time is what the layer spans leave
#: uncovered, so it is reported as unattributed, not as a stage.
GLUE_SPANS = ("service.query", "service.batch", "compute", "request")

#: A traced run flags its stage table when more than this share of the
#: wall is not attributed to any layer.
UNATTRIBUTED_LIMIT = 0.10


def stage_table(self_s: Dict[str, float], wall_s: float
                ) -> Tuple[float, dict, List[str]]:
    """``stages.sum_ratio``, the per-span shares of the wall and flags.

    The ratio sums the self times of layer spans only.  Glue self time,
    spans no layer claims and wall covered by no span at all lower it;
    their share is ``unattributed`` and is flagged above
    :data:`UNATTRIBUTED_LIMIT`.
    """
    flags = []
    unknown = sorted(set(self_s) - set(LAYER_SPANS) - set(GLUE_SPANS))
    if unknown:
        flags.append(f"spans not attributed to a layer: {', '.join(unknown)}")
    sum_ratio = ratio(sum(self_s.get(name, 0.0) for name in LAYER_SPANS),
                      wall_s)
    shares = {name: ratio(seconds, wall_s) for name, seconds in self_s.items()}
    unattributed = 1.0 - sum_ratio
    if unattributed > UNATTRIBUTED_LIMIT:
        flags.append(f"stages: {unattributed:.1%} of the traced wall is not "
                     f"attributed to a layer (limit {UNATTRIBUTED_LIMIT:.0%})")
    return sum_ratio, {"wall_s": wall_s, "shares": shares,
                       "unattributed": unattributed}, flags


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


class Timed:
    """Wall-clock accumulator for a set of wrapped calls (thread-safe)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self._lock = threading.Lock()

    def add(self, seconds: float) -> None:
        with self._lock:
            self.seconds += seconds
            self.calls += 1

    @property
    def mean_ms(self) -> float:
        return 1000.0 * ratio(self.seconds, self.calls)


def timed_call(fn, sink: Timed):
    """Wrap ``fn`` so each call's wall time lands in ``sink``."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.add(time.perf_counter() - start)

    wrapper.__wrapped__ = fn
    return wrapper
