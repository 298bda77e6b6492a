"""Benchmark-side spans and timers around calls into single layers.

The program already emits spans for the engine phases (``skyline``,
``quadtree_build``, ``within_leaf``, ``collect_level``, ``expansion``) but
none around the planar arrangement, and it times no R*-tree mutation.
For the traced run only, :class:`LayerProbes` wraps those entry points
from the outside:

* ``PlanarArrangement.for_leaf`` / ``insert`` / ``positions_by_weight``
  become ``planar`` spans (arrangement build + face sweep);
* ``RStarTree.insert`` and ``RStarTree.delete`` + ``renumber_after_delete``
  accumulate wall time for ``index.insert_ms`` / ``index.delete_ms``.

The spans go to whichever :class:`repro.obs.trace.Tracer` the workload
set on :attr:`LayerProbes.tracer` for the current query; they nest under
the program's own open span on the calling thread, so self times still
partition each trace.  Everything is restored on exit.
"""

from __future__ import annotations

from typing import List, Tuple

from .common import Timed, timed_call


class LayerProbes:
    def __init__(self) -> None:
        self.tracer = None
        self.rstar_insert = Timed()
        self.rstar_delete = Timed()
        self._saved: List[Tuple[object, str, object]] = []

    def _span(self, fn, name: str):
        probes = self

        def wrapper(*args, **kwargs):
            tracer = probes.tracer
            if tracer is None:
                return fn(*args, **kwargs)
            handle = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(handle)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "LayerProbes":
        from repro.geometry.planar import PlanarArrangement
        from repro.index.rstar import RStarTree

        for_leaf = PlanarArrangement.__dict__["for_leaf"].__func__
        self._patch(PlanarArrangement, "for_leaf",
                    classmethod(self._span(for_leaf, "planar")))
        for attr in ("insert", "positions_by_weight"):
            self._patch(PlanarArrangement, attr,
                        self._span(getattr(PlanarArrangement, attr), "planar"))
        self._patch(RStarTree, "insert",
                    timed_call(RStarTree.insert, self.rstar_insert))
        self._patch(RStarTree, "delete",
                    timed_call(RStarTree.delete, self.rstar_delete))
        self._patch(RStarTree, "renumber_after_delete",
                    timed_call(RStarTree.renumber_after_delete,
                               self.rstar_delete))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def delete_ms(self) -> float:
        # delete and renumber_after_delete are two calls per deletion
        deletions = self.rstar_delete.calls // 2
        return 1000.0 * self.rstar_delete.seconds / deletions if deletions else 0.0
