"""Outside-in per-layer tracing: wrappers around the library's public calls.

A :class:`LayerTracer` replaces each public entry point listed in
:data:`LAYER_ENTRY_POINTS` with a timing wrapper while installed, and
puts the originals back on :meth:`LayerTracer.uninstall`.  Nothing in
the library changes: methods are swapped on their class, module-level
functions in every ``repro`` module (and benchmark module) that bound
them by name.

Self time: a wrapped call's duration minus the durations of the wrapped
calls nested inside it (except the pairs in :data:`ABSORBED`).  Summing
every layer's self time therefore gives the time spent under *some*
wrapped call exactly once; the rest of a sweep is the benchmark's
``unattributed_s``.  Inclusive time is kept too, for set-up layers that
are reported whole.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (layer, module, qualified attribute) for every wrapped entry point.
#: A layer may own several entry points; their times add up.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("eval.generate_cases", "repro.eval.cases", "generate_cases"),
    ("eval.runner", "repro.eval.runner", "EvaluationRunner.run"),
    ("eval.runner", "repro.schemes.base", "SchemeInstance.recover"),
    ("baselines.mrc_configurations", "repro.baselines.mrc", "generate_configurations"),
    ("baselines.fcp_recover", "repro.baselines.fcp", "FCP.recover"),
    ("core.phase1", "repro.core.rtr", "RTR.phase1_for"),
    ("core.phase2", "repro.core.phase2", "Phase2Engine.tree"),
    ("simulator.execute", "repro.simulator.batch", "WalkBatch.execute"),
    ("routing.tree", "repro.routing.cache", "SPTCache.forward_tree"),
    ("routing.penalized", "repro.routing.dijkstra", "penalized_shortest_path_tree"),
    ("routing.edge_loads", "repro.routing.tables", "RoutingTable.edge_loads_to"),
    ("traffic.provision", "repro.traffic.capacity", "provision_capacities"),
    ("traffic.classify", "repro.traffic.engine", "classify_pairs"),
    ("traffic.weighting", "repro.traffic.engine", "TrafficEngine.run_scenario"),
    ("te.penalty", "repro.te.penalty", "LinkPenalty.from_load_map"),
)


#: (parent layer, child layer): a child call made directly inside the
#: parent stays in the parent's self time.  RTR's phase-1 walk runs as a
#: one-walk ``WalkBatch`` inside ``RTR.phase1_for``; it is phase-1 work,
#: and ``simulator.execute`` keeps the delivery walks.
ABSORBED: Tuple[Tuple[str, str], ...] = (("core.phase1", "simulator.execute"),)


class LayerTracer:
    """Per-layer self time and call counts of the wrapped entry points."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        absorbed: Tuple[Tuple[str, str], ...] = ABSORBED,
    ) -> None:
        self.clock = clock
        self.absorbed = frozenset(absorbed)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive time of each layer's outermost calls.
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: ``[layer, child time]`` per open wrapped call, innermost last.
        self._stack: List[list] = []
        self._restore: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget recorded times and counts (wrappers stay installed)."""
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()

    def attributed_s(self) -> float:
        """Time spent under any wrapped call since the last reset."""
        return sum(self.self_s.values())

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with its self time and calls charged to ``layer``."""
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        absorbed_by = {parent for parent, child in self.absorbed if child == layer}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] in absorbed_by:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if all(outer[0] != layer for outer in stack):
                    total_s[layer] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> "LayerTracer":
        """Wrap every entry point of :data:`LAYER_ENTRY_POINTS`."""
        for layer, module_name, qualname in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                self._wrap_method(layer, getattr(module, cls_name), attr)
            else:
                self._wrap_function(layer, module, qualname)
        return self

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap_method(self, layer: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(layer, raw.__func__))
        else:
            wrapped = self.wrap(layer, raw)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _wrap_function(self, layer: str, module, attr: str) -> None:
        original = getattr(module, attr)
        wrapped = self.wrap(layer, original)
        # ``from x import f`` copies the binding: rebind it everywhere.
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is not None and namespace.get(attr) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, wrapped)
