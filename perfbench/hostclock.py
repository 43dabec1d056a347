"""Time benchmark stages in units of the host's current speed.

On a shared host the same Python code runs up to twice as slowly in
spells that come and go within seconds or last minutes, and CPU time
slows with wall time, so no timer alone gives a figure that repeats
from run to run.  A :class:`HostClock` therefore samples the host's
speed *while* a stage runs: an interval timer interrupts the stage every
:data:`PROBE_PERIOD_S` and runs a short fixed probe — a bounded
pure-Python Dijkstra over a fixed random graph, code of this directory
that no library change touches — and a few probes run right before and
after the stage too.  The stage's own time (its wall time less the
probes inside it) divided by the mean probe time is its cost in probe
runs; multiplied by :data:`PROBE_S` it is the stage's time on a host
where the probe takes that long, whatever the host is doing meanwhile.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List

#: Nominal duration of one probe (roughly its time on a quiet 2-vCPU
#: Intel Xeon VM, Python 3.11): calibrated times are reported as
#: seconds on a host where the probe takes this long.
PROBE_S = 0.0015
#: Interval between the probes that interrupt a stage.
PROBE_PERIOD_S = 0.05
#: Probes run right before, and again right after, every stage.
EDGE_PROBES = 2

_GRAPH_NODES = 3000
_GRAPH_DEGREE = 4
_GRAPH_SEED = 12345
#: Nodes settled per probe.
_PROBE_POPS = 400


def _probe_graph() -> Dict[int, Dict[int, int]]:
    rng = random.Random(_GRAPH_SEED)
    adj: Dict[int, Dict[int, int]] = {v: {} for v in range(_GRAPH_NODES)}
    for v in range(_GRAPH_NODES):
        for _ in range(_GRAPH_DEGREE):
            u = rng.randrange(_GRAPH_NODES)
            if u != v:
                adj[v][u] = adj[u][v] = rng.randint(1, 100)
    return adj


_GRAPH = _probe_graph()


def probe_kernel() -> int:
    """Settle the :data:`_PROBE_POPS` nodes nearest node 0; a checksum."""
    dist = {0: 0}
    done = set()
    heap = [(0, 0)]
    while heap and len(done) < _PROBE_POPS:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for u, w in _GRAPH[v].items():
            nd = d + w
            if nd < dist.get(u, 1 << 60):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return sum(dist[v] for v in done)


class HostClock:
    """Stage timer that divides each stage by the probe times around and in it.

    ``period_s=0`` turns the interrupting probes off (the edge probes
    still run), which the self-tests use with a fake ``clock``.
    """

    def __init__(
        self,
        probe: Callable[[], object] = probe_kernel,
        clock: Callable[[], float] = time.perf_counter,
        period_s: float = PROBE_PERIOD_S,
    ) -> None:
        self.probe = probe
        self.clock = clock
        self.period_s = period_s
        #: Probe durations of the current stage.
        self.samples: List[float] = []
        #: Calibrated stage costs (in probe runs) since the last :meth:`take`.
        self.ratios: List[float] = []

    def run_probe(self) -> None:
        """Run and time one probe, the cyclic garbage collector paused.

        The probe makes no cycles, and a collection it triggered would
        traverse the workload's heap instead of measuring the host.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = self.clock()
            self.probe()
            self.samples.append(self.clock() - t0)
        finally:
            if enabled:
                gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        self.run_probe()

    @contextmanager
    def stage(self) -> Iterator[None]:
        self.samples = []
        for _ in range(EDGE_PROBES):
            self.run_probe()
        edge = len(self.samples)
        previous = None
        if self.period_s > 0:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        t0 = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - t0
            if self.period_s > 0:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        inside = sum(self.samples[edge:])
        for _ in range(EDGE_PROBES):
            self.run_probe()
        self.ratios.append((elapsed - inside) / statistics.fmean(self.samples))

    def take(self) -> float:
        """Sum of the stage costs recorded since the last call, in probe runs."""
        total = sum(self.ratios)
        self.ratios = []
        return total
