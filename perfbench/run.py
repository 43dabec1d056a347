#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3_paper --seed 0 --seconds 25 --trace 0

Each iteration sets the workload up from scratch on the seed's inputs
and sweeps its recovery cases.  Iterations repeat until ``--seconds`` of
measurement are spent, at least :data:`MIN_ITERATIONS` times.  The
set-up and every stage of the sweep are timed by a
:class:`hostclock.HostClock`, which scales each to a host of fixed
speed, so figures taken minutes apart on a shared host compare.
``setup_s`` is the median calibrated set-up time; ``recoveries_per_s``
divides the workload's fixed recovery count by the median calibrated
sweep time; ``peak_rss_mb`` is ``ru_maxrss`` after the first iteration;
``completed_share`` is the share of recoveries that did not end in a
scheme crash.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones (medians; see ``tracing.py``) plus ``tracing_overhead``:
median traced sweep minus median untraced sweep.  Per-layer times are
plain seconds.

Every iteration is checked: its tables must satisfy the workload's
identities (Theorem 2, the utilization cap), and their sha256 must equal
the first iteration's (so a traced sweep reproduces an untraced one) and
the digest pinned in ``digests.json`` for the seed, if there is one.  A
failed check marks the run ``correct: false`` and counts the sweep's
recoveries as failed.  ``--pin`` records the seed's digest in
``digests.json`` instead of checking it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from hostclock import PROBE_S, HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fewest iterations a run makes, whatever ``--seconds`` says.
MIN_ITERATIONS = 3
#: Fewest iterations of each kind (untraced, traced) in a traced run.
MIN_TRACE_PAIRS = 2

DIGESTS_PATH = HERE / "digests.json"


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true", help="record the digest instead of checking it"
    )
    return parser.parse_args(argv)


def load_pinned() -> Dict[str, Dict[str, str]]:
    """workload -> seed (as a string) -> pinned table digest."""
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def save_pinned(workload: str, seed: int, digest: str) -> None:
    pinned = load_pinned()
    pinned.setdefault(workload, {})[str(seed)] = digest
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


class Verdict:
    """Correctness of a run, accumulated over its iterations."""

    def __init__(self, workload, pinned: Optional[str] = None) -> None:
        self.workload = workload
        self.pinned = pinned
        #: Digest of the run's first sweep; every later one must match.
        self.digest: Optional[str] = None
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.crashed = 0.0

    def check(self, result) -> None:
        """Record one sweep and every check it fails."""
        from workloads import table_digest

        digest = table_digest(result.table)
        problems = list(result.problems)
        if result.recoveries != self.workload.recoveries:
            problems.append(
                f"{result.recoveries} recoveries, expected {self.workload.recoveries}"
            )
        if self.digest is None:
            self.digest = digest
            if self.pinned is not None and digest != self.pinned:
                problems.append(f"digest {digest} != pinned {self.pinned}")
        elif digest != self.digest:
            problems.append(f"digest {digest} != the run's first sweep {self.digest}")
        self.attempted += result.recoveries
        self.crashed += result.failed
        if problems:
            self.problems.extend(problems)
            self.failed += result.recoveries
        else:
            self.failed += round(result.failed)


def run_iteration(workload, seed: int, clock: Optional[HostClock] = None):
    """One set-up plus sweep; returns ``(setup_s, sweep_s, result)``.

    Without ``clock`` the times are wall seconds.  With one they are
    calibrated: the set-up and the sum of the sweep's stages, each in
    probe runs, times :data:`hostclock.PROBE_S`.
    """
    gc.collect()
    if clock is None:
        t0 = time.perf_counter()
        setup = workload.setup(seed)
        t1 = time.perf_counter()
        result = workload.sweep(setup)
        return t1 - t0, time.perf_counter() - t1, result
    with clock.stage():
        setup = workload.setup(seed)
    setup_s = clock.take() * PROBE_S
    result = workload.sweep(setup, clock.stage)
    return setup_s, clock.take() * PROBE_S, result


def measure(workload, seed: int, seconds: float, verdict: Verdict) -> Dict[str, dict]:
    """Untraced iterations until ``seconds`` are spent; end-to-end metrics."""
    clock = HostClock()
    setups: List[float] = []
    sweeps: List[float] = []
    peak_kb = 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        setup_s, sweep_s, result = run_iteration(workload, seed, clock)
        verdict.check(result)
        setups.append(setup_s)
        sweeps.append(sweep_s)
        del result
        if not peak_kb:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        last = time.perf_counter() - start
        if len(setups) >= MIN_ITERATIONS and time.perf_counter() + last > deadline:
            break
    return {
        "recoveries_per_s": {
            "value": workload.recoveries / statistics.median(sweeps),
            "unit": "1/s",
        },
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "completed_share": {
            "value": 1.0 - verdict.crashed / verdict.attempted,
            "unit": "share",
        },
    }


def layer_metrics(tracer, setup_phases, setup_layers, sweep_s, counters, sp_runs):
    """The per-layer metric values of one traced iteration."""
    s = tracer.self_s
    calls = tracer.calls
    hops = counters.get("rtr.phase1.hops", 0)
    batched = counters.get("simulator.walks.batched", 0)
    fallback = counters.get("simulator.walks.fallback", 0)
    hits = counters.get("spt_cache.hits", 0)
    misses = counters.get("spt_cache.misses", 0)
    phase1_s = s.get("core.phase1", 0.0)
    return {
        "topology.build_s": setup_phases.get("topology.build_s", 0.0),
        "topology.cross_links_s": setup_phases.get("topology.cross_links_s", 0.0),
        "traffic.provision_s": setup_layers.get("traffic.provision", 0.0),
        "eval.generate_cases_s": s.get("eval.generate_cases", 0.0),
        "eval.runner_s": s.get("eval.runner", 0.0),
        "baselines.mrc_configurations_s": s.get("baselines.mrc_configurations", 0.0),
        "baselines.fcp_recover_s": s.get("baselines.fcp_recover", 0.0),
        "core.phase1_s": phase1_s,
        "core.phase1_hops": hops,
        "core.phase1_walks": counters.get("rtr.phase1.walks", 0),
        "core.phase1_us_per_hop": 1e6 * phase1_s / hops if hops else 0.0,
        "core.phase2_s": s.get("core.phase2", 0.0),
        "core.phase2_tree_builds": counters.get("rtr.phase2.tree_builds", 0),
        "simulator.execute_s": s.get("simulator.execute", 0.0),
        "simulator.walks_batched": batched,
        "simulator.walks_fallback": fallback,
        "simulator.batched_share": (
            batched / (batched + fallback) if batched + fallback else 0.0
        ),
        "routing.sp_runs": sp_runs,
        "routing.tree_s": s.get("routing.tree", 0.0),
        "routing.sptcache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "routing.sptcache_evictions": counters.get("spt_cache.evictions", 0),
        "routing.penalized_runs": calls.get("routing.penalized", 0),
        "routing.penalized_s": s.get("routing.penalized", 0.0),
        "routing.edge_loads_s": s.get("routing.edge_loads", 0.0),
        "traffic.classify_s": s.get("traffic.classify", 0.0),
        "traffic.weighting_s": s.get("traffic.weighting", 0.0),
        "te.penalty_s": s.get("te.penalty", 0.0),
        "chaos.packets_lost": counters.get("chaos.packets_lost", 0),
        "unattributed_s": sweep_s - tracer.attributed_s(),
    }


#: Units of the per-layer metrics (everything not listed is seconds).
LAYER_UNITS = {
    "core.phase1_hops": "count",
    "core.phase1_walks": "count",
    "core.phase1_us_per_hop": "us",
    "core.phase2_tree_builds": "count",
    "simulator.walks_batched": "count",
    "simulator.walks_fallback": "count",
    "simulator.batched_share": "share",
    "routing.sp_runs": "count",
    "routing.sptcache_hit_rate": "share",
    "routing.sptcache_evictions": "count",
    "routing.penalized_runs": "count",
    "chaos.packets_lost": "count",
}


def traced_iteration(workload, seed: int):
    """One set-up plus sweep under the layer tracer and obs counters.

    Returns ``(sweep_s, result, per-layer metrics)``.  Layer self times
    and counters cover the sweep; set-up layers are inclusive times.
    """
    from repro import obs
    from repro.routing import dijkstra_run_count
    from tracing import LayerTracer

    gc.collect()
    with LayerTracer() as tracer:
        obs.enable()
        try:
            setup = workload.setup(seed)
            setup_layers = dict(tracer.total_s)
            tracer.reset()
            obs.reset()
            sp0 = dijkstra_run_count()
            t0 = time.perf_counter()
            result = workload.sweep(setup)
            sweep_s = time.perf_counter() - t0
            sp_runs = dijkstra_run_count() - sp0
            counters = obs.snapshot()["metrics"]["counters"]
        finally:
            obs.disable()
            obs.reset()
    layers = layer_metrics(tracer, setup.phases, setup_layers, sweep_s, counters, sp_runs)
    return sweep_s, result, layers


def measure_traced(workload, seed: int, seconds: float, verdict: Verdict) -> Dict[str, dict]:
    """Alternate untraced and traced iterations; per-layer metrics."""
    untraced: List[float] = []
    traced: List[float] = []
    samples: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        _, sweep_s, result = run_iteration(workload, seed)
        verdict.check(result)
        untraced.append(sweep_s)
        del result
        sweep_s, result, layers = traced_iteration(workload, seed)
        verdict.check(result)
        traced.append(sweep_s)
        samples.append(layers)
        del result
        last = time.perf_counter() - start
        if len(traced) >= MIN_TRACE_PAIRS and time.perf_counter() + last > deadline:
            break
    metrics = {
        name: {
            "value": statistics.median(sample[name] for sample in samples),
            "unit": LAYER_UNITS.get(name, "s"),
        }
        for name in samples[0]
    }
    metrics["tracing_overhead"] = {
        "value": statistics.median(traced) - statistics.median(untraced),
        "unit": "s",
    }
    return metrics


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    pinned = None if args.pin else load_pinned().get(workload.name, {}).get(str(args.seed))
    verdict = Verdict(workload, pinned)
    if args.trace:
        metrics = measure_traced(workload, args.seed, args.seconds, verdict)
    else:
        metrics = measure(workload, args.seed, args.seconds, verdict)
    if args.pin:
        save_pinned(workload.name, args.seed, verdict.digest)
    for problem in dict.fromkeys(verdict.problems):
        print(f"perfbench: {workload.name}: {problem}")
    print(
        json.dumps(
            {
                "correct": not verdict.problems,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
