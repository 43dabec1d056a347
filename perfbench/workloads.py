"""The benchmark workloads, composed from the library's public calls.

Each workload splits into a *set-up* (everything before the first
recovery case starts) and a *sweep* (the recovery cases themselves), so
the runner can time the two apart.  Every call builds its state from
scratch — topologies, SPT caches, engines — so repeated sweeps in one
process do identical work.

The sweeps return the same tables as the library's experiment drivers
called with the same parameters (``table3_recoverable``,
``table4_wasted_summary``, ``traffic_weighted_table3``); the benchmark's
self-tests hold them to that.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Optional, Sequence

from repro.chaos import FaultPlan
from repro.eval import cases as eval_cases
from repro.eval.experiments import DEFAULT_TOPOLOGIES, traffic_scenario_list
from repro.eval.metrics import (
    savings_ratio,
    summarize_irrecoverable,
    summarize_recoverable,
)
from repro.eval.runner import EvaluationRunner
from repro.routing import SPTCache
from repro.topology import topology_from_spec
from repro.traffic import (
    DEFAULT_HEADROOM,
    DEFAULT_TOTAL_DEMAND,
    TrafficEngine,
    TrafficMatrix,
    aggregate_flows,
    generate_matrix,
    summarize_traffic,
)

#: Utilization cap of the congestion workload (the ``repro.te`` bar).
UTILIZATION_CAP = 1.5

#: Loss rungs of the congestion workload and the fault plan's own seed.
LOSS_RATES = (0.0, 0.05)
FAULT_PLAN_SEED = 42


@dataclass
class Setup:
    """State a sweep starts from, plus where its set-up time went."""

    state: Dict[str, object]
    #: ``topology.build_s`` and ``topology.cross_links_s`` of the set-up.
    phases: Dict[str, float] = field(default_factory=dict)


@dataclass
class SweepResult:
    """One sweep's returned tables and its crash count."""

    table: Dict[str, object]
    #: Recovery cases (scheme x case) resolved by the sweep.
    recoveries: int
    #: Cases that ended in an isolated scheme crash; for traffic rows the
    #: crashed share of disrupted demand, summed over scenario records.
    failed: float
    #: Violated identities (Theorem 2, the utilization cap, ...).
    problems: List[str] = field(default_factory=list)


#: A sweep runs each of its stages (a topology, or a traffic scenario)
#: inside ``stage()``, so that the runner can time the stages alone.
StageTimer = Callable[[], ContextManager[None]]


@dataclass(frozen=True)
class Workload:
    """One named workload: how to set it up and sweep it."""

    name: str
    #: Recovery cases per sweep — fixed, independent of the seed.
    recoveries: int
    setup: Callable[..., Setup]
    #: ``sweep(setup)`` or ``sweep(setup, stage)``.
    sweep: Callable[..., SweepResult]


def table_digest(table: Dict[str, object]) -> str:
    """sha256 of a sweep's returned tables (canonical JSON form)."""
    blob = json.dumps(table, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _build_topologies(names: Sequence[str], seed: int, phases: Dict[str, float]):
    """Build each topology with its CSR view and cross-link sets, timed."""
    topos = {}
    build_s = cross_s = 0.0
    for name in names:
        t0 = time.perf_counter()
        topo = topology_from_spec(name, seed=seed)
        topo.csr()
        t1 = time.perf_counter()
        topo.all_cross_links()
        t2 = time.perf_counter()
        build_s += t1 - t0
        cross_s += t2 - t1
        topos[name] = topo
    phases["topology.build_s"] = build_s
    phases["topology.cross_links_s"] = cross_s
    return topos


# ----------------------------------------------------------------------
# Case workloads: Table III and Table IV
# ----------------------------------------------------------------------


def _case_setup(
    seed: int,
    topologies: Sequence[str],
    n_recoverable: int,
    n_irrecoverable: int,
    approaches: Sequence[str],
) -> Setup:
    phases: Dict[str, float] = {}
    topos = _build_topologies(topologies, seed, phases)
    return Setup(
        state=dict(
            seed=seed,
            topos=topos,
            n_recoverable=n_recoverable,
            n_irrecoverable=n_irrecoverable,
            approaches=tuple(approaches),
        ),
        phases=phases,
    )


def _topology_records(state: Dict[str, object], topo):
    """One topology's case records, as ``repro.eval.experiments`` makes them."""
    # The same per-topology case RNG and shared SPT pool as the Table
    # III/IV drivers use.
    rng = random.Random(state["seed"] * 7_919 + 13)
    cache = SPTCache()
    case_set = eval_cases.generate_cases(
        topo, rng, state["n_recoverable"], state["n_irrecoverable"], cache=cache
    )
    runner = EvaluationRunner(
        topo, routing=case_set.routing, approaches=state["approaches"], sp_cache=cache
    )
    return runner.run(case_set)


def _count_errors(records) -> int:
    return sum(1 for r in records if r.status == "error")


def _table3_sweep(setup: Setup, stage: StageTimer = nullcontext) -> SweepResult:
    approaches = setup.state["approaches"]
    table: Dict[str, object] = {}
    pooled: Dict[str, list] = {a: [] for a in approaches}
    result = SweepResult(table=table, recoveries=0, failed=0)
    for name, topo in setup.state["topos"].items():
        with stage():
            records = _topology_records(setup.state, topo)
        summaries = {}
        for a in approaches:
            rec = [r for r in records[a] if r.case.recoverable]
            pooled[a].extend(rec)
            summaries[a] = summarize_recoverable(rec)
            result.recoveries += len(records[a])
            result.failed += _count_errors(records[a])
        table[name] = {a: s.as_dict() for a, s in summaries.items()}
        # Theorem 2: every RTR recovery is an optimal one.
        rtr = summaries.get("RTR")
        if rtr is not None and rtr.recovery_rate != rtr.optimal_recovery_rate:
            result.problems.append(
                f"{name}: RTR recovery rate {rtr.recovery_rate} != "
                f"optimal rate {rtr.optimal_recovery_rate}"
            )
    table["Overall"] = {
        a: summarize_recoverable(pooled[a]).as_dict() for a in approaches
    }
    return result


def _table4_sweep(setup: Setup, stage: StageTimer = nullcontext) -> SweepResult:
    approaches = setup.state["approaches"]
    table: Dict[str, object] = {}
    pooled: Dict[str, list] = {a: [] for a in approaches}
    result = SweepResult(table=table, recoveries=0, failed=0)
    for name, topo in setup.state["topos"].items():
        with stage():
            records = _topology_records(setup.state, topo)
        summaries = {}
        for a in approaches:
            irr = [r for r in records[a] if not r.case.recoverable]
            pooled[a].extend(irr)
            summaries[a] = summarize_irrecoverable(irr)
            result.recoveries += len(records[a])
            result.failed += _count_errors(records[a])
            # No scheme can deliver to a destination cut off by the failure.
            if summaries[a].false_deliveries:
                result.problems.append(
                    f"{name}: {a} delivered {summaries[a].false_deliveries} "
                    "irrecoverable cases"
                )
        table[name] = {a: s.as_dict() for a, s in summaries.items()}
    overall = {a: summarize_irrecoverable(pooled[a]) for a in approaches}
    table["Overall"] = {a: overall[a].as_dict() for a in approaches}
    if "RTR" in overall and "FCP" in overall:
        fcp, rtr = overall["FCP"], overall["RTR"]
        table["Savings"] = {
            "computation_saved_pct": round(
                100.0
                * savings_ratio(fcp.avg_wasted_computation, rtr.avg_wasted_computation),
                1,
            ),
            "transmission_saved_pct": round(
                100.0
                * savings_ratio(
                    fcp.avg_wasted_transmission, rtr.avg_wasted_transmission
                ),
                1,
            ),
        }
    return result


# ----------------------------------------------------------------------
# Traffic workloads: traffic-weighted Table III and congestion-aware RTR
# ----------------------------------------------------------------------


def jitter_demands(matrix: TrafficMatrix, seed: int, sigma: float = 0.5) -> TrafficMatrix:
    """``matrix`` with each pair's demand scaled by a seeded log-normal factor.

    The pair population — and so the recovery work — stays that of
    ``matrix``; the volumes, and every demand-weighted result, come from
    ``seed``.  The total demand is kept.
    """
    rng = random.Random(seed * 7_727 + 3)
    raw = {pair: demand * math.exp(rng.gauss(0.0, sigma)) for pair, demand in matrix.items()}
    scale = matrix.total_demand / math.fsum(raw[p] for p in sorted(raw))
    return TrafficMatrix({p: d * scale for p, d in raw.items()}, name=matrix.name)


def _traffic_setup(
    seed: int,
    topology: str,
    n_scenarios: int,
    n_flows: int,
    approaches: Sequence[str],
    congestion: bool,
    layout_seed: Optional[int],
    utilization_cap: Optional[float] = None,
) -> Setup:
    """Topology, flows, scenarios and engines of one traffic sweep.

    With ``layout_seed`` set, the topology, scenarios and demand pairs
    come from it and ``seed`` only jitters the demand volumes; with
    ``None``, ``seed`` drives every generator as in
    ``traffic_weighted_table3``.
    """
    layout = seed if layout_seed is None else layout_seed
    phases: Dict[str, float] = {}
    topo = _build_topologies((topology,), layout, phases)[topology]
    matrix = generate_matrix(
        topo, "gravity", total_demand=DEFAULT_TOTAL_DEMAND, seed=layout
    )
    if layout_seed is not None:
        matrix = jitter_demands(matrix, seed)
    flow_set = aggregate_flows(matrix, n_flows)
    scenarios = traffic_scenario_list(topo, layout, n_scenarios)
    engines: Dict[str, TrafficEngine] = {}
    if congestion:
        for loss in LOSS_RATES:
            plan = (
                FaultPlan(seed=FAULT_PLAN_SEED, packet_loss_rate=loss) if loss > 0.0 else None
            )
            engines[f"loss{loss:g}"] = TrafficEngine(
                topo,
                flow_set,
                approaches=approaches,
                fault_plan=plan,
                congestion_aware=True,
                headroom=DEFAULT_HEADROOM,
                utilization_cap=utilization_cap,
            )
    else:
        engines[topology] = TrafficEngine(
            topo, flow_set, approaches=approaches, headroom=DEFAULT_HEADROOM
        )
    return Setup(
        state=dict(
            engines=engines,
            scenarios=scenarios,
            approaches=tuple(approaches),
            congestion=congestion,
            utilization_cap=utilization_cap,
        ),
        phases=phases,
    )


def _traffic_sweep(setup: Setup, stage: StageTimer = nullcontext) -> SweepResult:
    """Each engine's sweep, summarized per row as ``traffic_weighted_table3``."""
    approaches = setup.state["approaches"]
    scenarios = setup.state["scenarios"]
    cap = setup.state["utilization_cap"]
    table: Dict[str, object] = {}
    result = SweepResult(table=table, recoveries=0, failed=0.0)
    for row, engine in setup.state["engines"].items():
        # ``TrafficEngine.run_sweep``, one stage per scenario.
        records: Dict[str, list] = {a: [] for a in approaches}
        for index, scenario in enumerate(scenarios):
            with stage():
                per_approach = engine.run_scenario(scenario, index)
            for a in approaches:
                records[a].append(per_approach[a])
        summaries = {a: summarize_traffic(records[a]) for a in approaches}
        table[row] = {a: s.as_dict() for a, s in summaries.items()}
        for a in approaches:
            result.recoveries += len(records[a])
            result.failed += sum(
                rec.error_demand / rec.disrupted_demand
                for rec in records[a]
                if rec.error_demand > 0.0
            )
            summary = table[row][a]
            # No scheme can deliver demand the failure cut off.
            if summaries[a].delivered_demand > summaries[a].recoverable_demand + 1e-9:
                result.problems.append(
                    f"{row}: {a} delivered {summaries[a].delivered_demand} of "
                    f"{summaries[a].recoverable_demand} recoverable demand"
                )
            # Without a cap there is no admission control to shed anything.
            if cap is None and summary["admission_dropped_demand"] != 0.0:
                result.problems.append(
                    f"{row}: {a} shed {summary['admission_dropped_demand']} "
                    "demand with no utilization cap"
                )
            # Theorem 2 survives demand weighting (without chaos or
            # congestion-aware selection, which trade optimality away).
            if (
                a == "RTR"
                and not setup.state["congestion"]
                and summary["demand_recovery_rate_pct"] != summary["demand_optimal_rate_pct"]
            ):
                result.problems.append(
                    f"{row}: {a} weighted recovery "
                    f"{summary['demand_recovery_rate_pct']} != weighted optimal "
                    f"{summary['demand_optimal_rate_pct']}"
                )
            # Admission control holds the cap on the loss-free rung.
            if (
                cap is not None
                and row == "loss0"
                and summary["max_utilization"] > cap + 1e-9
            ):
                result.problems.append(
                    f"{row}: {a} max utilization {summary['max_utilization']} "
                    f"exceeds the {cap} cap"
                )
    return result


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------


def table3_setup(
    seed: int,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    n_cases: int = 300,
    approaches: Sequence[str] = ("RTR", "FCP", "MRC"),
) -> Setup:
    return _case_setup(seed, topologies, n_cases, 0, approaches)


def table4_setup(
    seed: int,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    n_cases: int = 150,
    approaches: Sequence[str] = ("RTR", "FCP"),
) -> Setup:
    return _case_setup(seed, topologies, 0, n_cases, approaches)


def traffic_setup(
    seed: int,
    topology: str = "scale:10000",
    n_scenarios: int = 2,
    n_flows: int = 200_000,
    approaches: Sequence[str] = ("RTR",),
    layout_seed: Optional[int] = 0,
) -> Setup:
    return _traffic_setup(
        seed, topology, n_scenarios, n_flows, approaches, False, layout_seed
    )


def congestion_setup(
    seed: int,
    topology: str = "AS7018",
    n_scenarios: int = 10,
    n_flows: int = 1_000_000,
    approaches: Sequence[str] = ("RTR",),
    utilization_cap: Optional[float] = UTILIZATION_CAP,
    layout_seed: Optional[int] = None,
) -> Setup:
    return _traffic_setup(
        seed, topology, n_scenarios, n_flows, approaches, True, layout_seed, utilization_cap
    )


def uncapped_congestion_setup(seed: int, layout_seed: Optional[int] = 0, **kwargs) -> Setup:
    """:func:`congestion_setup` without admission control, on seed 0's layout."""
    return congestion_setup(seed, utilization_cap=None, layout_seed=layout_seed, **kwargs)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("table3_paper", 8 * 300 * 3, table3_setup, _table3_sweep),
        Workload(
            "table4_irrecoverable", 8 * 150 * 2, table4_setup, _table4_sweep
        ),
        Workload("traffic_scale10k", 2, traffic_setup, _traffic_sweep),
        Workload(
            "congestion_as7018",
            10 * len(LOSS_RATES),
            congestion_setup,
            _traffic_sweep,
        ),
        Workload(
            "congestion_uncapped_as7018",
            10 * len(LOSS_RATES),
            uncapped_congestion_setup,
            _traffic_sweep,
        ),
    )
}
