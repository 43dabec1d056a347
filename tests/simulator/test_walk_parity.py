"""Plan path == recover path: the walk plane's parity property suite.

Every scheme that compiles cases into walk plans has two recovery paths:
:meth:`~repro.eval.EvaluationRunner.run` sends each planned convergence
window through one :class:`~repro.simulator.WalkBatch`, while
``instance.recover(case)`` runs the same case on its own.  Over random
topologies x every registered scheme x chaos on/off, the two result
streams must be bit-identical (floats compared via ``float.hex``).
"""

import random

import pytest

from repro.chaos import FaultPlan, SecondaryFailure
from repro.eval import EvaluationRunner, generate_cases
from repro.schemes import scheme_names
from repro.topology.generators import geometric_isp

ALL_SCHEMES = scheme_names()

#: Schemes with a ``plan_recovery``; the clean sweep must plan at least
#: one of their windows, or the parity below compares a path with itself.
PLANNING_SCHEMES = ("RTR", "MRC", "r3", "OSPF", "Oracle")

#: (nodes, links, topology seed) for the random-topology sweep — small
#: enough to keep the matrix fast, dense enough for alternate paths.
RANDOM_TOPOLOGIES = [(24, 40, 11), (40, 64, 23), (32, 52, 5)]

CHAOS_PLANS = {
    "clean": None,
    "chaos": FaultPlan(
        seed=42,
        packet_loss_rate=0.08,
        secondary_failures=(SecondaryFailure(at_hop=4),),
    ),
}


def _hex(value):
    return float(value).hex()


def fingerprint(case, result):
    """Every observable bit of one case's result, floats by hex."""
    acc = result.accounting
    return (
        (case.initiator, case.destination, case.trigger),
        result.approach,
        result.status,
        result.delivered,
        None if result.path is None else tuple(result.path.nodes),
        None if result.path is None else _hex(result.path.cost),
        acc.sp_computations,
        acc.hops_traveled,
        _hex(acc.clock),
        tuple((_hex(t), b) for t, b in acc.header_timeline),
        acc.retransmissions,
        _hex(result.phase1_duration),
        result.phase1_hops,
        result.drop_hops,
        result.drop_packet_bytes,
        result.fallback,
        result.retries,
        result.error,
    )


def make_runner(topo, case_set, fault_plan):
    return EvaluationRunner(
        topo,
        routing=case_set.routing,
        approaches=ALL_SCHEMES,
        fault_plan=fault_plan,
    )


def planned_sweep(topo, case_set, fault_plan):
    records = make_runner(topo, case_set, fault_plan).run(case_set)
    return {
        name: [fingerprint(r.case, r.result) for r in records[name]]
        for name in ALL_SCHEMES
    }


def recover_sweep(topo, case_set, fault_plan):
    """Per-case ``recover`` over the runner's own per-window instances.

    Returns the fingerprints and the schemes that could plan at least
    one window.
    """
    runner = make_runner(topo, case_set, fault_plan)
    prints = {name: [] for name in ALL_SCHEMES}
    planned = set()
    for index, cases in sorted(case_set.by_scenario().items()):
        instances = runner._instances(index, case_set)
        for name in ALL_SCHEMES:
            instance = instances[name]
            if instance.can_plan():
                planned.add(name)
            prints[name].extend(
                fingerprint(case, instance.recover(case)) for case in cases
            )
    return prints, planned


@pytest.mark.parametrize("chaos", sorted(CHAOS_PLANS))
@pytest.mark.parametrize("nodes,links,seed", RANDOM_TOPOLOGIES)
def test_plan_path_matches_recover_path(nodes, links, seed, chaos):
    topo = geometric_isp(nodes, links, random.Random(seed), name=f"rand{seed}")
    case_set = generate_cases(topo, random.Random(seed + 1), 24, 6)
    plan = CHAOS_PLANS[chaos]
    batched = planned_sweep(topo, case_set, plan)
    sequential, planned = recover_sweep(topo, case_set, plan)
    for name in ALL_SCHEMES:
        assert len(batched[name]) == len(case_set.cases)
        assert batched[name] == sequential[name], f"{name}: plan != recover"
    if plan is None:
        assert planned >= set(PLANNING_SCHEMES)
