"""Tests for congestion-aware traffic sweeps (penalty, cap, parity).

Covers the end-to-end contract of ``TrafficEngine(congestion_aware=...)``:

* the flag is strictly off by default, and an explicit ``False`` is
  bit-identical to the default sweep (the pinned golden sweeps of
  tests/eval/test_golden.py stay byte-identical because nothing in the
  default path changes);
* congestion-aware serial and scenario-sharded parallel sweeps agree
  bit-for-bit;
* ``utilization_cap`` admission control sheds demand instead of
  overloading provisioned links, and its validation errors fire;
* the per-scenario load state (intact loads, prefix walks) is computed
  once and never leaks from one approach into the next;
* the provisioning layer rejects non-positive headroom.
"""

from __future__ import annotations

import pytest

from repro.eval.experiments import traffic_weighted_table3
from repro.eval.parallel import parallel_traffic
from repro.routing import RoutingTable
from repro.traffic import (
    TrafficEngine,
    TrafficMatrix,
    aggregate_flows,
    classify_pairs,
    provision_capacities,
    summarize_traffic,
    uniform_matrix,
)

SWEEP = dict(
    topologies=("AS209",),
    n_scenarios=2,
    seed=0,
    model="gravity",
    n_flows=20_000,
    approaches=("RTR",),
)


@pytest.fixture()
def flow_set(paper_topo):
    return aggregate_flows(uniform_matrix(paper_topo, total_demand=100.0), 10_000)


class TestOffByDefault:
    def test_default_engine_is_not_congestion_aware(self, paper_topo, flow_set):
        engine = TrafficEngine(paper_topo, flow_set, approaches=("RTR",))
        assert engine.congestion_aware is False
        assert engine.utilization_cap is None

    def test_explicit_false_is_bit_identical_to_default(self):
        default = traffic_weighted_table3(**SWEEP)
        explicit = traffic_weighted_table3(**SWEEP, congestion_aware=False)
        assert explicit == default


class TestCongestionAwareSweep:
    def test_penalty_reduces_max_utilization(self, paper_topo, flow_set):
        scenarios_aware = []
        scenarios_blind = []
        for congestion_aware, out in (
            (False, scenarios_blind),
            (True, scenarios_aware),
        ):
            engine = TrafficEngine(
                paper_topo.copy(),
                flow_set,
                approaches=("RTR",),
                congestion_aware=congestion_aware,
            )
            from repro.failures import FailureScenario
            from repro.topology.examples import PAPER_FAILURE_REGION

            scenario = FailureScenario.from_region(
                engine.topo, PAPER_FAILURE_REGION
            )
            out.append(engine.run_scenario(scenario)["RTR"])
        aware = summarize_traffic(scenarios_aware)
        blind = summarize_traffic(scenarios_blind)
        # The penalized metric must never congest *more*, and the sweep
        # keeps delivering (the penalty reroutes, it does not drop).
        assert aware.max_utilization <= blind.max_utilization + 1e-9
        assert aware.delivered_demand > 0.0

    def test_serial_equals_parallel(self):
        serial = traffic_weighted_table3(
            **SWEEP, congestion_aware=True, utilization_cap=1.5
        )
        parallel = parallel_traffic(
            SWEEP["topologies"],
            SWEEP["n_scenarios"],
            seed=SWEEP["seed"],
            model=SWEEP["model"],
            n_flows=SWEEP["n_flows"],
            approaches=SWEEP["approaches"],
            jobs=2,
            shards_per_topology=2,
            congestion_aware=True,
            utilization_cap=1.5,
        )
        assert parallel == serial

    def test_summary_reports_congestion_columns(self):
        table = traffic_weighted_table3(**SWEEP, congestion_aware=True)
        row = table["AS209"]["RTR"]
        for key in (
            "max_utilization",
            "congestion_free_pct",
            "utilization_p50",
            "utilization_p95",
            "utilization_p99",
            "admission_dropped_demand",
        ):
            assert key in row


@pytest.mark.parametrize("congestion_aware", [False, True])
class TestPerScenarioLoadState:
    def test_two_approaches_equal_one_engine_each(
        self, paper_topo, paper_scenario, flow_set, congestion_aware
    ):
        # Each approach must start from the intact loads alone: a shared
        # map or prefix list mutated by RTR would leak into FCP's record.
        both = TrafficEngine(
            paper_topo,
            flow_set,
            approaches=("RTR", "FCP"),
            congestion_aware=congestion_aware,
        ).run_scenario(paper_scenario)
        for approach in ("RTR", "FCP"):
            alone = TrafficEngine(
                paper_topo,
                flow_set,
                approaches=(approach,),
                congestion_aware=congestion_aware,
            ).run_scenario(paper_scenario)
            assert both[approach] == alone[approach]
            assert both[approach].delivered_demand > 0.0

    @pytest.mark.parametrize("approaches", [("RTR",), ("RTR", "FCP")])
    def test_intact_loads_routed_once_per_scenario(
        self,
        paper_topo,
        paper_scenario,
        flow_set,
        monkeypatch,
        congestion_aware,
        approaches,
    ):
        engine = TrafficEngine(
            paper_topo,
            flow_set,
            approaches=approaches,
            congestion_aware=congestion_aware,
        )
        intact = classify_pairs(
            paper_topo, engine.routing, paper_scenario, flow_set
        ).intact_by_destination
        calls = []
        original = RoutingTable.edge_loads_to

        def counting(self, destination, demands):
            calls.append(destination)
            return original(self, destination, demands)

        monkeypatch.setattr(RoutingTable, "edge_loads_to", counting)
        engine.run_scenario(paper_scenario)
        assert intact
        assert sorted(calls) == sorted(intact)


class TestAdmissionControl:
    def test_cap_requires_congestion_aware(self, paper_topo, flow_set):
        with pytest.raises(ValueError, match="requires congestion_aware"):
            TrafficEngine(paper_topo, flow_set, utilization_cap=1.5)

    def test_cap_must_be_positive(self, paper_topo, flow_set):
        with pytest.raises(ValueError, match="utilization_cap"):
            TrafficEngine(
                paper_topo,
                flow_set,
                congestion_aware=True,
                utilization_cap=0.0,
            )

    def test_tight_cap_sheds_instead_of_overloading(
        self, paper_topo, paper_scenario, flow_set
    ):
        uncapped = TrafficEngine(
            paper_topo.copy(),
            flow_set,
            approaches=("RTR",),
            congestion_aware=True,
        )
        capped = TrafficEngine(
            paper_topo.copy(),
            flow_set,
            approaches=("RTR",),
            congestion_aware=True,
            utilization_cap=1.0,
        )
        from repro.failures import FailureScenario
        from repro.topology.examples import PAPER_FAILURE_REGION

        free = uncapped.run_scenario(
            FailureScenario.from_region(uncapped.topo, PAPER_FAILURE_REGION)
        )["RTR"]
        record = capped.run_scenario(
            FailureScenario.from_region(capped.topo, PAPER_FAILURE_REGION)
        )["RTR"]
        assert record.admission_dropped_demand >= 0.0
        assert free.admission_dropped_demand == 0.0
        # Shedding is bounded by what was disrupted, and whatever was
        # admitted must not beat the uncapped delivery.
        assert record.admission_dropped_demand <= record.disrupted_demand + 1e-9
        assert record.delivered_demand <= free.delivered_demand + 1e-9


class TestProvisioningValidation:
    def test_nonpositive_headroom_rejected(self, tiny_line):
        matrix = TrafficMatrix({(0, 2): 6.0})
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="headroom"):
                provision_capacities(tiny_line, matrix, headroom=bad)
