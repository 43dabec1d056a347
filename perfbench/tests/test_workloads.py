"""The workloads, composed from public calls, equal the library's drivers."""

from repro.eval.experiments import (
    table3_recoverable,
    table4_wasted_summary,
    traffic_weighted_table3,
)
from repro.traffic import generate_matrix
from repro.topology import isp_catalog

import workloads

TOPOS = ("AS1239", "AS209")


def test_table3_sweep_equals_table3_recoverable():
    setup = workloads.table3_setup(1, topologies=TOPOS, n_cases=20)
    result = workloads._table3_sweep(setup)
    assert result.table == table3_recoverable(TOPOS, n_cases=20, seed=1)
    assert result.recoveries == len(TOPOS) * 20 * 3
    assert result.failed == 0 and result.problems == []


def test_table4_sweep_equals_table4_wasted_summary():
    setup = workloads.table4_setup(1, topologies=TOPOS, n_cases=15)
    result = workloads._table4_sweep(setup)
    assert result.table == table4_wasted_summary(TOPOS, n_cases=15, seed=1)
    assert result.recoveries == len(TOPOS) * 15 * 2
    assert result.problems == []


def test_traffic_sweep_equals_traffic_weighted_table3():
    approaches = ("RTR", "FCP")
    setup = workloads.traffic_setup(
        2, topology="AS1239", n_scenarios=3, n_flows=20_000,
        approaches=approaches, layout_seed=None,
    )
    result = workloads._traffic_sweep(setup)
    expected = traffic_weighted_table3(
        ("AS1239",), n_scenarios=3, seed=2, n_flows=20_000, approaches=approaches
    )
    assert result.table == {"AS1239": expected["AS1239"]}
    assert result.recoveries == 3 * len(approaches)
    assert result.problems == []


def test_congestion_sweep_loss_free_rung_equals_traffic_weighted_table3():
    setup = workloads.congestion_setup(0, topology="AS1239", n_scenarios=3, n_flows=20_000)
    result = workloads._traffic_sweep(setup)
    expected = traffic_weighted_table3(
        ("AS1239",), n_scenarios=3, seed=0, n_flows=20_000, approaches=("RTR",),
        congestion_aware=True, utilization_cap=workloads.UTILIZATION_CAP,
    )
    assert result.table["loss0"] == expected["AS1239"]
    assert set(result.table) == {"loss0", "loss0.05"}
    assert result.recoveries == 3 * len(workloads.LOSS_RATES)


def test_jitter_keeps_pairs_and_total_and_follows_the_seed():
    matrix = generate_matrix(isp_catalog.build("AS1239", seed=0), "gravity", seed=0)
    a = workloads.jitter_demands(matrix, 1)
    assert list(a.pairs()) == list(matrix.pairs())
    assert abs(a.total_demand - matrix.total_demand) < 1e-9 * matrix.total_demand
    assert dict(a.items()) == dict(workloads.jitter_demands(matrix, 1).items())
    assert dict(a.items()) != dict(workloads.jitter_demands(matrix, 2).items())


def test_uncapped_congestion_sweep_equals_traffic_weighted_table3():
    setup = workloads.uncapped_congestion_setup(
        0, topology="AS1239", n_scenarios=3, n_flows=20_000, layout_seed=None
    )
    result = workloads._traffic_sweep(setup)
    expected = traffic_weighted_table3(
        ("AS1239",), n_scenarios=3, seed=0, n_flows=20_000, approaches=("RTR",),
        congestion_aware=True,
    )
    assert result.table["loss0"] == expected["AS1239"]
    assert result.problems == []
    assert all(
        row["RTR"]["admission_dropped_demand"] == 0.0 for row in result.table.values()
    )
