"""Unit tests for the walk plane (repro.simulator.batch).

Walk outcomes of every spec kind run through a :class:`WalkBatch`,
per-request error capture, the batch lifecycle, and the observability
surface.
"""

import pytest

from repro import obs
from repro.errors import ForwardingLoopError, SimulationError, UnknownLinkError
from repro.failures import FailureScenario, LocalView
from repro.simulator import (
    ForwardingEngine,
    Packet,
    RecoveryAccounting,
    WalkBatch,
    run_table_walk,
)
from repro.topology import Link


def make_engine(topo, failed_nodes=(), failed_links=()):
    scenario = FailureScenario(topo, failed_nodes, failed_links)
    return ForwardingEngine(topo, LocalView(scenario))


def route_fingerprint(packet, acc, outcome):
    return (
        packet.at,
        packet.recovery_hops,
        acc.hops_traveled,
        acc.clock.hex(),
        [(t.hex(), b) for t, b in acc.header_timeline],
        outcome.delivered,
        outcome.drop_node,
        outcome.drop_reason,
    )


def table_fingerprint(packet, acc, outcome):
    return (
        packet.at,
        acc.hops_traveled,
        acc.clock.hex(),
        [(t.hex(), b) for t, b in acc.header_timeline],
        tuple(outcome.visited),
        outcome.reached,
        outcome.drop_node,
        outcome.drop_reason,
        outcome.truncated,
    )


def run_route(engine, route):
    """One source route through a batch, and the same walk run standalone."""
    source = route[0]
    packet = Packet(source=source, destination=route[-1])
    acc = RecoveryAccounting()
    batch = WalkBatch(engine)
    handle = batch.add_route(packet, route, acc)
    outcome = batch.execute().result(handle)
    alone = Packet(source=source, destination=route[-1])
    alone_acc = RecoveryAccounting()
    alone_outcome = engine.follow_source_route_outcome(alone, route, alone_acc)
    assert route_fingerprint(packet, acc, outcome) == route_fingerprint(
        alone, alone_acc, alone_outcome
    )
    return packet, acc, outcome


def run_table(engine, start, table, destination, budget):
    """One table walk through a batch, and the same walk run standalone."""
    packet = Packet(source=start, destination=destination)
    acc = RecoveryAccounting()
    batch = WalkBatch(engine)
    handle = batch.add_table_walk(packet, table, destination, budget, acc)
    outcome = batch.execute().result(handle)
    alone = Packet(source=start, destination=destination)
    alone_acc = RecoveryAccounting()
    alone_outcome = run_table_walk(
        engine, alone, table, destination, budget, alone_acc
    )
    assert table_fingerprint(packet, acc, outcome) == table_fingerprint(
        alone, alone_acc, alone_outcome
    )
    return packet, acc, outcome


class TestWalkOutcomes:
    """Outcomes of each spec kind, identical to the walk run standalone."""

    def test_route_delivered(self, ring8):
        packet, acc, outcome = run_route(make_engine(ring8), [0, 1, 2, 3])
        assert outcome.delivered is True
        assert outcome.drop_node is None and outcome.drop_reason is None
        assert packet.at == 3
        assert packet.recovery_hops == acc.hops_traveled == 3
        assert len(acc.header_timeline) == 3

    def test_route_blocked_midway(self, ring8):
        engine = make_engine(ring8, failed_links=[Link.of(2, 3)])
        packet, acc, outcome = run_route(engine, [0, 1, 2, 3, 4])
        assert outcome.delivered is False
        assert outcome.drop_node == 2
        assert "route hop 2 -> 3 is unreachable" in outcome.drop_reason
        assert packet.at == 2
        assert acc.hops_traveled == 2

    def test_route_invalid_start_raises(self, ring8):
        batch = WalkBatch(make_engine(ring8))
        handle = batch.add_route(
            Packet(source=0, destination=2), [1, 2], RecoveryAccounting()
        )
        batch.execute()
        with pytest.raises(ForwardingLoopError):
            batch.result(handle)

    @pytest.mark.parametrize(
        "table, destination, budget, expect",
        [
            ({0: 1, 1: 2}, 2, 40, "reached"),
            ({0: 1}, 2, 40, "stuck"),
            ({0: 1, 1: 0}, 2, 5, "truncated"),
        ],
    )
    def test_table_walk_statuses(self, tiny_line, table, destination, budget, expect):
        packet, acc, outcome = run_table(
            make_engine(tiny_line), 0, table, destination, budget
        )
        visited = {
            "reached": [0, 1, 2],
            "stuck": [0, 1],
            "truncated": [0, 1, 0, 1, 0, 1],
        }[expect]
        assert outcome.visited == visited
        assert outcome.reached == (expect == "reached")
        assert outcome.truncated == (expect == "truncated")
        assert packet.at == visited[-1]
        assert acc.hops_traveled == len(visited) - 1
        if expect == "reached":
            assert outcome.drop_node is None
        else:
            assert outcome.drop_node == visited[-1]
        if expect == "stuck":
            assert outcome.drop_reason == "no table next hop at 1"
        if expect == "truncated":
            assert outcome.drop_reason == (
                "table walk exceeded 5 hops without terminating"
            )

    def test_table_walk_blocked_hop(self, tiny_line):
        engine = make_engine(tiny_line, failed_links=[Link.of(1, 2)])
        packet, acc, outcome = run_table(engine, 0, {0: 1, 1: 2}, 2, 40)
        assert outcome.visited == [0, 1]
        assert not outcome.reached and not outcome.truncated
        assert outcome.drop_node == 1
        assert "table hop 1 -> 2 is unreachable" in outcome.drop_reason
        assert acc.hops_traveled == 1

    def test_table_walk_destination_on_budget_boundary(self, tiny_line):
        # Reaching the destination on exactly the budget-th hop truncates:
        # the destination check happens at the top of the next iteration,
        # which never runs.
        packet, acc, outcome = run_table(
            make_engine(tiny_line), 0, {0: 1, 1: 2}, 2, 2
        )
        assert outcome.visited == [0, 1, 2]
        assert packet.at == 2
        assert outcome.reached is False
        assert outcome.truncated is True

    def test_table_with_non_adjacent_hop_raises(self, tiny_line):
        batch = WalkBatch(make_engine(tiny_line))
        handle = batch.add_table_walk(
            Packet(source=0, destination=2), {0: 2}, 2, 40, RecoveryAccounting()
        )
        batch.execute()
        with pytest.raises(UnknownLinkError):
            batch.result(handle)

    def test_callback_walk(self, ring8):
        batch = WalkBatch(make_engine(ring8))
        handle = batch.add_callback_walk(
            Packet(source=0, destination=0),
            lambda node, pkt: (node + 1) if node < 3 else None,
            RecoveryAccounting(),
        )
        batch.execute()
        assert batch.result(handle).visited == [0, 1, 2, 3]

    def test_chaos_engine_route(self, ring8):
        from repro.chaos import ChaosForwardingEngine, ChaosRuntime, FaultPlan

        scenario = FailureScenario(ring8)
        runtime = ChaosRuntime(FaultPlan(seed=7, packet_loss_rate=0.0), scenario)
        engine = ChaosForwardingEngine(ring8, LocalView(scenario), runtime)
        batch = WalkBatch(engine)
        handle = batch.add_route(
            Packet(source=0, destination=2), [0, 1, 2], RecoveryAccounting()
        )
        batch.execute()
        assert batch.result(handle).delivered

    def test_mixed_batch(self, ring8):
        # Routes, a table walk, and a callback in one batch: each outcome
        # is the one its handle asked for, in insertion order.
        engine = make_engine(ring8, failed_links=[Link.of(4, 5)])
        batch = WalkBatch(engine)
        p1, a1 = Packet(source=0, destination=3), RecoveryAccounting()
        h1 = batch.add_route(p1, [0, 1, 2, 3], a1)
        p2, a2 = Packet(source=3, destination=6), RecoveryAccounting()
        h2 = batch.add_route(p2, [3, 4, 5, 6], a2)
        p3, a3 = Packet(source=0, destination=4), RecoveryAccounting()
        h3 = batch.add_table_walk(p3, {i: i + 1 for i in range(4)}, 4, 40, a3)
        p4, a4 = Packet(source=7, destination=7), RecoveryAccounting()
        h4 = batch.add_callback_walk(p4, lambda node, pkt: None, a4)
        batch.execute()
        assert [h1, h2, h3, h4] == [0, 1, 2, 3]

        r1 = batch.result(h1)
        assert r1.delivered and p1.at == 3 and a1.hops_traveled == 3
        r2 = batch.result(h2)
        assert not r2.delivered and r2.drop_node == 4 and p2.at == 4
        assert "route hop 4 -> 5 is unreachable" in r2.drop_reason
        r3 = batch.result(h3)
        assert r3.reached and r3.visited == [0, 1, 2, 3, 4]
        assert batch.result(h4).visited == [7]

        # Each walk alone on a fresh engine gives the same outcome.
        alone = make_engine(ring8, failed_links=[Link.of(4, 5)])
        q1, b1 = Packet(source=0, destination=3), RecoveryAccounting()
        o1 = alone.follow_source_route_outcome(q1, [0, 1, 2, 3], b1)
        q2, b2 = Packet(source=3, destination=6), RecoveryAccounting()
        o2 = alone.follow_source_route_outcome(q2, [3, 4, 5, 6], b2)
        q3, b3 = Packet(source=0, destination=4), RecoveryAccounting()
        o3 = run_table_walk(alone, q3, {i: i + 1 for i in range(4)}, 4, 40, b3)
        assert route_fingerprint(p1, a1, r1) == route_fingerprint(q1, b1, o1)
        assert route_fingerprint(p2, a2, r2) == route_fingerprint(q2, b2, o2)
        assert table_fingerprint(p3, a3, r3) == table_fingerprint(q3, b3, o3)


class TestLifecycle:
    def test_result_before_execute_raises(self, ring8):
        batch = WalkBatch(make_engine(ring8))
        handle = batch.add_route(
            Packet(source=0, destination=1), [0, 1], RecoveryAccounting()
        )
        with pytest.raises(SimulationError):
            batch.result(handle)

    def test_add_after_execute_raises(self, ring8):
        batch = WalkBatch(make_engine(ring8))
        batch.execute()
        with pytest.raises(SimulationError):
            batch.add_route(
                Packet(source=0, destination=1), [0, 1], RecoveryAccounting()
            )

    def test_double_execute_raises(self, ring8):
        batch = WalkBatch(make_engine(ring8))
        batch.execute()
        with pytest.raises(SimulationError):
            batch.execute()

    def test_add_without_engine_raises(self):
        batch = WalkBatch(None)
        with pytest.raises(SimulationError):
            batch.add_route(
                Packet(source=0, destination=1), [0, 1], RecoveryAccounting()
            )

    def test_exceptions_are_captured_per_request(self, ring8):
        batch = WalkBatch(make_engine(ring8))

        def exploding(node, pkt):
            raise RuntimeError("synthetic walk crash")

        bad = batch.add_callback_walk(
            Packet(source=0, destination=0), exploding, RecoveryAccounting()
        )
        good = batch.add_route(
            Packet(source=0, destination=2), [0, 1, 2], RecoveryAccounting()
        )
        batch.execute()
        assert batch.result(good).delivered
        with pytest.raises(RuntimeError, match="synthetic walk crash"):
            batch.result(bad)


class TestObservability:
    @pytest.fixture(autouse=True)
    def obs_state(self):
        prior = obs.enabled()
        obs.enable()
        obs.reset()
        yield
        obs.reset()
        if not prior:
            obs.disable()

    def test_fallback_counter_and_batch_histogram(self, ring8):
        batch = WalkBatch(make_engine(ring8))
        for _ in range(3):
            batch.add_route(
                Packet(source=0, destination=2), [0, 1, 2], RecoveryAccounting()
            )
        batch.execute()
        metrics = obs.snapshot()["metrics"]
        assert metrics["counters"]["simulator.walks.fallback"] == 3
        hist = metrics["histograms"]["simulator.walks.batch_size"]
        assert hist["count"] == 1 and hist["sum"] == 3.0

    def test_counters_visible_in_obs_report(self, ring8):
        # The `repro obs report` rendering must surface the walk-plane
        # counters and the batch-size histogram.
        batch = WalkBatch(make_engine(ring8))
        batch.add_route(
            Packet(source=0, destination=2), [0, 1, 2], RecoveryAccounting()
        )
        batch.execute()
        run = {
            "manifest": {"name": "walkplane-test", "seed": 0},
            "span_aggregates": {},
            "metrics": obs.snapshot()["metrics"],
            "events": [],
        }
        text = obs.render_report(run)
        assert "simulator.walks.fallback" in text
        assert "simulator.walks.batch_size" in text
