"""Tests for repro.te.penalty (quantized load penalty + penalized SPT).

The load-penalized metric must (a) quantize deterministically, (b)
degenerate to the base metric when nothing is loaded, and (c) produce
bit-identical trees under both kernel backends — the same promise the
base kernels make in tests/routing/test_kernels.py.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.routing import Path, penalized_shortest_path_tree, shortest_path_tree
from repro.te.penalty import (
    DEFAULT_PENALTY_ALPHA,
    DEFAULT_UTILIZATION_CLIP,
    PENALTY_QUANT,
    LinkPenalty,
    LivePenalty,
    penalty_units,
    recost_path,
    total_units,
)
from repro.topology import Link, Topology, grid_topology, npcsr
from repro.traffic import LinkLoadMap

numpy_missing = npcsr.numpy_or_none() is None
needs_numpy = pytest.mark.skipif(numpy_missing, reason="numpy not installed")


@pytest.fixture
def square() -> Topology:
    """A 4-cycle 0-1-2-3-0: exactly two disjoint routes between corners."""
    topo = Topology("square")
    topo.add_node(0, Point(0, 0))
    topo.add_node(1, Point(100, 0))
    topo.add_node(2, Point(100, 100))
    topo.add_node(3, Point(0, 100))
    topo.add_link(0, 1)
    topo.add_link(1, 2)
    topo.add_link(2, 3)
    topo.add_link(3, 0)
    return topo


class TestPenaltyUnits:
    def test_idle_and_negative_are_free(self):
        assert penalty_units(0.0) == 0
        assert penalty_units(-1.0) == 0

    def test_at_capacity_default_strength(self):
        # util 1.0 under the defaults: ⌊32 · 8 · 1²⌋ = 256 units, i.e. a
        # link at capacity looks (32 + 256)/32 = 9x longer.
        assert penalty_units(1.0) == PENALTY_QUANT * DEFAULT_PENALTY_ALPHA

    def test_monotone_in_utilization(self):
        samples = [penalty_units(u / 10) for u in range(0, 25)]
        assert samples == sorted(samples)

    def test_clip_bounds_the_units(self):
        at_clip = penalty_units(DEFAULT_UTILIZATION_CLIP)
        assert penalty_units(10.0) == at_clip
        assert penalty_units(1e9) == at_clip

    def test_integer_and_deterministic(self):
        u = penalty_units(0.7, alpha=3.0, exponent=1.5)
        assert isinstance(u, int)
        assert u == penalty_units(0.7, alpha=3.0, exponent=1.5)


class TestLinkPenalty:
    def test_from_loads_skips_uncapacitated_links(self, square):
        square.set_link_capacity(Link.of(0, 1), 10.0)
        penalty = LinkPenalty.from_loads(
            square, {Link.of(0, 1): 10.0, Link.of(1, 2): 99.0}
        )
        # (1,2) has no capacity annotation: no penalty, by construction.
        assert set(penalty.units) == {Link.of(0, 1)}
        assert penalty.max_units() == penalty_units(1.0)

    def test_null_snapshot_on_idle_network(self, square):
        square.set_link_capacity(Link.of(0, 1), 10.0)
        penalty = LinkPenalty.from_loads(square, {Link.of(0, 1): 0.0})
        assert penalty.is_null()
        assert len(penalty) == 0
        assert penalty.max_units() == 0

    def test_lid_units_array_shape_and_values(self, square):
        square.set_link_capacity(Link.of(0, 1), 10.0)
        penalty = LinkPenalty.from_loads(square, {Link.of(0, 1): 10.0})
        arr = penalty.lid_units(square)
        csr = square.csr()
        assert len(arr) == csr.lid_size
        assert arr[csr.pair_lid[(0, 1)]] == penalty_units(1.0)
        assert sum(arr) == total_units(penalty.units)

    def test_total_units_fingerprint(self):
        assert total_units({Link.of(0, 1): 3, Link.of(1, 2): 4}) == 7
        assert total_units({}) == 0


class TestLivePenalty:
    """Incremental re-quantization equals a full rebuild after every step."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_snapshot_equals_from_loads_after_every_step(self, data):
        topo = grid_topology(3, 3)
        links = sorted(topo.links())
        # ``None`` leaves a link without capacity: it is never penalized.
        capacities = data.draw(
            st.lists(
                st.one_of(st.none(), st.floats(0.5, 20.0)),
                min_size=len(links),
                max_size=len(links),
            )
        )
        for link, capacity in zip(links, capacities):
            if capacity is not None:
                topo.set_link_capacity(link, capacity)
        loads = LinkLoadMap(topo)
        # Loads up to 60 against capacities from 0.5 run far past the clip.
        demand = st.floats(0.0, 60.0)
        loads.merge_loads(
            data.draw(st.dictionaries(st.sampled_from(links), demand, max_size=4))
        )
        live = LivePenalty(loads)
        previous = None
        steps = data.draw(st.integers(1, 12))
        for _ in range(steps):
            kind = data.draw(st.sampled_from(["link", "path", "shed"]))
            if kind == "link":
                link = data.draw(st.sampled_from(links))
                loads.add_link(link, data.draw(demand))
                touched = [link]
            elif kind == "shed":
                # A load that falls must lose its units again.
                link = data.draw(st.sampled_from(links))
                loads.merge_loads({link: -data.draw(demand)})
                touched = [link]
            else:
                # A random walk (revisits allowed) stands in for a path.
                nodes = [data.draw(st.sampled_from(sorted(topo.nodes())))]
                for _ in range(data.draw(st.integers(1, 6))):
                    nodes.append(
                        data.draw(st.sampled_from(sorted(topo.neighbors(nodes[-1]))))
                    )
                path = Path(tuple(nodes), 0.0)
                loads.add_path(path, data.draw(demand))
                touched = [Link.of(a, b) for a, b in path.hops()]
            live.refresh(touched)
            snapshot = live.snapshot()
            expected = LinkPenalty.from_loads(topo, loads.loads())
            assert snapshot.units == expected.units
            assert snapshot.lid_units(topo) == expected.lid_units(topo)
            assert snapshot.max_units() <= penalty_units(DEFAULT_UTILIZATION_CLIP)
            if previous is not None:
                # Snapshots are copies: later refreshes never reach them.
                old_snapshot, old_expected = previous
                assert old_snapshot.units == old_expected.units
                assert old_snapshot.lid_units(topo) == old_expected.lid_units(topo)
            previous = (snapshot, expected)


class TestPenalizedTree:
    def test_zero_units_is_scaled_base_metric(self, grid5):
        csr = grid5.csr()
        base = shortest_path_tree(grid5, 0)
        pen = penalized_shortest_path_tree(
            grid5, 0, [0] * csr.lid_size, PENALTY_QUANT
        )
        assert set(pen.dist) == set(base.dist)
        for node, d in base.dist.items():
            assert pen.dist[node] == d * PENALTY_QUANT

    def test_penalty_steers_around_loaded_link(self, square):
        # Unpenalized, 0 -> 2 ties and resolves deterministically; loading
        # one side of the square must flip the route to the other side.
        csr = square.csr()
        units = [0] * csr.lid_size
        base = penalized_shortest_path_tree(square, 0, units, PENALTY_QUANT)
        via = base.path_from(2).nodes[1]
        other = 3 if via == 1 else 1
        units[csr.pair_lid[(0, via)]] = penalty_units(1.0)
        steered = penalized_shortest_path_tree(square, 0, units, PENALTY_QUANT)
        assert steered.path_from(2).nodes == (0, other, 2)

    def test_excluded_links_respected(self, square):
        csr = square.csr()
        tree = penalized_shortest_path_tree(
            square,
            0,
            [0] * csr.lid_size,
            PENALTY_QUANT,
            excluded_links={Link.of(0, 1)},
        )
        assert tree.path_from(1).nodes == (0, 3, 2, 1)

    @needs_numpy
    def test_numpy_python_bit_parity(self, grid5):
        csr = grid5.csr()
        units = [0] * csr.lid_size
        # A deterministic non-trivial load pattern over every third lid.
        for lid in range(0, csr.lid_size, 3):
            units[lid] = penalty_units(0.5 + (lid % 7) / 4.0)
        trees = {}
        for backend in ("python", "numpy"):
            os.environ["REPRO_KERNEL"] = backend
            try:
                roots = sorted(grid5.nodes())[::5]
                trees[backend] = [
                    penalized_shortest_path_tree(grid5, r, units, PENALTY_QUANT)
                    for r in roots
                ]
            finally:
                del os.environ["REPRO_KERNEL"]
        for py, np_ in zip(trees["python"], trees["numpy"]):
            assert py.dist == np_.dist  # exact float equality, bit parity
            assert py.parent == np_.parent


class TestRecostPath:
    def test_base_metric_cost(self, square):
        path = Path((0, 1, 2), 12345.0)  # penalized-units cost, discarded
        recosted = recost_path(square, path)
        assert recosted.nodes == (0, 1, 2)
        assert recosted.cost == pytest.approx(
            square.cost(0, 1) + square.cost(1, 2)
        )
