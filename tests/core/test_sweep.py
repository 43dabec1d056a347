"""Tests for repro.core.sweep (the right-hand rule)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import first_hop, neighbor_sweep_order, select_next_hop
from repro.core.sweep import sweep_entry
from repro.failures import FailureScenario, LocalView
from repro.geometry import EPSILON, Point, ccw_angle
from repro.topology import Link, Topology


def plus_topology() -> Topology:
    """A center node 0 with neighbors at the four compass points."""
    topo = Topology("plus")
    topo.add_node(0, Point(0, 0))
    topo.add_node(1, Point(100, 0))   # east
    topo.add_node(2, Point(0, 100))   # north
    topo.add_node(3, Point(-100, 0))  # west
    topo.add_node(4, Point(0, -100))  # south
    for leaf in (1, 2, 3, 4):
        topo.add_link(0, leaf)
    # Ring so leaves are not dead ends.
    topo.add_link(1, 2)
    topo.add_link(2, 3)
    topo.add_link(3, 4)
    topo.add_link(4, 1)
    return topo


def view_with(topo, failed_nodes=(), failed_links=()):
    return LocalView(FailureScenario(topo, failed_nodes, failed_links))


class TestSweepOrder:
    def test_counterclockwise_from_reference(self):
        topo = plus_topology()
        order = [nb for _, _, nb in neighbor_sweep_order(topo, 0, 1)]
        # Reference east; CCW hits north, west, south, then east itself.
        assert order == [2, 3, 4, 1]

    def test_reference_sorts_last(self):
        topo = plus_topology()
        order = neighbor_sweep_order(topo, 0, 3)
        assert order[-1][2] == 3
        assert order[-1][0] == 2 * math.pi

    def test_clockwise_mirrors(self):
        topo = plus_topology()
        order = [nb for _, _, nb in neighbor_sweep_order(topo, 0, 1, clockwise=True)]
        assert order == [4, 3, 2, 1]


class TestSelectNextHop:
    def test_selects_first_live(self):
        topo = plus_topology()
        view = view_with(topo)
        assert select_next_hop(topo, view, 0, 1) == 2

    def test_skips_unreachable(self):
        topo = plus_topology()
        view = view_with(topo, failed_nodes=[2])
        assert select_next_hop(topo, view, 0, 1) == 3

    def test_skips_excluded(self):
        topo = plus_topology()
        view = view_with(topo)
        blocked = {Link.of(0, 2), Link.of(0, 3)}
        chosen = select_next_hop(
            topo, view, 0, 1, is_excluded=lambda link: link in blocked
        )
        assert chosen == 4

    def test_falls_back_to_previous_hop(self):
        # Dead-end behaviour: with everything else gone, go back.
        topo = plus_topology()
        view = view_with(topo, failed_nodes=[2, 3, 4])
        assert select_next_hop(topo, view, 0, 1) == 1

    def test_none_when_isolated(self):
        topo = plus_topology()
        view = view_with(
            topo, failed_links=[Link.of(0, nb) for nb in (1, 2, 3, 4)]
        )
        assert select_next_hop(topo, view, 0, 1) is None

    def test_first_hop_matches_paper_example(self, paper_topo, paper_scenario):
        view = LocalView(paper_scenario)
        assert first_hop(paper_topo, view, 6, 11) == 5

    def test_tree_branch_backtracking(self, tiny_line):
        # At the end of a line the only option is the previous hop.
        view = view_with(tiny_line)
        assert select_next_hop(tiny_line, view, 2, 1) == 1


class TestSweepGeometry:
    def test_paper_hop_v5(self, paper_topo, paper_scenario):
        # At v5 coming from v6, with e6,11 recorded, v12 is excluded and
        # the sweep lands on v4 (the Fig. 4 fix).
        view = LocalView(paper_scenario)
        blocked_by = Link.of(6, 11)

        def excluded(link):
            return blocked_by in paper_topo.cross_links(link)

        assert select_next_hop(paper_topo, view, 5, 6, excluded) == 4

    def test_paper_hop_v5_without_constraint(self, paper_topo, paper_scenario):
        # Without Constraint 1 the sweep would pick v12 — the forwarding
        # disorder of Fig. 4.
        view = LocalView(paper_scenario)
        assert select_next_hop(paper_topo, view, 5, 6) == 12


# ----------------------------------------------------------------------
# Sweep tables against the literal keyed rule
# ----------------------------------------------------------------------


def oracle_order(topo, current, reference, clockwise=False):
    """The §III-B order spelled out: ``ccw_angle`` keys sorted by (angle, id)."""
    origin = topo.position(current)
    reference_dir = topo.position(reference) - origin
    entries = []
    for nb in topo.neighbors(current):
        angle = ccw_angle(reference_dir, topo.position(nb) - origin)
        if clockwise and angle < 2 * math.pi:
            angle = 2 * math.pi - angle
        entries.append((angle, nb, nb))
    entries.sort(key=lambda e: (e[0], e[1]))
    return entries


def oracle_next_hop(topo, view, current, reference, is_excluded, clockwise):
    for _angle, _id, nb in oracle_order(topo, current, reference, clockwise):
        if not view.is_neighbor_reachable(current, nb):
            continue
        if is_excluded(Link.of(current, nb)):
            continue
        return nb
    return None


#: Offsets within a few EPSILON of a direction, on both sides and exact.
NEAR_OFFSETS = [s * k * EPSILON for s in (-1, 1) for k in (0.5, 1, 2, 4, 8)] + [0.0]

#: Vectors just around the +x axis; ``(1, -1e-17)`` has ``angle() == 2*pi``.
WRAP_VECTORS = [(1.0, -1e-17), (1.0, 0.0), (1.0, 1e-17), (3.0, -1e-300)]


@st.composite
def stars(draw):
    """A center node with 1-8 neighbors, some placed to make (near) ties."""
    origin = draw(st.sampled_from([(0.0, 0.0), (0.0, 0.0), (500.0, -250.0)]))
    degree = draw(st.integers(min_value=1, max_value=8))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=degree + 2,
            max_size=degree + 2,
            unique=True,
        )
    )
    coord = st.floats(min_value=-1000, max_value=1000, allow_nan=False)
    vectors = []
    for _ in range(degree):
        kind = draw(st.sampled_from(["random", "collinear", "near", "wrap"]))
        if kind == "wrap":
            vectors.append(draw(st.sampled_from(WRAP_VECTORS)))
        elif kind == "random" or not vectors:
            vectors.append((draw(coord), draw(coord)))
        elif kind == "collinear":
            bx, by = draw(st.sampled_from(vectors))
            k = draw(st.sampled_from([1.0, 2.0, 3.0, 0.5, -1.0]))
            vectors.append((k * bx, k * by))
        else:
            bx, by = draw(st.sampled_from(vectors))
            base = math.atan2(by, bx) + draw(st.sampled_from(NEAR_OFFSETS))
            r = draw(st.floats(min_value=1.0, max_value=500.0))
            vectors.append((r * math.cos(base), r * math.sin(base)))
    topo = Topology("star")
    center, outsider, leaves = ids[0], ids[1], ids[2:]
    ox, oy = origin
    topo.add_node(center, Point(ox, oy))
    topo.add_node(outsider, Point(ox - 7.0, oy + 3.0))
    for leaf, (dx, dy) in zip(leaves, vectors):
        topo.add_node(leaf, Point(ox + dx, oy + dy))
        topo.add_link(center, leaf)
    return topo, center, outsider, leaves


class TestSweepTableProperties:
    @given(stars(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_order_matches_keyed_oracle(self, star, data):
        topo, center, outsider, leaves = star
        reference = data.draw(st.sampled_from(leaves + [outsider]))
        clockwise = data.draw(st.booleans())
        assert neighbor_sweep_order(topo, center, reference, clockwise) == (
            oracle_order(topo, center, reference, clockwise)
        )

    @given(stars(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_next_hop_matches_keyed_oracle(self, star, data):
        topo, center, outsider, leaves = star
        reference = data.draw(st.sampled_from(leaves + [outsider]))
        clockwise = data.draw(st.booleans())
        failed = data.draw(st.lists(st.sampled_from(leaves), unique=True))
        blocked = {
            Link.of(center, nb)
            for nb in data.draw(st.lists(st.sampled_from(leaves), unique=True))
        }
        view = view_with(topo, failed_links=[Link.of(center, nb) for nb in failed])
        excluded = blocked.__contains__
        assert select_next_hop(
            topo, view, center, reference, excluded, clockwise
        ) == oracle_next_hop(topo, view, center, reference, excluded, clockwise)


class TestSweepTableEdges:
    def test_angle_reaches_two_pi_below_the_x_axis(self):
        # Documented wrap of Point.angle: the modulo rounds up to 2*pi.
        assert Point(1.0, -1e-17).angle() == 2 * math.pi

    def test_two_pi_neighbor_ties_the_zero_direction(self):
        topo = Topology("wrap")
        topo.add_node(0, Point(0.0, 0.0))
        for node, (x, y) in {1: (1.0, -1e-17), 2: (1.0, 0.0), 3: (0.0, 1.0)}.items():
            topo.add_node(node, Point(x, y))
            topo.add_link(0, node)
        assert sweep_entry(topo, 0)[3]  # cyclic gap 0 across the wrap
        for reference in (1, 2, 3):
            for clockwise in (False, True):
                assert neighbor_sweep_order(topo, 0, reference, clockwise) == (
                    oracle_order(topo, 0, reference, clockwise)
                )

    def test_coincident_directions_take_the_keyed_path(self):
        topo = plus_topology()
        topo.add_node(5, Point(200, 0))  # behind 1, due east of 0
        topo.add_link(0, 5)
        assert sweep_entry(topo, 0)[3]
        # 1 and 5 share the reference direction: both key at 2*pi, id order.
        assert [nb for _, _, nb in neighbor_sweep_order(topo, 0, 5)] == [2, 3, 4, 1, 5]

    def test_well_separated_node_scans_cyclically(self):
        topo = plus_topology()
        assert not sweep_entry(topo, 0)[3]
        assert [nb for _, _, nb in neighbor_sweep_order(topo, 0, 3)] == [4, 1, 2, 3]

    def test_degree_one_and_two(self, tiny_line):
        view = view_with(tiny_line)
        assert neighbor_sweep_order(tiny_line, 2, 1) == oracle_order(tiny_line, 2, 1)
        assert select_next_hop(tiny_line, view, 1, 0) == 2
        assert select_next_hop(tiny_line, view, 1, 0, clockwise=True) == 2


class TestSweepTableInvalidation:
    def test_add_link_after_sweep(self):
        topo = plus_topology()
        assert [nb for _, _, nb in neighbor_sweep_order(topo, 0, 1)] == [2, 3, 4, 1]
        topo.add_node(5, Point(100, 100))  # north-east, between 1 and 2
        assert [nb for _, _, nb in neighbor_sweep_order(topo, 0, 1)] == [2, 3, 4, 1]
        topo.add_link(0, 5)
        assert [nb for _, _, nb in neighbor_sweep_order(topo, 0, 1)] == [5, 2, 3, 4, 1]
        assert select_next_hop(topo, view_with(topo), 0, 1) == 5

    def test_remove_link_after_sweep(self):
        topo = plus_topology()
        assert select_next_hop(topo, view_with(topo), 0, 1) == 2
        topo.remove_link(0, 2)
        assert select_next_hop(topo, view_with(topo), 0, 1) == 3

    def test_tables_live_on_the_csr_view(self):
        topo = plus_topology()
        neighbor_sweep_order(topo, 0, 1)
        assert 0 in topo.csr().sweep
        topo.add_node(9, Point(-500, -500))
        assert topo.csr().sweep == {}
