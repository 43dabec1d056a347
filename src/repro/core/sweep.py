"""The right-hand sweeping rule (§III-B).

Phase 1 steers packets around the failure area by rotating a *sweeping
line* counterclockwise about the current node, starting from a reference
link, until it reaches a live neighbor:

* at the recovery initiator ``v_i`` whose default next hop ``v_j`` is
  unreachable, the sweeping line starts at link ``e_{i,j}``;
* at any other node ``v_m`` that received the packet from ``v_n``, the
  sweeping line starts at link ``e_{m,n}``.

On general graphs the sweep additionally skips candidates excluded by the
``cross_link`` constraints (§III-C) — see :mod:`repro.core.constraints`.

The previous hop itself is a valid candidate but sorts *last* (angle
``2*pi``), which is what makes packets back out of tree branches.

**Sweep tables.**  The order only depends on the node and the reference
arc, so it is not recomputed per hop.  Each node's neighbors are sorted
once by (absolute angle, id) into a table cached on the topology's
:class:`~repro.topology.csr.CSRView` (``CSRView.sweep``), and a sweep
scans that table cyclically from the reference's rank.  On a node where
two neighbor directions lie within :data:`NEAR_TIE` of each other the
cyclic order can differ from the keyed one (``ccw_angle`` collapses
angles ``<= EPSILON`` to ``2*pi`` and node id breaks exact ties), so such
nodes take the keyed path: ``ccw_angle`` keys from the cached angles,
sorted by (angle, id).  DESIGN.md §7 gives the exactness argument.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Iterable, List, Optional, Tuple

from ..failures import LocalView
from ..geometry import EPSILON, TWO_PI, ccw_angle_between
from ..topology import Link, Topology

#: Predicate deciding whether the link from the current node to a candidate
#: neighbor is excluded by the cross-link constraints.
ExclusionFn = Callable[[Link], bool]

#: Cyclic gap (radians) at or below which two neighbor directions of a node
#: count as a near tie.  Any gap above it keeps every counterclockwise key
#: clear of the ``<= EPSILON`` collapse and of float rounding (a few ulps of
#: ``2*pi``, about 1e-15), so the cyclic scan equals the keyed sort.
NEAR_TIE = 4 * EPSILON

#: One node's sweep table: neighbor ids, their absolute angles, their
#: links, sorted by (angle, id), and whether the node has a near tie.
SweepEntry = Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[Link, ...], bool]


def _build_entry(topo: Topology, node: int) -> SweepEntry:
    origin = topo.position(node)
    ox, oy = origin.x, origin.y
    csr = topo.csr()
    i = csr.pos[node]
    ids, nbr, lid = csr.ids, csr.nbr, csr.lid
    position, link_at = topo.position, topo.link_at
    rows = []
    for arc in range(csr.indptr[i], csr.indptr[i + 1]):
        nb = ids[nbr[arc]]
        p = position(nb)
        # Same coordinate differences and formula as ``Point.angle`` on
        # ``position(nb) - position(node)``, so the bits match.
        angle = math.atan2(p.y - oy, p.x - ox) % TWO_PI
        rows.append((angle, nb, link_at(lid[arc])))
    # Node ids are unique, so the sort is by (angle, id) alone.
    rows.sort()
    angles, nbrs, links = list(zip(*rows)) or [(), (), ()]
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    if len(angles) > 1:
        gaps.append(angles[0] + TWO_PI - angles[-1])
    near_tie = any(gap <= NEAR_TIE for gap in gaps)
    return nbrs, angles, links, near_tie


def sweep_entry(topo: Topology, node: int) -> SweepEntry:
    """The sweep table of ``node`` (built on first use, cached per CSR view)."""
    table = topo.csr().sweep
    entry = table.get(node)
    if entry is None:
        entry = table[node] = _build_entry(topo, node)
    return entry


def _sweep_key(angle: float, reference: float, clockwise: bool) -> float:
    """The keyed rule's angle of a neighbor, from absolute angles."""
    key = ccw_angle_between(reference, angle)
    if clockwise and key < TWO_PI:
        # Mirror the sweep; the reference stays at the end of the order.
        return TWO_PI - key
    return key


def _reference_angle(
    topo: Topology, entry: SweepEntry, current: int, reference: int
) -> float:
    """Absolute angle of the sweep's reference direction at ``current``."""
    nbrs, angles = entry[0], entry[1]
    if reference in nbrs:
        return angles[nbrs.index(reference)]
    return (topo.position(reference) - topo.position(current)).angle()


def _sweep_indices(
    topo: Topology, entry: SweepEntry, current: int, reference: int, clockwise: bool
) -> Iterable[int]:
    """Row indices of ``entry`` in sweep order from ``reference``."""
    nbrs, angles, _links, near_tie = entry
    if reference in nbrs and not near_tie:
        # Cyclic scan from the reference's rank; the reference comes last.
        rank = nbrs.index(reference)
        if clockwise:
            return chain(range(rank - 1, -1, -1), range(len(nbrs) - 1, rank - 1, -1))
        return chain(range(rank + 1, len(nbrs)), range(rank + 1))
    ref_angle = _reference_angle(topo, entry, current, reference)
    keyed = sorted(
        (_sweep_key(angle, ref_angle, clockwise), nbrs[i], i)
        for i, angle in enumerate(angles)
    )
    return [i for _, _, i in keyed]


def neighbor_sweep_order(
    topo: Topology,
    current: int,
    reference_neighbor: int,
    clockwise: bool = False,
) -> List[Tuple[float, int, int]]:
    """Neighbors of ``current`` in sweep order from the reference direction.

    Returns ``(angle, node_id, node)`` triples sorted by counterclockwise
    angle from the direction of ``reference_neighbor`` (clockwise when
    ``clockwise`` — the mirror ablation of DESIGN.md §4).  The reference
    neighbor itself appears with angle ``2*pi``.  Node id breaks exact angle
    ties deterministically.
    """
    entry = sweep_entry(topo, current)
    nbrs, angles = entry[0], entry[1]
    order = _sweep_indices(topo, entry, current, reference_neighbor, clockwise)
    ref_angle = _reference_angle(topo, entry, current, reference_neighbor)
    return [
        (_sweep_key(angles[i], ref_angle, clockwise), nbrs[i], nbrs[i]) for i in order
    ]


def select_link(
    topo: Topology,
    view: LocalView,
    current: int,
    reference_neighbor: int,
    is_excluded: Optional[ExclusionFn] = None,
    clockwise: bool = False,
) -> Optional[Link]:
    """The link to the neighbor :func:`select_next_hop` selects, or ``None``.

    The link comes from the sweep table, so callers that need it (phase 1's
    Constraint 2 bookkeeping) do not rebuild it with ``Link.of``.
    """
    entry = sweep_entry(topo, current)
    nbrs, _angles, links, _near_tie = entry
    reachable = view.is_neighbor_reachable
    for i in _sweep_indices(topo, entry, current, reference_neighbor, clockwise):
        if not reachable(current, nbrs[i]):
            continue
        if is_excluded is not None and is_excluded(links[i]):
            continue
        return links[i]
    return None


def select_next_hop(
    topo: Topology,
    view: LocalView,
    current: int,
    reference_neighbor: int,
    is_excluded: Optional[ExclusionFn] = None,
    clockwise: bool = False,
) -> Optional[int]:
    """The live, non-excluded neighbor the sweeping rule selects.

    ``None`` when every neighbor is unreachable or excluded — only possible
    at an isolated initiator; §III-C notes an interior node can always fall
    back to its previous hop.
    """
    link = select_link(topo, view, current, reference_neighbor, is_excluded, clockwise)
    return None if link is None else link.other(current)


def first_hop(
    topo: Topology,
    view: LocalView,
    initiator: int,
    unreachable_next_hop: int,
    is_excluded: Optional[ExclusionFn] = None,
    clockwise: bool = False,
) -> Optional[int]:
    """Case 1 of §III-B: the initiator's first hop.

    The sweeping line starts at the link to the unreachable default next
    hop; the rule is otherwise identical to the interior-node case.
    """
    return select_next_hop(
        topo, view, initiator, unreachable_next_hop, is_excluded, clockwise
    )
