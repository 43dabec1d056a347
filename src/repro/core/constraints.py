"""The cross-link constraints of §III-C.

On a general (non-planar) graph the bare sweeping rule can fail to enclose
the failure area (Fig. 4) or traverse links in both directions needlessly
(Fig. 5).  The paper fixes both with two constraints on the forwarding
path:

* **Constraint 1** — the path must not cross the links between the
  recovery initiator and its unreachable neighbors;
* **Constraint 2** — the path must not contain cross links.

Both are enforced through the ``cross_link`` header field: a candidate link
that crosses *any* link recorded in ``cross_link`` is excluded from
selection.  :class:`CrossLinkState` wraps that field plus the two update
rules:

* the initiator seeds ``cross_link`` with each of its unreachable-neighbor
  links that crosses other links (Constraint 1's enforcement),
* after selecting link ``e_{j,m}``, if some link crosses ``e_{j,m}`` but is
  not already excluded, ``e_{j,m}`` itself is recorded (Constraint 2's
  enforcement).
"""

from __future__ import annotations

from typing import List, Set

from ..failures import LocalView
from ..simulator import RecoveryHeader
from ..topology import Link, Topology


class CrossLinkState:
    """The ``cross_link`` header field and its exclusion semantics.

    Keeps a live :class:`set` alongside the header's insertion-ordered list
    so exclusion checks are O(candidate's crossing degree).
    """

    def __init__(self, topo: Topology, header: RecoveryHeader) -> None:
        self.topo = topo
        self.header = header
        self._recorded: Set[Link] = set(header.cross_links)
        # Everything barred by the recorded set, maintained incrementally:
        # crossing is symmetric, so "candidate crosses some recorded link"
        # is exactly "candidate is in the union of the recorded links'
        # crosser sets".  Keeping the union live makes exclusion checks
        # O(1) instead of one set intersection per candidate.
        self._excluded: Set[Link] = set()
        for link in self._recorded:
            self._excluded |= topo.cross_links(link)

    def record(self, link: Link) -> bool:
        """Record ``link`` in ``cross_link``; True when newly added."""
        if link in self._recorded:
            return False
        self._recorded.add(link)
        self._excluded |= self.topo.cross_links(link)
        self.header.record_cross(link)
        return True

    def is_excluded(self, candidate: Link) -> bool:
        """Whether ``candidate`` crosses any recorded link (and so is barred)."""
        return candidate in self._excluded

    def seed_initiator_links(self, view: LocalView, initiator: int) -> List[Link]:
        """Constraint 1 seeding at the recovery initiator.

        For each unreachable neighbor ``v_j`` of the initiator, record
        ``e_{i,j}`` in ``cross_link`` if it crosses other links.  Returns
        the links recorded.
        """
        recorded: List[Link] = []
        for neighbor in view.unreachable_neighbors(initiator):
            link = Link.of(initiator, neighbor)
            if self.topo.cross_links(link) and self.record(link):
                recorded.append(link)
        return recorded

    def after_selection(self, selected: Link) -> bool:
        """Constraint 2 bookkeeping after the sweep picked ``selected``.

        If a link crosses ``selected`` and is not already excluded by the
        recorded set, record ``selected`` so that crossing link can never be
        chosen later.  Returns True when ``selected`` was recorded.
        """
        if self.topo.cross_links(selected) <= self._excluded:
            return False
        return self.record(selected)

    def recorded_links(self) -> Set[Link]:
        """The current contents of ``cross_link`` as a set."""
        return set(self._recorded)
