"""Load-penalized link metric, integer-quantized for both kernel backends.

The congestion-aware metric makes a loaded link look *longer*:

    w'(link) = w(link) · (QUANT + units(link)),
    units(link) = ⌊QUANT · α · min(util, clip)^β⌋

with everything on the right an integer (``units``) or an exactly
representable integer-valued float (``w`` on the graphs the numpy
kernels accept).  Because the penalized weight is the base weight times
an integer, the bit-identical sweep argument of DESIGN.md §12 carries
over unchanged: the numpy penalized kernel
(:func:`repro.routing.kernels.penalized_numpy`) reproduces the reference
heap kernel (:func:`repro.routing.dijkstra.penalized_shortest_path_tree`
with ``REPRO_KERNEL=python``) bit for bit.

With zero units everywhere the penalized SPT equals the base SPT (all
distances scaled by ``QUANT``), so an idle network routes exactly as the
paper's metric does; as links approach capacity their multiplier grows
quadratically (default β = 2) up to ``1 + α·clip^β`` ≈ 33× — phase-2
reroutes and R3 protection detours spread around hot links instead of
piling onto them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, TYPE_CHECKING

from ..routing import Path
from ..topology import Link, Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..traffic.capacity import LinkLoadMap

#: Integer quantization base of the penalty multiplier: one unit is
#: ``1/PENALTY_QUANT`` of a multiplicative step over the base cost.
PENALTY_QUANT = 32

#: Default strength of the penalty at utilization 1.0 (a link exactly at
#: capacity looks ``1 + α`` = 9× longer).
DEFAULT_PENALTY_ALPHA = 8.0

#: Default superlinearity: lightly loaded links are barely penalized,
#: near-capacity links steeply.
DEFAULT_PENALTY_EXPONENT = 2.0

#: Utilization above this contributes no further penalty (keeps the
#: quantized units bounded, which keeps the numpy kernel exact).
DEFAULT_UTILIZATION_CLIP = 2.0


def penalty_units(
    utilization: float,
    alpha: float = DEFAULT_PENALTY_ALPHA,
    exponent: float = DEFAULT_PENALTY_EXPONENT,
    clip: float = DEFAULT_UTILIZATION_CLIP,
    quant: int = PENALTY_QUANT,
) -> int:
    """Integer penalty units for one link's utilization (deterministic)."""
    if utilization <= 0.0:
        return 0
    clipped = utilization if utilization < clip else clip
    return int(quant * alpha * clipped**exponent)


class LinkPenalty:
    """An immutable per-link penalty snapshot for one routing decision.

    Built from observed (or virtual) link loads against provisioned
    capacities; consumed by the penalized shortest-path kernels as a
    lid-indexed unit array.  Links without capacity annotations carry no
    penalty — on an unprovisioned topology the penalized metric
    degenerates to the base metric (scaled), by construction.
    """

    __slots__ = ("units", "quant", "_lid_cache")

    def __init__(self, units: Dict[Link, int], quant: int = PENALTY_QUANT) -> None:
        self.units = {link: u for link, u in units.items() if u > 0}
        self.quant = quant
        self._lid_cache: Optional[List[int]] = None

    @classmethod
    def from_loads(
        cls,
        topo: Topology,
        loads: Mapping[Link, float],
        alpha: float = DEFAULT_PENALTY_ALPHA,
        exponent: float = DEFAULT_PENALTY_EXPONENT,
        clip: float = DEFAULT_UTILIZATION_CLIP,
        quant: int = PENALTY_QUANT,
    ) -> "LinkPenalty":
        """Snapshot the penalty of a per-link load map (sorted, stable)."""
        units: Dict[Link, int] = {}
        for link in sorted(loads):
            capacity = topo.link_capacity(link)
            if capacity is None or capacity <= 0.0:
                continue
            u = penalty_units(
                loads[link] / capacity, alpha, exponent, clip, quant
            )
            if u > 0:
                units[link] = u
        return cls(units, quant)

    @classmethod
    def from_load_map(cls, load_map: "LinkLoadMap", **kwargs) -> "LinkPenalty":
        """Snapshot a :class:`~repro.traffic.capacity.LinkLoadMap`."""
        return cls.from_loads(load_map.topo, load_map.loads(), **kwargs)

    def is_null(self) -> bool:
        """Whether this snapshot penalizes nothing (base metric)."""
        return not self.units

    def max_units(self) -> int:
        """The largest per-link unit count (numpy exactness bound input)."""
        return max(self.units.values(), default=0)

    def lid_units(self, topo: Topology) -> List[int]:
        """The lid-indexed unit array the kernels consume (cached).

        The cache is sound because snapshots are immutable and bound to
        one topology version: congestion-aware drivers take a fresh
        snapshot per routing decision (:meth:`LivePenalty.snapshot`)
        instead of mutating this one.
        """
        if self._lid_cache is None:
            csr = topo.csr()
            arr = [0] * csr.lid_size
            pair_lid = csr.pair_lid
            for link, u in self.units.items():
                lid = pair_lid.get((link.u, link.v))
                if lid is not None:
                    arr[lid] = u
            self._lid_cache = arr
        return self._lid_cache

    def __len__(self) -> int:
        return len(self.units)

    def __repr__(self) -> str:
        return (
            f"LinkPenalty(links={len(self.units)}, "
            f"max_units={self.max_units()}, quant={self.quant})"
        )


class LivePenalty:
    """Penalty units kept in step with a changing load map.

    A link's units depend on that link's load alone, so after a routing
    decision adds load, re-quantizing just the links it touched
    (:meth:`refresh`) leaves :attr:`units` and :attr:`lid` equal to a
    full :meth:`LinkPenalty.from_loads` pass over the same loads.  The
    loads themselves live in the bound
    :class:`~repro.traffic.capacity.LinkLoadMap`, whose per-link sums
    keep their chronological order, so every :meth:`snapshot` is the
    snapshot a from-scratch rebuild would have produced.
    """

    __slots__ = ("load_map", "units", "lid", "alpha", "exponent", "clip", "quant")

    def __init__(
        self,
        load_map: "LinkLoadMap",
        alpha: float = DEFAULT_PENALTY_ALPHA,
        exponent: float = DEFAULT_PENALTY_EXPONENT,
        clip: float = DEFAULT_UTILIZATION_CLIP,
        quant: int = PENALTY_QUANT,
    ) -> None:
        seed = LinkPenalty.from_load_map(
            load_map, alpha=alpha, exponent=exponent, clip=clip, quant=quant
        )
        self.load_map = load_map
        self.units: Dict[Link, int] = seed.units
        self.lid: List[int] = seed.lid_units(load_map.topo)
        self.alpha = alpha
        self.exponent = exponent
        self.clip = clip
        self.quant = quant

    def refresh(self, links: Iterable[Link]) -> None:
        """Re-quantize ``links`` after their loads changed."""
        topo = self.load_map.topo
        capacity_of = topo.link_capacity
        load = self.load_map.load
        pair_lid = topo.csr().pair_lid
        units = self.units
        lid_units = self.lid
        params = (self.alpha, self.exponent, self.clip, self.quant)
        for link in links:
            capacity = capacity_of(link)
            if capacity is None or capacity <= 0.0:
                continue
            u = penalty_units(load(link) / capacity, *params)
            if u > 0:
                units[link] = u
            else:
                units.pop(link, None)
            lid = pair_lid.get(link)
            if lid is not None:
                lid_units[lid] = u

    def snapshot(self) -> LinkPenalty:
        """An immutable copy of the current units for one routing decision."""
        # Every live unit is positive, so the constructor's filter is
        # skipped: a plain copy of each structure is the snapshot.
        penalty = LinkPenalty.__new__(LinkPenalty)
        penalty.units = dict(self.units)
        penalty.quant = self.quant
        penalty._lid_cache = list(self.lid)
        return penalty


def recost_path(topo: Topology, path: Path) -> Path:
    """Re-cost a penalized-metric path in the base metric.

    Penalized trees carry distances in scaled units; recovery results,
    stretch, and Table III compare against base-metric optima, so every
    path leaving the penalized kernels is re-costed hop by hop (additive
    left-to-right, matching the heap kernel's accumulation order).
    """
    cost = 0.0
    for a, b in path.hops():
        cost += topo.cost(a, b)
    return Path(path.nodes, cost)


def total_units(units: Mapping[Link, int]) -> int:
    """Σ units — a cheap scalar fingerprint for logs and tests."""
    return sum(sorted(units.values()))


__all__ = [
    "PENALTY_QUANT",
    "DEFAULT_PENALTY_ALPHA",
    "DEFAULT_PENALTY_EXPONENT",
    "DEFAULT_UTILIZATION_CLIP",
    "LinkPenalty",
    "LivePenalty",
    "penalty_units",
    "recost_path",
    "total_units",
]
