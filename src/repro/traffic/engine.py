"""Flow-level batched traffic simulator over the recovery pipeline.

The per-packet engine (:mod:`repro.simulator.engine`) simulates one
probe at a time; running it once per user flow would cost millions of
walks that all repeat each other.  This engine exploits the two
aggregation levels the protocol itself induces:

1. **flows → OD pairs** — every flow of one (source, destination) pair
   shares a fate, so a :class:`~repro.traffic.flows.FlowSet` collapses
   the population to at most ``n·(n-1)`` batches;
2. **OD pairs → recovery cases** — disrupted pairs funnel into the
   router that first sees the broken next hop, and RTR's phase-1 walk,
   phase-2 trees, and the baselines' per-case state depend only on
   (initiator, destination, scenario).  Pairs sharing both collapse
   into one :class:`~repro.eval.cases.TestCase`, executed once through
   the existing :class:`~repro.eval.runner.EvaluationRunner` (which
   reuses the sweep-wide :class:`~repro.routing.SPTCache` and the CSR
   kernels underneath).

The outcome of each case is then multiplied back out by the demand and
flow counts of its member pairs, producing the traffic-weighted records
of :mod:`repro.traffic.metrics` — a sweep over millions of flows costs
the same shortest-path work as the unweighted evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..baselines import Oracle
from ..chaos import FaultPlan
from ..core import RTRConfig
from ..eval.cases import CaseSet, TestCase
from ..eval.metrics import CaseRecord
from ..eval.runner import EvaluationRunner
from ..failures import FailureScenario
from ..routing import RoutingTable, SPTCache
from ..simulator import RecoveryResult
from ..topology import Link, Topology
from ..te.metrics import overload_attribution
from ..te.penalty import LivePenalty
from .capacity import DEFAULT_HEADROOM, LinkLoadMap, provision_capacities
from .flows import FlowSet
from .metrics import TrafficScenarioRecord, safe_div

log = obs.get_logger(__name__)


@dataclass(frozen=True)
class DisruptedPair:
    """One OD pair whose default path broke with a live source."""

    source: int
    destination: int
    #: First router on the default path whose next hop became unreachable
    #: — the node that initiates recovery for this pair's traffic.
    initiator: int
    demand: float
    flows: int


@dataclass
class PairClassification:
    """How one scenario partitions the demand matrix."""

    disrupted: List[DisruptedPair]
    #: source -> demand, per destination, for pairs whose path survived.
    intact_by_destination: Dict[int, Dict[int, float]]
    failed_source_demand: float
    failed_source_flows: int
    #: Demand with no pre-failure route at all (disconnected snapshots).
    unrouted_demand: float


def classify_pairs(
    topo: Topology,
    routing: RoutingTable,
    scenario: FailureScenario,
    flow_set: FlowSet,
) -> PairClassification:
    """Partition every demand-carrying pair under one failure scenario.

    A pair is *disrupted* when its source is live and its default
    next-hop chain crosses a failed adjacency; the first router with the
    broken next hop is its recovery initiator.  The walk is memoized per
    destination (a node's verdict settles every pair routed through it),
    mirroring :func:`repro.eval.cases.count_failed_routing_paths`.  It
    follows the destination tree's parent map and probes the scenario's
    interned failed-link flags — the answers of
    :meth:`~repro.failures.LocalView.is_neighbor_reachable` on each hop.
    """
    failed = scenario.failed_link_flags()
    pair_lid = scenario.topo.csr().pair_lid
    failed_nodes = scenario.failed_nodes
    disrupted: List[DisruptedPair] = []
    intact: Dict[int, Dict[int, float]] = {}
    failed_demand: List[float] = []
    failed_flows = 0
    unrouted: List[float] = []

    by_destination: Dict[int, List] = {}
    for batch in flow_set.batches():
        by_destination.setdefault(batch.destination, []).append(batch)

    # One batched multi-source kernel call computes every destination
    # tree the loop below would otherwise solve one heap run at a time
    # (bit-identical results; a no-op for already-cached trees).
    routing.warm(sorted(by_destination))

    for destination in sorted(by_destination):
        tree = routing.tree_to(destination)
        parent = tree.parent
        reached = tree.dist
        # verdict[v]: None = path from v survives; otherwise the initiator.
        # A failed destination never terminates a walk cleanly: every
        # adjacency into it is down, so the last live hop is the
        # initiator.  Its sentinel below is never consulted in that case.
        verdict: Dict[int, Optional[int]] = {
            destination: destination if destination in failed_nodes else None
        }
        survivors: Dict[int, float] = {}
        for batch in by_destination[destination]:
            source = batch.source
            if source in failed_nodes:
                failed_demand.append(batch.demand)
                failed_flows += batch.flows
                continue
            if source not in reached:
                unrouted.append(batch.demand)
                continue
            chain: List[int] = []
            node = source
            outcome: Optional[int] = None
            while node not in verdict:
                chain.append(node)
                nxt = parent.get(node)
                if nxt is None or failed[pair_lid[(node, nxt)]]:
                    # nxt is None only at the tree root, and a live,
                    # reached destination is pre-seeded — so this is the
                    # first broken adjacency: ``node`` initiates recovery.
                    outcome = node
                    break
                node = nxt
            else:
                outcome = verdict[node]
            for visited in chain:
                verdict[visited] = outcome
            if outcome is None:
                survivors[source] = batch.demand
            else:
                disrupted.append(
                    DisruptedPair(
                        source=source,
                        destination=destination,
                        initiator=outcome,
                        demand=batch.demand,
                        flows=batch.flows,
                    )
                )
        if survivors:
            intact[destination] = survivors
    return PairClassification(
        disrupted=disrupted,
        intact_by_destination=intact,
        failed_source_demand=math.fsum(failed_demand),
        failed_source_flows=failed_flows,
        unrouted_demand=math.fsum(unrouted),
    )


class TrafficEngine:
    """Runs traffic-weighted recovery sweeps over one topology.

    Owns the per-topology shared state (routing table, SPT pool,
    provisioned capacities) exactly like
    :class:`~repro.eval.runner.EvaluationRunner` owns the unweighted
    equivalent — one engine serves every scenario of a sweep.
    """

    def __init__(
        self,
        topo: Topology,
        flow_set: FlowSet,
        routing: Optional[RoutingTable] = None,
        approaches: Sequence[str] = ("RTR", "FCP"),
        cache: Optional[SPTCache] = None,
        rtr_config: Optional[RTRConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        provision: bool = True,
        congestion_aware: bool = False,
        headroom: float = DEFAULT_HEADROOM,
        utilization_cap: Optional[float] = None,
    ) -> None:
        self.topo = topo
        self.flow_set = flow_set
        self.matrix = flow_set.matrix
        self.cache = cache if cache is not None else SPTCache()
        self.routing = (
            routing if routing is not None else RoutingTable(topo, cache=self.cache)
        )
        self.approaches = tuple(approaches)
        self.congestion_aware = congestion_aware
        if utilization_cap is not None and utilization_cap <= 0.0:
            raise ValueError(
                f"utilization_cap must be > 0, got {utilization_cap}"
            )
        if utilization_cap is not None and not congestion_aware:
            raise ValueError(
                "utilization_cap requires congestion_aware=True "
                "(admission control runs inside the live-load case loop)"
            )
        #: Admission control: a congestion-aware sweep refuses recoveries
        #: whose admitted demand would push any provisioned link past this
        #: utilization.  Rerouting alone cannot always stay below a bound —
        #: when the only surviving corridor is a bridge, every scheme that
        #: delivers everything overloads it — so congestion-*free* recovery
        #: (the R3/Enhanced-MRC guarantee) necessarily sheds the overflow.
        self.utilization_cap = utilization_cap
        if congestion_aware:
            # Congestion-aware sweeps flip the RTR phase-2 metric on and
            # feed live load snapshots to any scheme that accepts them.
            # Penalized detours stray from the shortest corridor and hit
            # failures phase 1 missed more often, so §III-D re-invocations
            # (learn the link from the drop, recompute) are enabled unless
            # the caller configured their own budget.
            base_config = rtr_config if rtr_config is not None else RTRConfig()
            rtr_config = replace(
                base_config,
                congestion_aware=True,
                max_phase2_reinvocations=max(
                    base_config.max_phase2_reinvocations, 3
                ),
            )
        self.rtr_config = rtr_config
        self.fault_plan = fault_plan
        # Always (re)provision: capacities are a deterministic function of
        # (topology, matrix), so overwriting keeps utilization numbers
        # independent of whatever sweep touched this shared topology
        # before.  Pass ``provision=False`` to keep custom capacities.
        if provision:
            provision_capacities(topo, self.matrix, self.routing, headroom=headroom)
        self.runner = EvaluationRunner(
            topo,
            routing=self.routing,
            approaches=self.approaches,
            rtr_config=rtr_config,
            fault_plan=fault_plan,
            sp_cache=self.cache,
        )

    # ------------------------------------------------------------------

    def run_scenario(
        self, scenario: FailureScenario, scenario_index: int = 0
    ) -> Dict[str, TrafficScenarioRecord]:
        """One failure event: classify, batch, recover, weight."""
        with obs.span("traffic.scenario", index=scenario_index):
            classification = classify_pairs(
                self.topo, self.routing, scenario, self.flow_set
            )
            obs.inc("traffic.pairs.disrupted", len(classification.disrupted))
            obs.inc(
                "traffic.flows.disrupted",
                sum(p.flows for p in classification.disrupted),
            )
            groups = self._group_pairs(classification.disrupted)
            # Per-scenario load state, read-only for every approach (each
            # starts from a copy) and dropped when the scenario ends.
            prefixes = self._prefix_walks(groups)
            intact = self._intact_loads(classification)
            cases = self._cases_for_groups(scenario, groups)
            case_set = CaseSet(
                topo=self.topo,
                routing=self.routing,
                scenarios=[scenario],
                cases=cases,
            )
            if self.congestion_aware:
                records = self._run_cases_congestion_aware(
                    scenario, cases, groups, prefixes, intact
                )
            else:
                # One convergence window per scenario: planning schemes
                # have the whole window's walks executed through a single
                # WalkBatch inside the runner (DESIGN.md §15).
                records = self.runner.run(case_set)
            out: Dict[str, TrafficScenarioRecord] = {}
            for approach in self.approaches:
                out[approach] = self._weight_records(
                    approach,
                    scenario_index,
                    classification,
                    groups,
                    prefixes,
                    intact,
                    records[approach],
                )
        return out

    def run_sweep(
        self, scenarios: Sequence[FailureScenario]
    ) -> Dict[str, List[TrafficScenarioRecord]]:
        """All scenarios in order; returns per-approach record lists."""
        results: Dict[str, List[TrafficScenarioRecord]] = {
            a: [] for a in self.approaches
        }
        for index, scenario in enumerate(scenarios):
            per_approach = self.run_scenario(scenario, index)
            for approach in self.approaches:
                results[approach].append(per_approach[approach])
        return results

    # ------------------------------------------------------------------

    def _run_cases_congestion_aware(
        self,
        scenario: FailureScenario,
        cases: Sequence[TestCase],
        groups: Dict[Tuple[int, int], List[DisruptedPair]],
        prefixes: Dict[Tuple[int, int], List[Tuple[Link, ...]]],
        intact: LinkLoadMap,
    ) -> Dict[str, List[CaseRecord]]:
        """Run cases with live load feedback into path selection.

        Mirrors :meth:`EvaluationRunner.run` (same obs counters, same
        per-case error isolation) but runs each approach's cases
        sequentially against a *live* :class:`LinkLoadMap`: before every
        case, schemes exposing ``set_link_penalty`` (duck typed — RTR
        does) receive a fresh :class:`~repro.te.penalty.LinkPenalty`
        snapshot of everything routed so far, so each recovery steers
        around the links earlier ones loaded — including the same
        initiator's own previous recoveries.  State is per-scenario (the
        map starts from a copy of the intact loads), which keeps serial
        and sharded sweeps identical.  The snapshot comes from a
        :class:`~repro.te.penalty.LivePenalty` that re-quantizes only
        the links each case loaded, which equals re-quantizing them all.

        This path never batches walks: each case's route depends on the
        loads of every earlier delivery, so compiling a window of plans
        up front would read stale penalties.
        """
        config = self.rtr_config if self.rtr_config is not None else RTRConfig()
        for _ in cases:
            obs.inc("eval.cases")
        records: Dict[str, List[CaseRecord]] = {}
        for name in self.approaches:
            instance = self.runner.schemes[name].instantiate(scenario)
            set_penalty = getattr(instance.protocol, "set_link_penalty", None)
            loads = intact.copy()
            live = (
                LivePenalty(
                    loads,
                    alpha=config.penalty_alpha,
                    exponent=config.penalty_exponent,
                    clip=config.penalty_utilization_clip,
                )
                if set_penalty is not None
                else None
            )
            out: List[CaseRecord] = []
            for case in cases:
                obs.inc(self.runner._case_counters[name])
                if live is not None:
                    set_penalty(live.snapshot())
                result = self.runner._recover_one(instance, name, case)
                key = (case.initiator, case.destination)
                group = groups[key]
                group_demand = math.fsum(p.demand for p in group)
                if (
                    self.utilization_cap is not None
                    and result.delivered
                    and result.path is not None
                    and self._exceeds_cap(loads, result.path, group_demand)
                ):
                    # Admission control: delivering this group would push a
                    # link past the cap, so the initiator sheds it instead
                    # (early discard — zero transmission waste).
                    obs.inc("traffic.admission.dropped")
                    result = replace(
                        result,
                        delivered=False,
                        path=None,
                        drop_hops=0,
                        drop_packet_bytes=0,
                        admission_dropped=True,
                    )
                out.append(CaseRecord(case=case, result=result))
                touched = self._load_group(
                    loads, group, prefixes[key], result, group_demand
                )
                if live is not None:
                    live.refresh(set(touched))
            records[name] = out
        return records

    def _exceeds_cap(
        self, loads: LinkLoadMap, path, demand: float
    ) -> bool:
        """Would routing ``demand`` along ``path`` breach the cap anywhere?

        Links without a provisioned capacity are never capped (their
        utilization is undefined); a small tolerance keeps admitting
        demand that lands exactly on the cap.
        """
        cap = self.utilization_cap
        assert cap is not None
        for a, b in path.hops():
            link = Link.of(a, b)
            capacity = self.topo.link_capacity(link)
            if capacity is None or capacity <= 0.0:
                continue
            if (loads.load(link) + demand) / capacity > cap + 1e-12:
                return True
        return False

    def _intact_loads(self, classification: PairClassification) -> LinkLoadMap:
        """Default-path loads of the pairs the failure did not disrupt.

        One batched tree pass per destination, destinations in sorted
        order (deterministic float accumulation); computed once per
        scenario and copied by every consumer.
        """
        loads = LinkLoadMap(self.topo)
        for destination in sorted(classification.intact_by_destination):
            loads.merge_loads(
                self.routing.edge_loads_to(
                    destination,
                    classification.intact_by_destination[destination],
                )
            )
        return loads

    @staticmethod
    def _group_pairs(
        disrupted: Sequence[DisruptedPair],
    ) -> Dict[Tuple[int, int], List[DisruptedPair]]:
        """Pairs keyed by their shared (initiator, destination) case."""
        groups: Dict[Tuple[int, int], List[DisruptedPair]] = {}
        for pair in disrupted:
            groups.setdefault((pair.initiator, pair.destination), []).append(pair)
        return groups

    def _prefix_walks(
        self, groups: Dict[Tuple[int, int], List[DisruptedPair]]
    ) -> Dict[Tuple[int, int], List[Tuple[Link, ...]]]:
        """Each pair's surviving default-path prefix source -> initiator.

        Walked once per scenario; the lists align with ``groups``.  Pairs
        of one group share the destination tree and the initiator, so a
        node's prefix is memoized for every later pair routed through it.
        """
        prefixes: Dict[Tuple[int, int], List[Tuple[Link, ...]]] = {}
        for (initiator, destination), group in groups.items():
            parent = self.routing.tree_to(destination).parent
            memo: Dict[int, Tuple[Link, ...]] = {initiator: ()}
            walks: List[Tuple[Link, ...]] = []
            for pair in group:
                chain: List[int] = []
                node = pair.source
                # The classification walk got through every hop.
                while node not in memo:
                    chain.append(node)
                    node = parent[node]
                prefix = memo[node]
                for visited in reversed(chain):
                    prefix = (Link.of(visited, parent[visited]),) + prefix
                    memo[visited] = prefix
                walks.append(prefix)
            prefixes[(initiator, destination)] = walks
        return prefixes

    @staticmethod
    def _load_group(
        loads: LinkLoadMap,
        group: Sequence[DisruptedPair],
        walks: Sequence[Tuple[Link, ...]],
        result: RecoveryResult,
        group_demand: float,
    ) -> List[Link]:
        """Add one group's post-recovery load; returns the links loaded.

        The surviving prefix up to the initiator carries each pair's
        traffic either way; the recovery path carries the group onward
        only when delivery succeeded.
        """
        touched: List[Link] = []
        for pair, links in zip(group, walks):
            loads.add_links(links, pair.demand)
            touched.extend(links)
        if result.delivered and result.path is not None:
            path_links = [Link.of(a, b) for a, b in result.path.hops()]
            loads.add_links(path_links, group_demand)
            touched.extend(path_links)
        return touched

    def _cases_for_groups(
        self,
        scenario: FailureScenario,
        groups: Dict[Tuple[int, int], List[DisruptedPair]],
    ) -> List[TestCase]:
        """One :class:`TestCase` per group, classified by the oracle."""
        oracle = Oracle(self.topo, scenario, cache=self.cache)
        cases: List[TestCase] = []
        for initiator, destination in sorted(groups):
            trigger = self.routing.next_hop(initiator, destination)
            assert trigger is not None  # the walk crossed this adjacency
            optimal = oracle.optimal_cost(initiator, destination)
            cases.append(
                TestCase(
                    scenario_index=0,
                    initiator=initiator,
                    destination=destination,
                    trigger=trigger,
                    recoverable=optimal is not None,
                    optimal_cost=optimal,
                )
            )
        return cases

    def _weight_records(
        self,
        approach: str,
        scenario_index: int,
        classification: PairClassification,
        groups: Dict[Tuple[int, int], List[DisruptedPair]],
        prefixes: Dict[Tuple[int, int], List[Tuple[Link, ...]]],
        intact: LinkLoadMap,
        case_records: Sequence[CaseRecord],
    ) -> TrafficScenarioRecord:
        """Multiply per-case outcomes by their member pairs' traffic."""
        by_case: Dict[Tuple[int, int], CaseRecord] = {
            (r.case.initiator, r.case.destination): r for r in case_records
        }
        disrupted_demand: List[float] = []
        recoverable_demand: List[float] = []
        irrecoverable_demand: List[float] = []
        delivered_demand: List[float] = []
        delivered_recoverable: List[float] = []
        optimal_demand: List[float] = []
        stretch_sum: List[float] = []
        stretch_weight: List[float] = []
        phase1_loss: List[float] = []
        fallback_demand: List[float] = []
        error_demand: List[float] = []
        admission_dropped: List[float] = []
        max_stretch = 0.0
        disrupted_flows = 0
        delivered_flows = 0

        # Surviving pairs keep their default paths.
        loads = intact.copy()

        for key in sorted(groups):
            record = by_case[key]
            group = groups[key]
            group_demand = math.fsum(p.demand for p in group)
            group_flows = sum(p.flows for p in group)
            disrupted_demand.append(group_demand)
            disrupted_flows += group_flows
            if record.case.recoverable:
                recoverable_demand.append(group_demand)
            else:
                irrecoverable_demand.append(group_demand)
            result = record.result
            if result.delivered:
                delivered_demand.append(group_demand)
                delivered_flows += group_flows
                if record.case.recoverable:
                    delivered_recoverable.append(group_demand)
                stretch = record.stretch()
                if stretch is not None:
                    stretch_sum.append(group_demand * stretch)
                    stretch_weight.append(group_demand)
                    max_stretch = max(max_stretch, stretch)
                if record.is_optimal():
                    optimal_demand.append(group_demand)
            if result.status == "fallback":
                fallback_demand.append(group_demand)
            elif result.status == "error":
                error_demand.append(group_demand)
            if result.admission_dropped:
                admission_dropped.append(group_demand)
            # Traffic black-holed while the initiator's phase-1 walk was
            # still in flight (§IV-B delay model): rate × window.
            if result.phase1_duration > 0.0:
                phase1_loss.append(group_demand * result.phase1_duration)
            self._load_group(loads, group, prefixes[key], result, group_demand)

        overloaded = loads.overloaded_links()
        record = TrafficScenarioRecord(
            utilization_hist=loads.utilization_cdf(),
            overload_attribution=self._attribute_overloads(
                loads, overloaded, groups, prefixes, by_case
            ),
            approach=approach,
            scenario_index=scenario_index,
            total_demand=self.matrix.total_demand,
            total_flows=self.flow_set.n_flows,
            disrupted_pairs=len(classification.disrupted),
            disrupted_demand=math.fsum(disrupted_demand),
            disrupted_flows=disrupted_flows,
            failed_source_demand=classification.failed_source_demand,
            failed_source_flows=classification.failed_source_flows,
            recoverable_demand=math.fsum(recoverable_demand),
            irrecoverable_demand=math.fsum(irrecoverable_demand),
            delivered_demand=math.fsum(delivered_demand),
            delivered_flows=delivered_flows,
            delivered_recoverable_demand=math.fsum(delivered_recoverable),
            optimal_demand=math.fsum(optimal_demand),
            stretch_demand_sum=math.fsum(stretch_sum),
            stretch_demand_weight=math.fsum(stretch_weight),
            max_stretch=max_stretch,
            phase1_loss=math.fsum(phase1_loss),
            fallback_demand=math.fsum(fallback_demand),
            error_demand=math.fsum(error_demand),
            max_utilization=loads.max_utilization(),
            overloaded_links=len(overloaded),
            overload_demand=loads.overload_demand(),
            admission_dropped_demand=math.fsum(admission_dropped),
        )
        obs.inc(f"traffic.demand.delivered.{approach}", record.delivered_demand)
        obs.observe("traffic.max_utilization", record.max_utilization)
        if overloaded:
            obs.inc("traffic.links.overloaded", len(overloaded))
        obs.gauge(
            f"traffic.delivered_fraction.{approach}",
            safe_div(record.delivered_demand, record.disrupted_demand),
        )
        return record

    def _attribute_overloads(
        self,
        loads: LinkLoadMap,
        overloaded: Sequence[Tuple[Link, float]],
        groups: Dict[Tuple[int, int], List[DisruptedPair]],
        prefixes: Dict[Tuple[int, int], List[Tuple[Link, ...]]],
        by_case: Dict[Tuple[int, int], CaseRecord],
    ) -> Tuple:
        """Top-k overload attribution (empty when nothing is overloaded).

        A second pass over the disrupted groups charges each top
        overloaded link with the rerouted OD demands that crossed it —
        surviving prefixes and delivered recovery paths; intact
        background load is not a rerouting decision, so it is not
        attributed.
        """
        if not overloaded:
            return ()
        top = {link for link, _ in overloaded[:3]}
        contributions: Dict[Link, Dict[Tuple[int, int], float]] = {
            link: {} for link in top
        }

        def charge(link: Link, source: int, destination: int, demand: float) -> None:
            per_pair = contributions[link]
            key = (source, destination)
            per_pair[key] = per_pair.get(key, 0.0) + demand

        for key in sorted(groups):
            group = groups[key]
            for pair, links in zip(group, prefixes[key]):
                for link in links:
                    if link in top:
                        charge(link, pair.source, pair.destination, pair.demand)
            result = by_case[key].result
            if result.delivered and result.path is not None:
                for a, b in result.path.hops():
                    link = Link.of(a, b)
                    if link in top:
                        for pair in group:
                            charge(
                                link, pair.source, pair.destination, pair.demand
                            )
        return overload_attribution(loads, contributions)
