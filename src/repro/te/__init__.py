"""``repro.te`` — the traffic-engineering layer (congestion-aware recovery).

The paper's objective is reachability: recover as many disrupted pairs
as possible.  ``BENCH_traffic.json`` shows what that objective ignores —
recovered paths pile demand onto surviving links (3.11× max utilization
on AS7018).  This subsystem makes recovery *congestion-aware*:

* :mod:`repro.te.penalty` — an integer-quantized load-penalized link
  metric that composes with both shortest-path kernel backends;
  RTR phase-2 selection uses it when ``RTRConfig(congestion_aware=True)``
  (strictly off by default — all pinned golden sweeps stay byte-identical);
* :mod:`repro.te.r3` — an R3-style protection-routing scheme
  (``@register_scheme("r3")``): offline, protection detours planned
  against a virtual-demand set covering single-link failures; online,
  per convergence window, reconfiguration by detour splicing — no
  re-optimization;
* :mod:`repro.te.metrics` — the congestion evaluation layer:
  post-recovery utilization histograms/CDF (p50/p95/p99/max),
  congestion-free-recovery rate, top-k overload attribution.

See DESIGN.md §14 for the architecture and EXPERIMENTS.md for the
3.11× → ≤1.5× walkthrough.
"""

from .penalty import (
    DEFAULT_PENALTY_ALPHA,
    DEFAULT_PENALTY_EXPONENT,
    DEFAULT_UTILIZATION_CLIP,
    PENALTY_QUANT,
    LinkPenalty,
    LivePenalty,
    recost_path,
)
from .metrics import (
    UTILIZATION_BIN_EDGES,
    congestion_free,
    merge_histograms,
    overload_attribution,
    utilization_histogram,
    utilization_percentile,
)

__all__ = [
    "DEFAULT_PENALTY_ALPHA",
    "DEFAULT_PENALTY_EXPONENT",
    "DEFAULT_UTILIZATION_CLIP",
    "PENALTY_QUANT",
    "LinkPenalty",
    "LivePenalty",
    "recost_path",
    "UTILIZATION_BIN_EDGES",
    "congestion_free",
    "merge_histograms",
    "overload_attribution",
    "utilization_histogram",
    "utilization_percentile",
]
