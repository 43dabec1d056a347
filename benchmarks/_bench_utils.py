"""Helpers shared by the benchmark modules (see conftest.py for docs)."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

RESULTS_DIR = Path(__file__).parent / "results"

#: Machine-readable perf trajectory, checked in and updated per PR.
#: Schema: bench name -> {wall_s, cases, sp_computations, python, git_sha}.
BENCH_JSON = Path(__file__).parent / "BENCH_core.json"

#: Traffic-weighted trajectory (written by ``bench_traffic_weighted.py``,
#: uploaded by CI next to the core file).
BENCH_TRAFFIC_JSON = Path(__file__).parent / "BENCH_traffic.json"

#: Case-count multiplier (1 = laptop-quick defaults).
SCALE = max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))

#: Base number of cases per topology for the quick benchmarks.
BASE_CASES = 120 * SCALE

#: Topologies used by the heavier per-figure benchmarks (a representative
#: sparse/dense pair plus AS209); Table II runs all eight.
QUICK_TOPOLOGIES = ("AS209", "AS1239", "AS3549")


def emit(name: str, text: str, write_file: bool = True) -> None:
    """Print a regenerated table/series and persist it under results/.

    ``write_file=False`` only prints, leaving the checked-in result file
    untouched (the gate mode of the CI benches).
    """
    banner = f"\n=== {name} ===\n{text}\n"
    print(banner)
    if not write_file:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_figure(name: str, svg: str) -> None:
    """Persist a rendered SVG figure under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.svg").write_text(svg)
    print(f"(figure written: benchmarks/results/{name}.svg)")


def _git_sha() -> str:
    """Short commit hash of the benchmarked tree (``-dirty`` suffixed)."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
        return out.stdout.strip()
    except Exception:
        return "unknown"


def load_bench_json(path: Optional[Path] = None) -> Dict[str, dict]:
    """A checked-in perf baseline (default core), or ``{}`` before the
    first record."""
    target = BENCH_JSON if path is None else path
    if target.exists():
        return json.loads(target.read_text())
    return {}


def record_bench(
    name: str,
    wall_s: float,
    cases: int,
    sp_computations: int,
    git_sha: Optional[str] = None,
    config_hash: Optional[str] = None,
    cache_hit_rate: Optional[float] = None,
    span_ms: Optional[Dict[str, float]] = None,
    path: Optional[Path] = None,
    extra: Optional[Dict[str, object]] = None,
    write_file: bool = True,
    **extra_fields: object,
) -> dict:
    """Merge one benchmark measurement into a trajectory JSON.

    Defaults to ``BENCH_core.json``; pass ``path`` for a separate
    trajectory file (the traffic bench keeps ``BENCH_traffic.json``) and
    ``extra`` — or any additional keyword — for bench-specific fields
    merged into the entry.

    ``write_file=False`` records the measurement *only* to the
    ``REPRO_STORE`` run store, leaving the checked-in trajectory file
    untouched — the gate mode of the CI benches, where ``repro query
    regress`` compares the stored measurement against the pinned
    baseline (rewriting the baseline first would make that comparison
    vacuous).

    When ``REPRO_STORE`` names a run-store path, the refreshed entry is
    also mirrored there (best-effort: the benchmark never fails because
    the store is locked or broken), so ``repro query trend/regress`` see
    every recorded point, not just the latest file state.

    Keyed by bench name so each run refreshes its own entry and leaves the
    rest of the trajectory untouched.  ``sp_computations`` is the process
    delta of :func:`repro.routing.dijkstra_run_count` — the denominator
    that makes wall-clock comparable across machines.  ``config_hash``
    ties the row to the run manifest (:func:`repro.obs.config_hash` of
    the bench parameters); ``cache_hit_rate`` and ``span_ms`` come from
    an instrumented harvest run, when one was performed.
    """
    target = BENCH_JSON if path is None else path
    data = load_bench_json(target)
    entry = {
        "wall_s": round(wall_s, 4),
        "cases": cases,
        "sp_computations": sp_computations,
        "python": platform.python_version(),
        "git_sha": git_sha if git_sha is not None else _git_sha(),
    }
    if config_hash is not None:
        entry["config_hash"] = config_hash
    if cache_hit_rate is not None:
        entry["cache_hit_rate"] = round(cache_hit_rate, 4)
    if span_ms is not None:
        entry["span_ms"] = {k: round(v, 3) for k, v in sorted(span_ms.items())}
    if extra:
        entry.update(extra)
    if extra_fields:
        entry.update(extra_fields)
    data[name] = entry
    if write_file:
        target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    _mirror_to_store(target.name, name, entry)
    return data[name]


def _mirror_to_store(bench_file: str, name: str, entry: dict) -> None:
    """Append the refreshed row to the ``REPRO_STORE`` store, if set."""
    store_path = os.environ.get("REPRO_STORE")
    if not store_path:
        return
    try:
        from repro.store import RunStore

        with RunStore(store_path) as store:
            store.record_bench_rows(bench_file, {name: entry})
    except Exception as exc:  # noqa: BLE001 — recording must not fail the bench
        print(f"warning: REPRO_STORE={store_path}: {exc}", file=sys.stderr)
