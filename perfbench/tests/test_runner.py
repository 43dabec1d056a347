"""The runner's verdicts, its output contract, and failed-share counting."""

import io
import json
import signal
import time
from contextlib import nullcontext, redirect_stdout
from functools import partial
from pathlib import Path

import pytest

import hostclock
import run
import workloads
from hostclock import HostClock
from workloads import Workload, table3_setup

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

N_CASES = 10


def tiny(approaches=("RTR", "FCP")) -> Workload:
    """A one-topology Table III workload that sweeps in well under a second."""
    return Workload(
        "tiny",
        N_CASES * len(approaches),
        partial(table3_setup, topologies=("AS1239",), n_cases=N_CASES, approaches=approaches),
        workloads._table3_sweep,
    )


def digest_of(workload, seed=0):
    return workloads.table_digest(workload.sweep(workload.setup(seed)).table)


def test_matching_pin_passes():
    w = tiny()
    verdict = run.Verdict(w, digest_of(w))
    metrics = run.measure(w, 0, 0.0, verdict)
    assert verdict.problems == []
    assert verdict.attempted == run.MIN_ITERATIONS * w.recoveries
    assert verdict.failed == 0
    assert metrics["completed_share"]["value"] == 1.0
    assert metrics["recoveries_per_s"]["value"] > 0.0


def test_digest_mismatch_fails_the_run():
    w = tiny()
    verdict = run.Verdict(w, "0" * 64)
    run.measure(w, 0, 0.0, verdict)
    assert len(verdict.problems) == 1
    assert "!= pinned" in verdict.problems[0]
    # Every recovery of a sweep whose tables are wrong counts as failed.
    assert verdict.failed == w.recoveries > 0
    assert verdict.attempted == run.MIN_ITERATIONS * w.recoveries


def test_identity_violation_fails_the_run():
    w = tiny()

    def broken(setup, stage=nullcontext):
        result = workloads._table3_sweep(setup, stage)
        result.problems.append("synthetic identity violation")
        return result

    bad = Workload(w.name, w.recoveries, w.setup, broken)
    verdict = run.Verdict(bad)
    run.measure(bad, 0, 0.0, verdict)
    assert verdict.failed == verdict.attempted
    assert "synthetic identity violation" in verdict.problems


def test_crashing_scheme_raises_failed_share(monkeypatch):
    from repro.schemes import registry

    monkeypatch.setenv(registry.PLUGIN_ENV, "crash_scheme")
    monkeypatch.setattr(registry, "_plugins_loaded", False)
    w = tiny(approaches=("RTR", "Crash"))
    verdict = run.Verdict(w)
    metrics = run.measure(w, 0, 0.0, verdict)
    # Half of the recoveries belong to the crashing scheme.
    assert metrics["completed_share"]["value"] == 0.5
    assert verdict.failed == verdict.attempted // 2
    assert verdict.problems == []


def test_traced_run_reproduces_untraced_tables_and_counts():
    w = tiny()
    first = run.Verdict(w)
    layers = run.measure_traced(w, 0, 0.0, first)
    assert first.problems == []
    second = run.Verdict(w, first.digest)
    again = run.measure_traced(w, 0, 0.0, second)
    assert second.problems == []
    for name, metric in layers.items():
        if metric["unit"] == "count":
            assert again[name]["value"] == metric["value"], name
    assert layers["routing.sp_runs"]["value"] > 0
    assert layers["core.phase1_walks"]["value"] > 0


def contract():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_result_follows_the_benchmark_contract(monkeypatch, trace, section):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny())
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", "tiny", "--seed", "0", "--seconds", "0", "--trace", str(trace)]
        )
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in contract()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_declared_workloads_exist():
    declared = [w["name"] for w in contract()["workloads"]]
    assert set(declared) <= set(workloads.WORKLOADS)


def test_sweep_must_reproduce_the_runs_first_sweep():
    w = tiny()
    verdict = run.Verdict(w)
    result = w.sweep(w.setup(0))
    verdict.check(result)
    result.table["AS1239"]["RTR"]["cases"] += 1
    verdict.check(result)
    assert verdict.problems and "the run's first sweep" in verdict.problems[0]
    assert verdict.failed == w.recoveries


class FakeHost:
    """A clock, and a probe that takes ``probe_s`` of it, under a test's control."""

    def __init__(self, probe_s):
        self.now = 0.0
        self.probe_s = probe_s

    def clock(self):
        return self.now

    def probe(self):
        self.now += self.probe_s

    def host_clock(self):
        return HostClock(probe=self.probe, clock=self.clock, period_s=0)


def test_host_clock_divides_each_stage_by_its_mean_probe_time():
    host = FakeHost(probe_s=2.0)
    clock = host.host_clock()
    with clock.stage():
        host.now += 6.0
        # The host slows down mid-stage; an interrupting probe sees it,
        # and its own time is not the stage's.
        host.probe_s = 6.0
        clock._on_alarm(None, None)
        host.now += 6.0
    # Probes: 2.0, 2.0 before, 6.0 inside, 6.0, 6.0 after: mean 4.4.
    assert clock.samples == [2.0, 2.0, 6.0, 6.0, 6.0]
    assert clock.ratios == [pytest.approx(12.0 / 4.4)]
    assert clock.take() == pytest.approx(12.0 / 4.4)
    assert clock.ratios == [] and clock.take() == 0.0


def test_host_clock_scales_with_the_host():
    # The same work on a host running twice as slowly costs the same.
    def cost(slowdown):
        host = FakeHost(probe_s=0.002 * slowdown)
        clock = host.host_clock()
        for work in (0.5, 1.5):
            with clock.stage():
                host.now += work * slowdown
        return clock.take()

    assert cost(1.0) == pytest.approx(cost(2.0)) == pytest.approx(1000.0)


def test_host_clock_probes_interrupt_a_stage():
    clock = HostClock(period_s=0.01)
    with clock.stage():
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(clock.samples) > 2 * hostclock.EDGE_PROBES
    assert clock.take() > 0.0
    assert signal.getsignal(signal.SIGALRM) is not clock._on_alarm


def test_unknown_workload_exits_nonzero():
    assert run.main(["--workload", "nope", "--seed", "0", "--seconds", "1"]) == 2
