"""Self-time arithmetic and wrapper installation of the layer tracer."""

import pytest

from tracing import LAYER_ENTRY_POINTS, LayerTracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def nested(clock, tracer, absorbed_inner=False):
    inner = tracer.wrap("inner", lambda: clock.spend(2.0))

    def outer_body():
        clock.spend(1.0)
        inner()
        clock.spend(0.5)
        inner()
        clock.spend(0.25)

    return tracer.wrap("outer", outer_body)


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock, absorbed=())
    nested(clock, tracer)()
    assert tracer.self_s == {"outer": 1.75, "inner": 4.0}
    assert tracer.total_s == {"outer": 5.75, "inner": 4.0}
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.attributed_s() == clock.now == 5.75


def test_self_time_of_recursive_layer_counts_each_second_once():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock, absorbed=())

    def body(depth):
        clock.spend(1.0)
        if depth:
            wrapped(depth - 1)

    wrapped = tracer.wrap("layer", body)
    wrapped(3)
    assert tracer.self_s["layer"] == tracer.total_s["layer"] == clock.now == 4.0
    assert tracer.calls["layer"] == 4


def test_absorbed_child_stays_in_parent_self_time():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock, absorbed=(("outer", "inner"),))
    nested(clock, tracer)()
    assert tracer.self_s == {"outer": 5.75}
    # Outside the parent the child is its own layer again.
    tracer.wrap("inner", lambda: clock.spend(3.0))()
    assert tracer.self_s["inner"] == 3.0


def test_raising_call_is_timed_and_unwound():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock, absorbed=())

    def boom():
        clock.spend(1.5)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert tracer.self_s["boom"] == 1.5
    nested(clock, tracer)()
    assert tracer.self_s["outer"] == 1.75


def test_install_wraps_every_entry_point_and_uninstall_restores():
    import repro.eval
    from repro.eval import cases
    from repro.routing import SPTCache
    from repro.te.penalty import LinkPenalty
    from repro.topology import isp_catalog
    from repro.traffic import LinkLoadMap

    originals = (SPTCache.__dict__["forward_tree"], cases.generate_cases)
    raw_classmethod = LinkPenalty.__dict__["from_load_map"]
    topo = isp_catalog.build("AS1239", seed=0)
    with LayerTracer() as tracer:
        assert SPTCache.__dict__["forward_tree"] is not originals[0]
        # Re-exported bindings are rewrapped too.
        assert repro.eval.generate_cases is cases.generate_cases is not originals[1]
        SPTCache().forward_tree(topo, 0)
        penalty = LinkPenalty.from_load_map(LinkLoadMap(topo))
        assert penalty.is_null()
    assert tracer.calls["routing.tree"] == 1
    assert tracer.calls["te.penalty"] == 1
    assert SPTCache.__dict__["forward_tree"] is originals[0]
    assert repro.eval.generate_cases is cases.generate_cases is originals[1]
    assert LinkPenalty.__dict__["from_load_map"] is raw_classmethod
    assert len({layer for layer, _, _ in LAYER_ENTRY_POINTS}) == 14
