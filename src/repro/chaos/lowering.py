"""Lowering fault plans onto the walk plane.

A :class:`~repro.chaos.FaultPlan` perturbs walks per *transmission*: a
loss draw before every hop, a shared hop clock (and corruption draw)
after every hop, and detection state in the
:class:`~repro.chaos.DegradedLocalView` that evolves with that clock.
This module is the single authority on how those faults meet the walk
plane (:mod:`repro.simulator.batch`):

* :func:`lower_walk_faults` lowers an engine's fault machinery into a
  per-step mask object the walk loops consult before each hop —
  :class:`NullStepMasks` for the clean engine (no draw) and
  :class:`RuntimeStepMasks` for a chaos engine (one seeded RNG draw per
  step, in walk order).  The draws are *order-dependent*, which is why
  :class:`~repro.simulator.batch.WalkBatch` runs its walks sequentially
  in insertion order.

:class:`~repro.chaos.ChaosForwardingEngine` itself consults its lowered
masks, so the injected-loss decision (and its message) has exactly one
implementation whether a walk runs standalone or through a batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..simulator.engine import ForwardingEngine
from ..simulator.packet import Packet
from ..topology import Link

if TYPE_CHECKING:
    from .runtime import ChaosRuntime


class NullStepMasks:
    """The clean-engine lowering: no per-step faults."""

    def drop_reason(self, packet: Packet, next_node: int) -> Optional[str]:
        return None


class RuntimeStepMasks:
    """Per-step drop masks drawn from a seeded :class:`ChaosRuntime`.

    One loss draw per prospective transmission, consumed in walk order —
    the defining property the batch plane must preserve.
    """

    def __init__(self, runtime: "ChaosRuntime") -> None:
        self.runtime = runtime

    def drop_reason(self, packet: Packet, next_node: int) -> Optional[str]:
        if self.runtime.sample_packet_loss():
            return (
                f"recovery packet lost on link "
                f"{Link.of(packet.at, next_node)} (injected loss)"
            )
        return None


#: Shared instance — the null lowering carries no state.
NULL_STEP_MASKS = NullStepMasks()


def lower_walk_faults(engine: ForwardingEngine):
    """The per-step fault masks of ``engine``'s walk context.

    A plain :class:`ForwardingEngine` lowers to the shared null masks; an
    engine exposing a chaos ``runtime`` lowers to seeded per-step draws.
    Engines that override ``_chaos_check`` without a runtime (custom
    subclasses) fall back to an adapter over that hook so the plane honors
    them too.
    """
    if type(engine) is ForwardingEngine:
        return NULL_STEP_MASKS
    runtime = getattr(engine, "runtime", None)
    if runtime is not None:
        return RuntimeStepMasks(runtime)
    return _HookStepMasks(engine)


class _HookStepMasks:
    """Adapter lowering a custom ``_chaos_check`` override."""

    def __init__(self, engine: ForwardingEngine) -> None:
        self.engine = engine

    def drop_reason(self, packet: Packet, next_node: int) -> Optional[str]:
        return self.engine._chaos_check(packet, next_node)

