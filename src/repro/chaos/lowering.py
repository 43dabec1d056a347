"""The per-step injected-loss decision of a fault plan.

A :class:`~repro.chaos.FaultPlan` perturbs walks per *transmission*: a
loss draw before every hop, a shared hop clock (and corruption draw)
after every hop, and detection state in the
:class:`~repro.chaos.DegradedLocalView` that evolves with that clock.

:class:`RuntimeStepMasks` holds the loss draw: one seeded
:class:`~repro.chaos.ChaosRuntime` draw per prospective transmission.
:class:`~repro.chaos.ChaosForwardingEngine` answers the walk loops'
``_chaos_check`` probe through it, so the injected-loss decision (and
its message) has exactly one implementation whether a walk runs
standalone or through a :class:`~repro.simulator.batch.WalkBatch`.  The
draws are *order-dependent*, which is why the batch runs its walks
sequentially in insertion order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..simulator.packet import Packet
from ..topology import Link

if TYPE_CHECKING:
    from .runtime import ChaosRuntime


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
