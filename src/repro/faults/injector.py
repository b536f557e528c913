"""Seeded fault injector: the single source of randomness in a faulted run.

The executor's simulation is serial, so RNG draws happen in a fixed
order for a fixed ``(network, batch, policy, spec)`` — which is what
makes *same seed ⇒ bit-identical FaultReport* hold.  Two guards protect
the complementary guarantee, *faults off ⇒ bit-identical to a run with
no injector at all*:

* a fault family whose knob is at its neutral value consumes **no** RNG
  draw (so ``dma=0.1`` alone draws nothing for jitter, and vice versa);
* a bandwidth factor of exactly ``1.0`` multiplies transfer times by
  the float ``1.0``, which is exact, so an all-neutral spec reproduces
  today's timings bit for bit.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from ..hw.pcie import PCIeLink
from .report import FaultEvent, FaultReport
from .spec import FaultSpec

if TYPE_CHECKING:
    from ..obs import Instrumentation


class DMAAbortError(RuntimeError):
    """A DMA transfer exhausted its retry budget and cannot be skipped."""


class FaultInjector:
    """Draws faults from a seeded stream and logs them into a report."""

    def __init__(self, spec: FaultSpec, seed: int = 0,
                 obs: Optional[Instrumentation] = None) -> None:
        self.spec = spec
        self.seed = seed
        self.rng = random.Random(seed)
        self.report = FaultReport(spec=spec, seed=seed)
        self.obs = obs

    # ------------------------------------------------------------------
    def dma_seconds(self, pcie: PCIeLink, nbytes: int) -> float:
        """Transfer time over the degraded, jittered link.

        With both knobs neutral this is exactly ``pcie.dma_time(nbytes)``
        and no RNG is consumed.
        """
        base = pcie.dma_time(nbytes)
        factor = self.spec.pcie_bw_factor
        if self.spec.pcie_jitter > 0:
            jitter = self.spec.pcie_jitter
            factor *= self.rng.uniform(1.0 - jitter, 1.0 + jitter)
        if factor == 1.0:
            return base
        # Setup latency is link-level and unaffected; only the wire
        # portion stretches when bandwidth degrades.
        wire = base - pcie.dma_setup_latency
        return pcie.dma_setup_latency + wire / factor

    def dma_fails(self, kind: str) -> bool:
        """Whether one DMA attempt of ``kind`` transiently fails.

        Consumes one RNG draw only when the failure rate is positive.
        """
        rate = self.spec.failure_rate(kind)
        if rate <= 0.0:
            return False
        return self.rng.random() < rate

    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        time: float,
        target: str,
        *,
        attempts: int = 0,
        outcome: str = "recovered",
        nbytes: int = 0,
        detail: str = "",
    ) -> FaultEvent:
        event = self.report.add(FaultEvent(
            kind=kind, time=time, target=target, attempts=attempts,
            outcome=outcome, nbytes=nbytes, detail=detail,
        ))
        if self.obs is not None:
            self.obs.fault_event(kind, outcome)
        return event


def make_injector(
    spec: Optional[FaultSpec], seed: int = 0,
    obs: Optional[Instrumentation] = None,
) -> Optional[FaultInjector]:
    """Build an injector, or None when no spec is given."""
    if spec is None:
        return None
    return FaultInjector(spec, seed, obs=obs)
