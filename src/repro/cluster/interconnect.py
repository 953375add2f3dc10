"""Inter-replica interconnect model for KV-cache migration.

Disaggregated prefill/decode serving moves a finished prompt's KV cache
from the prefill replica to a decode replica. The transfer is charged
per KV byte at the link's bandwidth plus a fixed per-transfer setup
latency, and all migrations serialize over one shared link — concurrent
handoffs queue, exactly like NCCL point-to-point transfers sharing an
NVLink plane. Timestamps live on the same simulated-seconds axis as
:class:`~repro.gpu.clock.SimClock`, so migration delay lands in request
latencies through ordinary clock arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import ConfigError
from ..memory.tier import PCIE_BANDWIDTH
from ..units import us


@dataclass(frozen=True)
class InterconnectSpec:
    """Capability description of one replica-to-replica link."""

    name: str
    #: Sustained one-direction bandwidth (bytes/second).
    bandwidth: float
    #: Per-transfer setup cost (rendezvous, ring setup).
    setup_latency: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigError(f"{self.name}: bandwidth must be positive")
        if self.setup_latency < 0:
            raise ConfigError(f"{self.name}: latency cannot be negative")

    def transfer_seconds(self, nbytes: int) -> float:
        """Time one ``nbytes`` transfer occupies the link."""
        if nbytes < 0:
            raise ConfigError(f"cannot transfer {nbytes} bytes")
        return self.setup_latency + nbytes / self.bandwidth


#: NVLink 3.0 (A100 SXM): 300GB/s per direction between peers.
NVLINK = InterconnectSpec("nvlink", bandwidth=300e9, setup_latency=us(10))

#: PCIe 4.0 x16 — same effective rate the host swap space models.
PCIE = InterconnectSpec("pcie", bandwidth=PCIE_BANDWIDTH, setup_latency=us(25))

INTERCONNECTS: Dict[str, InterconnectSpec] = {
    spec.name: spec for spec in (NVLINK, PCIE)
}


def get_interconnect(name: str) -> InterconnectSpec:
    """Look an interconnect up by name."""
    try:
        return INTERCONNECTS[name]
    except KeyError:
        known = ", ".join(sorted(INTERCONNECTS))
        raise ConfigError(
            f"unknown interconnect {name!r}; known: {known}"
        ) from None


class MigrationLink:
    """One shared migration link; transfers serialize in request order."""

    def __init__(self, spec: InterconnectSpec) -> None:
        self.spec = spec
        self.busy_until = 0.0
        self.transfers = 0
        self.migrated_bytes = 0
        self.busy_seconds = 0.0

    def transfer(self, when: float, nbytes: int) -> Tuple[float, float]:
        """Schedule an ``nbytes`` transfer requested at time ``when``.

        Returns ``(start, done)``: the transfer begins once the link is
        free and completes after the spec's setup + streaming time.
        """
        start = max(when, self.busy_until)
        duration = self.spec.transfer_seconds(nbytes)
        done = start + duration
        self.busy_until = done
        self.transfers += 1
        self.migrated_bytes += nbytes
        self.busy_seconds += duration
        return start, done
