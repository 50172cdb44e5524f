"""TileLink link model.

Units talk to the memory arbiter over TileLink ("One TileLink Block,
256 Bits, Bi-Directional Decoupled Interface" in Figure 6). The paper
swept interface widths with Rocket Chip's parametrized implementation and
"found that a 256-bit interface provided the best performance under the
timing constraints" -- the ablation bench reruns that sweep with this
model, where wider links cut beat counts but lengthen the critical
routing path (narrowing the achievable clock).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TileLinkLink:
    """One TileLink channel between an IR unit and the memory arbiter."""

    data_width_bits: int = 256
    # Routing-delay growth per doubling beyond 256 bits; encodes the
    # paper's observation that the 32-unit AXI/TileLink fabric is
    # routing-limited. Used only by the width-ablation bench.
    routing_penalty_per_doubling: float = 0.12

    def __post_init__(self) -> None:
        if self.data_width_bits <= 0 or self.data_width_bits % 8 != 0:
            raise ValueError("TileLink width must be a positive multiple of 8")

    @property
    def bytes_per_beat(self) -> int:
        return self.data_width_bits // 8

    def beats(self, num_bytes: int) -> int:
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        return -(-num_bytes // self.bytes_per_beat)

    def achievable_frequency_hz(self, base_frequency_hz: float = 125e6,
                                base_width_bits: int = 256) -> float:
        """Clock the fabric closes timing at, for this width.

        At and below the base width the base recipe closes; each doubling
        beyond it costs ``routing_penalty_per_doubling`` of the clock.
        """
        if base_frequency_hz <= 0:
            raise ValueError("base frequency must be positive")
        width = self.data_width_bits
        frequency = base_frequency_hz
        while width > base_width_bits:
            frequency *= 1.0 - self.routing_penalty_per_doubling
            width //= 2
        return frequency
