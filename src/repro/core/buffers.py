"""The IR unit's local memories (BRAM-backed buffers).

Figure 6 structure sizes: input buffer #1 holds 32 consensuses x 2048 B,
input buffers #2/#3 hold 256 reads x 256 B of bases and quality scores,
output buffer #1 holds 256 x 1 B realign flags, output buffer #2 holds
256 x 4 B new positions. "The input buffers ... are block-indexed and
byte-selected" with 32-byte blocks, which is what lets the parallel
Hamming distance calculator read 32 bytes per cycle without shifters.

The cycle-stepped unit model reads and writes through these objects so
capacity violations and block-aligned slots are actually exercised; the
analytic model only uses their size arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

#: BRAM read granularity: "we can read 32 bytes of data from the block
#: RAM per cycle".
BLOCK_BYTES = 32


class BufferError(RuntimeError):
    """Raised on capacity or addressing violations."""


@dataclass
class RecordBuffer:
    """A block-indexed input buffer holding fixed-slot records.

    Each record (a consensus, or a read's bases/qualities) occupies one
    slot of ``slot_bytes``; slots are block-aligned so record ``i``
    starts at block ``i * slot_bytes / 32``.
    """

    name: str
    num_slots: int
    slot_bytes: int
    _data: Optional[np.ndarray] = None
    _lengths: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if self.num_slots <= 0 or self.slot_bytes <= 0:
            raise ValueError("buffer geometry must be positive")
        if self.slot_bytes % BLOCK_BYTES != 0:
            raise ValueError(
                f"slot size {self.slot_bytes} not a multiple of {BLOCK_BYTES}"
            )
        self._data = np.zeros(self.num_slots * self.slot_bytes, dtype=np.uint8)
        self._lengths = [0] * self.num_slots

    @property
    def capacity_bytes(self) -> int:
        return self.num_slots * self.slot_bytes

    def load_slot(self, slot: int, payload: np.ndarray) -> None:
        """Fill one record slot (the MemReader's job)."""
        if not 0 <= slot < self.num_slots:
            raise BufferError(f"{self.name}: slot {slot} outside 0..{self.num_slots - 1}")
        payload = np.asarray(payload, dtype=np.uint8)
        if payload.size > self.slot_bytes:
            raise BufferError(
                f"{self.name}: payload of {payload.size} B exceeds the "
                f"{self.slot_bytes} B slot"
            )
        base = slot * self.slot_bytes
        self._data[base : base + self.slot_bytes] = 0
        self._data[base : base + payload.size] = payload
        self._lengths[slot] = payload.size

    def slot_length(self, slot: int) -> int:
        if not 0 <= slot < self.num_slots:
            raise BufferError(f"{self.name}: slot {slot} out of range")
        return self._lengths[slot]

    def read_byte(self, slot: int, offset: int) -> int:
        """Byte-selected single read (the scalar calculator's port)."""
        if not 0 <= offset < self._lengths[slot]:
            raise BufferError(
                f"{self.name}: offset {offset} outside record of "
                f"{self._lengths[slot]} B in slot {slot}"
            )
        return int(self._data[slot * self.slot_bytes + offset])


@dataclass
class OutputBuffer:
    """A word-addressed output buffer (realign flags / new positions)."""

    name: str
    num_entries: int
    entry_bytes: int
    _values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.num_entries <= 0 or self.entry_bytes <= 0:
            raise ValueError("buffer geometry must be positive")
        self._values = np.zeros(self.num_entries, dtype=np.int64)

    @property
    def capacity_bytes(self) -> int:
        return self.num_entries * self.entry_bytes

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < self.num_entries:
            raise BufferError(f"{self.name}: index {index} out of range")
        limit = 1 << (8 * self.entry_bytes)
        if not 0 <= value < limit:
            raise BufferError(
                f"{self.name}: value {value} does not fit {self.entry_bytes} B"
            )
        self._values[index] = value

    def read(self, index: int) -> int:
        if not 0 <= index < self.num_entries:
            raise BufferError(f"{self.name}: index {index} out of range")
        return int(self._values[index])

    def clear(self) -> None:
        self._values[:] = 0


def make_unit_buffers(limits) -> dict:
    """Instantiate the five Figure 6 buffers for one IR unit."""
    slot = lambda n: -(-n // BLOCK_BYTES) * BLOCK_BYTES
    return {
        "consensus": RecordBuffer(
            "consensus-bases", limits.max_consensuses,
            slot(limits.max_consensus_length),
        ),
        "read_bases": RecordBuffer(
            "read-bases", limits.max_reads, slot(limits.max_read_length)
        ),
        "read_quals": RecordBuffer(
            "read-quality-scores", limits.max_reads, slot(limits.max_read_length)
        ),
        "out_realign": OutputBuffer("out-realign-flags", limits.max_reads, 1),
        "out_positions": OutputBuffer("out-new-positions", limits.max_reads, 4),
    }
