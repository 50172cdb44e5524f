"""The RoCC command router and per-unit programming state.

"The AXI hub converts RoCC commands and responses to and from AXILite
using Memory-Mapped IO (MMIO) registers ... The RoCC command router
routes the command to the corresponding IR Unit." This module is that
router: it drains encoded commands from the MMIO command queue,
dispatches them to per-unit configuration state, validates that a unit
is fully programmed before ``ir_start``, and posts completion responses
back through the MMIO response queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.isa import BufferId, IrFunct, RoccCommand
from repro.hw.axi import MmioRegisterFile


class RouterError(RuntimeError):
    """Raised on protocol violations (e.g. starting an unconfigured unit)."""


@dataclass
class UnitProgrammingState:
    """Everything ``ir_set_*`` must provide before ``ir_start`` is legal."""

    buffer_addrs: Dict[BufferId, int] = field(default_factory=dict)
    target_start: Optional[int] = None
    num_consensuses: Optional[int] = None
    num_reads: Optional[int] = None
    consensus_lengths: Dict[int, int] = field(default_factory=dict)
    busy: bool = False

    def is_configured(self) -> bool:
        if len(self.buffer_addrs) != len(BufferId):
            return False
        if self.target_start is None or self.num_consensuses is None:
            return False
        if self.num_reads is None:
            return False
        return all(
            cons_id in self.consensus_lengths
            for cons_id in range(self.num_consensuses)
        )

    def reset(self) -> None:
        self.buffer_addrs.clear()
        self.target_start = None
        self.num_consensuses = None
        self.num_reads = None
        self.consensus_lengths.clear()


class RoccCommandRouter:
    """Routes commands to units and tracks start/response handshakes."""

    def __init__(self, num_units: int, mmio: Optional[MmioRegisterFile] = None,
                 telemetry=None):
        if num_units <= 0:
            raise ValueError("router needs at least one unit")
        self.num_units = num_units
        self.mmio = mmio or MmioRegisterFile()
        self.telemetry = telemetry
        self.units: List[UnitProgrammingState] = [
            UnitProgrammingState() for _ in range(num_units)
        ]
        self.commands_routed = 0
        self.starts_issued = 0

    def dispatch(self, command: RoccCommand) -> Optional[int]:
        """Apply one command; returns the unit id on ``ir_start``."""
        if not 0 <= command.unit_id < self.num_units:
            raise RouterError(
                f"command routed to unit {command.unit_id}, "
                f"but only {self.num_units} units exist"
            )
        state = self.units[command.unit_id]
        self.commands_routed += 1
        if self.telemetry is not None:
            self.telemetry.count("router.commands_routed")
        if command.funct is IrFunct.SET_ADDR:
            state.buffer_addrs[BufferId(command.rs1_value)] = command.rs2_value
            return None
        if command.funct is IrFunct.SET_TARGET:
            state.target_start = command.rs1_value
            return None
        if command.funct is IrFunct.SET_SIZE:
            state.num_consensuses = command.rs1_value
            state.num_reads = command.rs2_value
            return None
        if command.funct is IrFunct.SET_LEN:
            state.consensus_lengths[command.rs1_value] = command.rs2_value
            return None
        # IrFunct.START
        if state.busy:
            raise RouterError(f"unit {command.unit_id} started while busy")
        if not state.is_configured():
            raise RouterError(
                f"unit {command.unit_id} started before full configuration"
            )
        state.busy = True
        self.starts_issued += 1
        if self.telemetry is not None:
            self.telemetry.count("router.starts_issued")
        return command.unit_id

    def complete(self, unit_id: int) -> None:
        """Unit finished: clear busy, post the MMIO completion response."""
        state = self.units[unit_id]
        if not state.busy:
            raise RouterError(f"unit {unit_id} completed but was not busy")
        state.busy = False
        state.reset()
        self.mmio.push_response(unit_id)
        if self.telemetry is not None:
            self.telemetry.count("router.completions_posted")

    def poll_completion(self) -> Optional[int]:
        """Host side: which unit (if any) has responded?"""
        return self.mmio.poll_response()
