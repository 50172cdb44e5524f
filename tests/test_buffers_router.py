"""Unit tests for the unit buffers, MMIO, and the RoCC command router."""

import numpy as np
import pytest

from repro.core.buffers import (
    BufferError,
    OutputBuffer,
    RecordBuffer,
    make_unit_buffers,
)
from repro.core.isa import (
    BufferId,
    ir_set_addr,
    ir_set_len,
    ir_set_size,
    ir_set_target,
    ir_start,
)
from repro.core.router import RoccCommandRouter, RouterError
from repro.hw.axi import MmioRegisterFile, QueueFullError
from repro.realign.site import PAPER_LIMITS


class TestRecordBuffer:
    def test_load_and_read(self):
        buffer = RecordBuffer("test", num_slots=4, slot_bytes=64)
        payload = np.arange(40, dtype=np.uint8)
        buffer.load_slot(2, payload)
        assert buffer.slot_length(2) == 40
        assert buffer.read_byte(2, 39) == 39

    def test_slot_bounds(self):
        buffer = RecordBuffer("test", num_slots=2, slot_bytes=32)
        with pytest.raises(BufferError):
            buffer.load_slot(2, np.zeros(4, np.uint8))
        with pytest.raises(BufferError):
            buffer.load_slot(0, np.zeros(33, np.uint8))

    def test_byte_read_past_record(self):
        buffer = RecordBuffer("test", num_slots=1, slot_bytes=32)
        buffer.load_slot(0, np.zeros(4, np.uint8))
        with pytest.raises(BufferError):
            buffer.read_byte(0, 4)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            RecordBuffer("x", num_slots=1, slot_bytes=33)

    def test_reload_clears_old_data(self):
        buffer = RecordBuffer("test", num_slots=1, slot_bytes=32)
        buffer.load_slot(0, np.full(32, 9, np.uint8))
        buffer.load_slot(0, np.full(4, 7, np.uint8))
        assert buffer.slot_length(0) == 4
        assert [buffer.read_byte(0, i) for i in range(4)] == [7] * 4
        with pytest.raises(BufferError):
            buffer.read_byte(0, 4)


class TestOutputBuffer:
    def test_write_read_flags(self):
        buffer = OutputBuffer("out", num_entries=8, entry_bytes=1)
        buffer.write(3, 1)
        assert buffer.read(3) == 1
        assert buffer.read(2) == 0

    def test_value_range(self):
        buffer = OutputBuffer("out", num_entries=2, entry_bytes=1)
        with pytest.raises(BufferError):
            buffer.write(0, 256)
        wide = OutputBuffer("out4", num_entries=2, entry_bytes=4)
        wide.write(0, 2**32 - 1)

    def test_clear(self):
        buffer = OutputBuffer("out", num_entries=2, entry_bytes=4)
        buffer.write(0, 5)
        buffer.clear()
        assert buffer.read(0) == 0


class TestUnitBuffers:
    def test_figure6_sizes(self):
        buffers = make_unit_buffers(PAPER_LIMITS)
        assert buffers["consensus"].capacity_bytes == 32 * 2048
        assert buffers["read_bases"].capacity_bytes == 256 * 256
        assert buffers["read_quals"].capacity_bytes == 256 * 256
        assert buffers["out_realign"].capacity_bytes == 256
        assert buffers["out_positions"].capacity_bytes == 1024


class TestMmio:
    def test_queue_flow(self):
        mmio = MmioRegisterFile(response_depth=2)
        mmio.push_response(1)
        mmio.push_response(2)
        with pytest.raises(QueueFullError):
            mmio.push_response(3)
        assert mmio.poll_response() == 1
        assert mmio.poll_response() == 2
        assert mmio.poll_response() is None

    def test_response_flow(self):
        mmio = MmioRegisterFile()
        assert mmio.poll_response() is None
        mmio.push_response(5)
        assert mmio.poll_response() == 5
        assert mmio.poll_response() is None


class TestRouter:
    def configure(self, router, unit):
        for buffer_id in BufferId:
            router.dispatch(ir_set_addr(unit, buffer_id, 64 * buffer_id))
        router.dispatch(ir_set_target(unit, 1_000))
        router.dispatch(ir_set_size(unit, 2, 4))
        router.dispatch(ir_set_len(unit, 0, 100))
        router.dispatch(ir_set_len(unit, 1, 98))

    def test_full_handshake(self):
        router = RoccCommandRouter(num_units=4)
        self.configure(router, 2)
        started = router.dispatch(ir_start(2))
        assert started == 2
        assert router.units[2].busy
        router.complete(2)
        assert not router.units[2].busy
        assert router.poll_completion() == 2
        assert router.starts_issued == 1

    def test_start_before_configuration_rejected(self):
        router = RoccCommandRouter(num_units=2)
        with pytest.raises(RouterError, match="before full configuration"):
            router.dispatch(ir_start(0))

    def test_missing_consensus_length_rejected(self):
        router = RoccCommandRouter(num_units=1)
        for buffer_id in BufferId:
            router.dispatch(ir_set_addr(0, buffer_id, 0))
        router.dispatch(ir_set_target(0, 0))
        router.dispatch(ir_set_size(0, 2, 4))
        router.dispatch(ir_set_len(0, 0, 100))  # consensus 1 missing
        with pytest.raises(RouterError):
            router.dispatch(ir_start(0))

    def test_double_start_rejected(self):
        router = RoccCommandRouter(num_units=1)
        self.configure(router, 0)
        router.dispatch(ir_start(0))
        with pytest.raises(RouterError, match="busy"):
            router.dispatch(ir_start(0))

    def test_unknown_unit_rejected(self):
        router = RoccCommandRouter(num_units=2)
        with pytest.raises(RouterError):
            router.dispatch(ir_start(5))

    def test_complete_idle_unit_rejected(self):
        router = RoccCommandRouter(num_units=1)
        with pytest.raises(RouterError):
            router.complete(0)

    def test_state_resets_after_completion(self):
        router = RoccCommandRouter(num_units=1)
        self.configure(router, 0)
        router.dispatch(ir_start(0))
        router.complete(0)
        with pytest.raises(RouterError):
            router.dispatch(ir_start(0))  # configuration was cleared
