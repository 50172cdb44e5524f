"""Unit tests for the FPGA substrate models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.arbiter import RoundRobinArbiter
from repro.hw.axi import AXI4_DMA_PORT, AXILITE_CONTROL_PORT, AxiLiteBus, AxiPort
from repro.hw.bram import blocks_for_buffer
from repro.hw.clock import (
    F1_CLOCK_125MHZ,
    F1_CLOCK_250MHZ,
    ClockRecipe,
)
from repro.hw.memory import DdrChannelModel, PcieDmaModel
from repro.hw.resources import (
    VIRTEX_ULTRASCALE_PLUS_VU9P,
    ir_unit_bram36,
    max_units,
    utilization,
)
from repro.hw.tilelink import TileLinkLink


class TestClock:
    def test_deployed_recipe(self):
        assert F1_CLOCK_125MHZ.frequency_hz == 125e6
        assert F1_CLOCK_125MHZ.timing_met
        assert F1_CLOCK_125MHZ.cycles_to_seconds(125e6) == pytest.approx(1.0)
        assert F1_CLOCK_125MHZ.seconds_to_cycles(2.0) == pytest.approx(250e6)

    def test_rejected_recipe(self):
        # Section IV: 250 MHz fails timing with >95% routing delay.
        assert not F1_CLOCK_250MHZ.timing_met
        assert F1_CLOCK_250MHZ.routing_delay_fraction >= 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            ClockRecipe("bad", -1, 0.5, True)
        with pytest.raises(ValueError):
            F1_CLOCK_125MHZ.cycles_to_seconds(-1)


class TestBram:
    def test_consensus_buffer_mapping(self):
        # 64 KiB at 256 bits wide: 8 columns x 2 ranks = 16 tiles.
        req = blocks_for_buffer("consensus", 32 * 2048, 256)
        assert req.columns == 8
        assert req.ranks == 2
        assert req.tiles == 16

    def test_narrow_buffer_single_column(self):
        req = blocks_for_buffer("selector", 1024, 32)
        assert req.tiles == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            blocks_for_buffer("x", 0, 32)
        with pytest.raises(ValueError):
            blocks_for_buffer("x", 64, 12)


class TestResources:
    def test_unit_inventory_is_53_tiles(self):
        assert ir_unit_bram36() == 53

    def test_paper_utilization_reproduced(self):
        report = utilization(32)
        assert report.bram_utilization == pytest.approx(0.8762, abs=0.002)
        assert report.clb_utilization == pytest.approx(0.3253, abs=0.0005)
        assert report.fits

    def test_32_units_fit_and_33_would_pass_90_percent(self):
        assert max_units() == 32
        report33 = utilization(33)
        assert report33.bram_utilization > 0.90

    def test_bram_bound_not_clb_bound(self):
        # The paper: unit count "is limited by the number of block RAM
        # cells available".
        report = utilization(32)
        assert report.clb_utilization < report.bram_utilization

    def test_device_table2_figures(self):
        device = VIRTEX_ULTRASCALE_PLUS_VU9P
        assert device.logic_elements == 2_500_000
        assert 6_500 <= device.dsp_slices <= 7_000


class TestMemoryModels:
    def test_dma_transfer_time(self):
        dma = PcieDmaModel(bandwidth_bytes_per_s=8e9, setup_latency_s=5e-6)
        assert dma.transfer_seconds(0) == 0.0
        assert dma.transfer_seconds(8_000_000_000) == pytest.approx(1.0, rel=0.01)

    def test_ddr_capacity(self):
        ddr = DdrChannelModel()
        assert ddr.fits(16 * 1024**3)
        assert not ddr.fits(17 * 1024**3)

    def test_validation(self):
        with pytest.raises(ValueError):
            PcieDmaModel(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            DdrChannelModel(capacity_bytes=0)


class TestAxi:
    def test_port_beats(self):
        assert AXI4_DMA_PORT.bytes_per_beat == 64
        assert AXI4_DMA_PORT.beats(65) == 2
        assert AXILITE_CONTROL_PORT.beats(4) == 1

    def test_port_validation(self):
        with pytest.raises(ValueError):
            AxiPort("bad", 12)

    def test_axilite_cycles(self):
        bus = AxiLiteBus()
        assert bus.write_cycles(3) == 12


class TestTileLink:
    def test_beats(self):
        link = TileLinkLink(data_width_bits=256)
        assert link.bytes_per_beat == 32
        assert link.beats(33) == 2

    def test_width_frequency_tradeoff(self):
        base = TileLinkLink(256).achievable_frequency_hz()
        wide = TileLinkLink(1024).achievable_frequency_hz()
        assert base == pytest.approx(125e6)
        assert wide < base

    def test_validation(self):
        with pytest.raises(ValueError):
            TileLinkLink(data_width_bits=100)


class TestArbiter:
    def test_round_robin_rotation(self):
        arbiter = RoundRobinArbiter(4)
        grants = [arbiter.grant([0, 1, 2, 3]) for _ in range(8)]
        assert grants == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_idle_cycle(self):
        assert RoundRobinArbiter(4).grant([]) is None

    def test_bad_requester(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(4).grant([4])

    def test_drain_is_work_conserving(self):
        arbiter = RoundRobinArbiter(3)
        order = arbiter.drain([2, 1, 3])
        assert len(order) == 6
        assert sorted(order) == [0, 0, 1, 2, 2, 2]

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=8)
           .filter(lambda counts: sum(counts) > 0))
    @settings(max_examples=40, deadline=None)
    def test_bounded_unfairness(self, counts):
        """A continuously requesting master waits at most N grants."""
        arbiter = RoundRobinArbiter(len(counts))
        order = arbiter.drain(counts)
        last_seen = {i: -1 for i, c in enumerate(counts) if c > 0}
        remaining = list(counts)
        for step, winner in enumerate(order):
            for requester, count in enumerate(remaining):
                if count > 0 and requester in last_seen:
                    wait = step - last_seen[requester]
                    assert wait <= len(counts)
            last_seen[winner] = step
            remaining[winner] -= 1
