"""FPGA substrate models.

Everything below the IR accelerator itself: clock recipes, the Virtex
UltraScale+ resource model (block RAM / CLB / DSP accounting used to show
32 units fit at ~90% BRAM), DDR4 and PCIe-DMA timing, AXI4/AXILite MMIO
plumbing, TileLink width adaptation, and the round-robin arbiters that
coalesce each unit's five memory channels (5:1) and the 32 units (32:1)
onto one DDR channel.
"""
