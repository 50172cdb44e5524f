"""Realignment as a service: the asyncio request plane.

The batch CLI realigns a file; this package realigns *requests*. A
:class:`~repro.serve.service.RealignmentService` wraps any engine with
admission control, request coalescing, deadlines, and latency/saturation
telemetry; :class:`~repro.serve.server.RealignmentServer` exposes it
over a JSONL TCP protocol; :class:`~repro.serve.client.ServiceClient`
and :mod:`~repro.serve.loadgen` drive it. ``docs/SERVING.md`` is the
narrative; ``repro serve`` / ``repro loadgen`` are the entry points.
"""
