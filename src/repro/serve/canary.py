"""Serving-path canary: route an evaluation scenario through the service.

The accuracy harness (PR 7) scores realignment *outcomes*; the serving
plane (this PR) changes *how* sites reach the kernel. The canary closes
the loop: it realigns a known-truth scenario where the kernel calls go
through the live :class:`~repro.serve.service.RealignmentService` --
admission control, coalescing, executor hop and all -- and checks the
report against the same invariants the batch accuracy tests pin. A
deployment whose serving path would corrupt outcomes (a bad slice
boundary, a result mis-ordered across coalesced jobs) fails its canary
before taking real traffic.

The bridge is :class:`ServiceBackedEngine`: a plain object with the
``run_sites`` contract, which the realigner accepts as an engine, whose
``run_sites`` submits to the service from the worker thread via
``asyncio.run_coroutine_threadsafe``.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Sequence


class ServiceBackedEngine:
    """An engine facade that routes ``run_sites`` through a service.

    Passing this to :class:`~repro.realign.realigner.IndelRealigner`
    (which takes any object with ``run_sites`` as its engine) makes
    any batch code path exercise the live request plane. Must be called
    from a thread other than the service's event loop (the realigner
    runs in an executor during the canary), because it blocks on the
    cross-thread future.
    """

    def __init__(self, service, loop: asyncio.AbstractEventLoop,
                 tenant: str = "canary",
                 deadline_s: Optional[float] = None):
        self._service = service
        self._service_loop = loop
        self._tenant = tenant
        self._deadline_s = deadline_s

    def run_sites(self, sites: Sequence, telemetry=None) -> List:
        if not sites:
            return []
        future = asyncio.run_coroutine_threadsafe(
            self._service.submit_sites(
                list(sites), tenant=self._tenant,
                deadline_s=self._deadline_s,
            ),
            self._service_loop,
        )
        return future.result()


async def run_canary(service, scenario: str = "toy",
                     seed: Optional[int] = None) -> dict:
    """Run one evaluation scenario through the serving path.

    Returns a verdict dict (the report's scenario totals plus
    ``"ok"``); ``ok`` requires the outcome invariants the batch
    accuracy tests pin -- realignment moved reads, did not add
    reference mismatches, and did not lose truth concordance.
    """
    from repro.evaluate.scenarios import run_scenario

    loop = asyncio.get_running_loop()
    engine = ServiceBackedEngine(service, loop)
    report = await loop.run_in_executor(
        None, lambda: run_scenario(scenario, engine=engine, seed=seed)
    )
    totals = report.totals()
    verdict = {
        "scenario": scenario,
        "seed": report.seed,
        "ok": bool(
            totals["reads_moved"] > 0
            and totals["mismatch_after"] <= totals["mismatch_before"]
            and totals["concordance_after"] >= totals["concordance_before"]
        ),
    }
    verdict.update(totals)
    return verdict


__all__ = ["ServiceBackedEngine", "run_canary"]
