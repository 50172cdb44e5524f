"""Fault injection and fault tolerance for the accelerated IR system.

The paper evaluates a sea of 32 IR units that never hangs, drops a RoCC
response, or loses its spot instance. Production operation (the ROADMAP
north star) makes partial hardware failure and cloud preemption the
steady state, so this package adds a deterministic chaos layer and the
recovery machinery that keeps realignment output bit-identical to a
fault-free run:

- :mod:`repro.resilience.faults` -- the fault taxonomy and the seeded,
  order-independent :class:`FaultPlan` injector;
- :mod:`repro.resilience.policy` -- retry/backoff, quarantine, the
  host watchdog's deadline policy, and the :class:`ResilienceConfig`
  that switches the system into resilient operation;
- :mod:`repro.resilience.health` -- per-unit health records and
  fault-event counters threaded into ``SystemRunResult``;
- :mod:`repro.resilience.recovery` -- the watchdog-driven asynchronous
  scheduler that retries, quarantines, and degrades to the software
  realigner;
- :mod:`repro.resilience.workers` -- the same design applied to the
  *host* data plane: :class:`WorkerFaultPlan` chaos (SIGKILL / hang /
  delay / error of real worker processes) and the
  :class:`ResilientPool` watchdog (chunk deadlines, retry/bisect/
  quarantine, pool respawn) behind ``Engine``/``StreamingEngine``.

See ``docs/RESILIENCE.md`` for the taxonomy, policies, and guarantees.
"""
