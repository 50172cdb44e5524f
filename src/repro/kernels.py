"""WHD kernel names and the default unit count: a numpy-free leaf the
CLI parser can read.

:mod:`repro.engine.autotune` dispatches on these names and re-exports
them, and :class:`repro.engine.parallel.EngineConfig` takes its
``workers`` default from :func:`default_workers`; building
``--kernel``'s choices and ``--workers``' default from here keeps
``--help`` from importing the engine.
"""

import os

#: Dispatchable kernel names, in documentation order.
KERNELS = ("scalar", "vector", "fft", "bitpack", "native")

#: ``--kernel`` / ``EngineConfig.kernel`` choices: ``auto`` = ``native``.
KERNEL_CHOICES = ("auto",) + KERNELS


def default_workers() -> int:
    """The engine's default unit count: the CPUs this process may run on
    -- its affinity mask (a ``taskset`` or cpuset share, not the whole
    machine) where the platform has one, else the CPU count, else 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1
