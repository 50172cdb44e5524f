"""WHD kernel names: a numpy-free leaf the CLI parser can read.

:mod:`repro.engine.autotune` dispatches on these names and re-exports
them; building ``--kernel``'s choices from here keeps ``--help`` from
importing the engine.
"""

#: Dispatchable kernel names, in documentation order.
KERNELS = ("scalar", "vector", "fft", "bitpack", "native")

#: ``--kernel`` / ``EngineConfig.kernel`` choices: ``auto`` = ``native``.
KERNEL_CHOICES = ("auto",) + KERNELS
