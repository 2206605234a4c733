"""Compiled hot-path kernels behind the ``engine="compiled"`` seam.

This package provides native implementations of the two hottest paths
the ``repro.obs`` span profiles identify — the frame-train packet
window (source pacing, Lindley service hull + sigma sampling + PAUSE
truncation, BCN message delivery) and the batch fluid RK4 stepper with
cubic-Hermite event refinement (float64 and float32) — on one of two
tiers:

* a **cffi**-built C translation of the pure-python bodies in
  :mod:`repro.kernels._scalar` (any C compiler);
* pure **numpy** — no compilation at all: the packet window loop runs
  its numpy-vectorized closures and the numpy
  :class:`~repro.simulation.switch.BatchedSwitchKernel`, and the fluid
  entry point delegates to the numpy batch integrator; the scalar
  bodies mirror both bit-for-bit.

Select explicitly with ``REPRO_KERNEL_BACKEND=auto|cffi|numpy``.
Engine selection is one flag everywhere: ``engine="compiled"`` on
:class:`~repro.simulation.network.BCNNetworkSimulator`, the scenario
runtime and the CLI; ``fluid_method="compiled"`` on
:func:`~repro.fluid.batch.simulate_fluid_batch`.
"""

from ._backend import (KernelBackend, consume_warmup_span, get_backend,
                       reset_backend)
from .fluid import simulate_fluid_batch_compiled
from .packet import CompiledSwitchKernel

__all__ = [
    "CompiledSwitchKernel",
    "KernelBackend",
    "consume_warmup_span",
    "get_backend",
    "reset_backend",
    "simulate_fluid_batch_compiled",
]
