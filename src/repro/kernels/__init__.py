"""Compiled hot-path kernels behind the ``engine="compiled"`` seam.

This package provides native implementations of the hottest paths
the ``repro.obs`` span profiles identify — the frame-train packet
window (source pacing, Lindley service hull + sigma sampling + PAUSE
truncation, BCN message delivery), the batch fluid RK4 stepper with
cubic-Hermite event refinement, and the reference engine's dumbbell
event loop — on one of two tiers:

* pure **numpy** — no compilation at all, and the oracle of the C
  tier: the packet window loop, switch window included, runs its
  numpy-vectorized closures, and the fluid entry point runs the numpy
  batch integrator;
* **cffi** — C kernels (any C compiler) that run the same float64
  operations in the same order, so they agree with the numpy tier bit
  for bit (:mod:`repro.kernels._cbuild` lists each kernel's oracle).

Both tiers run the same Python orchestration: the dumbbell window loop
and :class:`~repro.simulation.switch.BatchedSwitchKernel` call the
tier's closures and do every state update themselves.  The one
exception is the C event core (``event_core``, C tier only): on it the
``engine="reference"`` dumbbell executes the python ``Simulator``
loop's events one by one in C, bit for bit, and writes the state back
(:mod:`repro.simulation.event_core`); on the numpy tier that loop runs
in python, as the oracle.  Select explicitly with
``REPRO_KERNEL_BACKEND=auto|cffi|numpy``.
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
