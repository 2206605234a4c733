"""Compiled hot-path kernels behind the ``engine="compiled"`` seam.

This package provides native implementations of the hottest paths
the ``repro.obs`` span profiles identify — the frame-train packet
window (source pacing, Lindley service hull + sigma sampling + PAUSE
truncation, BCN message delivery), the batch fluid RK4 stepper with
cubic-Hermite event refinement, the delayed fluid model's method of
steps, and the reference engine's dumbbell event loop — on one of two
tiers:

* pure **numpy** — no compilation at all, and the oracle of the C
  tier: the packet window loop, switch window included, runs its
  numpy-vectorized closures, and
  :func:`~repro.fluid.batch.simulate_fluid_batch` runs its numpy
  stepping loop;
* **cffi** — C kernels (any C compiler) that run the same float64
  operations in the same order, so they agree with the numpy tier bit
  for bit (:mod:`repro.kernels._cbuild` lists each kernel's oracle).

Both tiers run the same Python orchestration: the dumbbell window loop
and :class:`~repro.simulation.switch.BatchedSwitchKernel` call the
tier's closures and do every state update themselves.  Three kernels
are C only, and each has a python oracle that runs on the numpy tier:

* the event core (``event_core``): the ``engine="reference"``
  dumbbell executes the python ``Simulator`` loop's events one by one
  in C, bit for bit, and writes the state back
  (:mod:`repro.simulation.event_core`);
* the fluid kernel (``fluid_rows``): by default
  :func:`~repro.fluid.batch.simulate_fluid_batch` runs it through
  :func:`~repro.kernels.fluid.simulate_fluid_batch_compiled`, which
  splits a wide bundle's rows into ranges run on one thread per usable
  core (at least 64 rows each) and fills each range's dead rows
  forward to the latest stop, so the result is the one-range call's;
  ``fluid_method="numpy"`` pins the numpy stepping loop;
* the delayed fluid model (``delayed``):
  :func:`~repro.fluid.delay.simulate_delayed` runs its RK4 method of
  steps in C, with the python loop as the oracle on the numpy tier.

Select the tier with ``REPRO_KERNEL_BACKEND=auto|cffi|numpy``.  The
packet window engines are picked by name as well: ``engine="compiled"``
on :class:`~repro.simulation.network.BCNNetworkSimulator`, the scenario
runtime and the CLI.
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
