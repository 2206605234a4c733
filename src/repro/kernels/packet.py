"""The switch window on the process-wide kernel tier (``engine="compiled"``).

:class:`CompiledSwitchKernel` is :class:`BatchedSwitchKernel` with its
``backend`` defaulting to :func:`get_backend` (the C tier when cffi and
a C compiler are available) instead of the numpy tier.  The window
logic itself lives in :meth:`BatchedSwitchKernel.process`.
"""

from __future__ import annotations

from ..simulation.switch import BatchedSwitchKernel
from ._backend import KernelBackend, get_backend

__all__ = ["CompiledSwitchKernel"]


class CompiledSwitchKernel(BatchedSwitchKernel):
    """:class:`BatchedSwitchKernel` on the process-wide backend."""

    def __init__(self, *args, backend: KernelBackend | None = None,
                 **kwargs) -> None:
        super().__init__(
            *args, backend=backend if backend is not None else get_backend(),
            **kwargs)

    # Restated so ``process`` is in this class's own namespace: the
    # perfbench ledger times each class's ``process`` by patching
    # ``vars(cls)`` and refuses a class that only inherits it.
    process = BatchedSwitchKernel.process
