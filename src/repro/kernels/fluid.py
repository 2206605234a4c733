"""The C stepping loop of :func:`repro.fluid.batch.simulate_fluid_batch`.

:func:`simulate_fluid_batch` runs :func:`simulate_fluid_batch_compiled`
by default whenever the kernel tier is compiled.  It sizes the sample
grid and broadcasts the starts itself; this wrapper runs the per-row
switched RK4 + cubic-Hermite event refinement as one C kernel call
(``fluid_rows``) instead of the numpy loop over ``(M,)`` temporaries,
and builds the same :class:`~repro.fluid.batch.BatchFluidResult`.  The
numpy loop is its oracle: the kernel commits the same floating-point
operations in the same order, so the result matches it byte for byte
in the ``nonlinear``/``linearized`` modes, sample count included.
``physical`` mode's pinned closed forms call libm ``exp``/``log``,
which may differ from numpy's vectorized transcendentals by an ulp;
``y`` stays within 1e-13 relative there.  The kernel runs step-major
over an array of per-row states (every row advances one grid step,
and that step's samples are stored side by side, before any row takes
the next) and stops once no row is alive.  If it cannot allocate its
row states this wrapper raises :class:`MemoryError`; if a row records
more events than its preallocated slots it returns None, and
:func:`simulate_fluid_batch` runs the numpy loop instead.
"""

from __future__ import annotations

import time

import numpy as np

from ._backend import KernelBackend, consume_warmup_span

__all__ = ["simulate_fluid_batch_compiled"]

#: event kind codes emitted by the kernel, in ``FluidEvent.kind`` terms
_KINDS = ("switch", "extremum", "buffer_full", "buffer_empty")


def simulate_fluid_batch_compiled(
    p,
    x0: np.ndarray,
    y0: np.ndarray,
    t_grid: np.ndarray,
    *,
    mode: str,
    max_switches: int,
    convergence_rtol: float,
    obs,
    backend: KernelBackend,
):
    """Integrate rows ``(x0, y0)`` over ``t_grid`` on ``backend``'s C kernel.

    ``p`` is a :class:`~repro.core.parameters.NormalizedParams`,
    ``x0``/``y0`` float arrays of one shape ``(M,)`` and ``t_grid`` the
    sample grid from ``0`` to ``t_max``, as
    :func:`repro.fluid.batch.simulate_fluid_batch` prepares them.
    Returns a :class:`~repro.fluid.batch.BatchFluidResult`, or None
    when the event buffers overflowed.
    """
    from ..fluid import batch as _batch

    xr = np.ascontiguousarray(x0)
    yr = np.ascontiguousarray(y0)
    m = xr.size
    n_steps = t_grid.size - 1
    t_max = float(t_grid[-1])

    # Large zeroed buffers are mapped lazily: the pages past the step at
    # which every row has died are never written, so never resident.
    xs = np.zeros((n_steps + 1) * m)
    ys = np.zeros((n_steps + 1) * m)
    reason = np.zeros(m, dtype=np.int8)
    switches = np.zeros(m, dtype=np.int64)
    t_end = np.zeros(m)
    x_end = np.zeros(m)
    y_end = np.zeros(m)
    ev_cap = 8 * (max_switches + 8)
    n_events = np.zeros(m, dtype=np.int64)
    ev_t = np.zeros(m * ev_cap)
    ev_kind = np.zeros(m * ev_cap, dtype=np.int8)
    ev_x = np.zeros(m * ev_cap)
    ev_y = np.zeros(m * ev_cap)
    out_i = np.zeros(2, dtype=np.int64)

    started = time.perf_counter()  # repro-lint: disable=wall-clock -- kernel span timing
    backend.fluid_rows(
        xr, yr, t_grid, p.a, p.b, p.capacity, p.k, p.q0,
        p.buffer_size - p.q0, -p.q0,
        1 if mode == "linearized" else 0,
        1 if mode == "physical" else 0,
        int(max_switches), float(convergence_rtol), t_max,
        xs, ys, reason, switches, t_end, x_end, y_end,
        ev_cap, n_events, ev_t, ev_kind, ev_x, ev_y, out_i,
    )
    kernel_seconds = time.perf_counter() - started  # repro-lint: disable=wall-clock -- kernel span timing

    if out_i[0] < 0:
        raise MemoryError(
            f"compiled fluid kernel could not allocate state for {m} rows")
    if out_i[1]:
        return None

    last = int(out_i[0])
    xs = xs.reshape(n_steps + 1, m)
    ys = ys.reshape(n_steps + 1, m)

    events = []
    for r in range(m):
        base = r * ev_cap
        evs = [
            _batch.FluidEvent(
                time=float(ev_t[base + j]), kind=_KINDS[ev_kind[base + j]],
                x=float(ev_x[base + j]), y=float(ev_y[base + j]))
            for j in range(int(n_events[r]))
        ]
        evs.sort(key=lambda e: e.time)
        events.append(evs)

    if obs is not None and obs.enabled:
        consume_warmup_span(obs)
        obs.add_span("fluid.batch.kernel", kernel_seconds)
        t_used = t_grid[: last + 1]
        for row in range(m):
            live = t_used <= t_end[row]
            _batch.record_fluid_obs(
                obs, "fluid.compiled", p, events[row],
                bool(reason[row] == 1), float(t_end[row]),
                xs[: last + 1][live, row].astype(float), row=row)

    return _batch.BatchFluidResult(
        params=p,
        mode=mode,
        t=t_grid[: last + 1],
        x=xs[: last + 1],
        y=ys[: last + 1],
        events=events,
        converged=reason == 1,
        end_reason=[_batch._REASONS[r] for r in reason],
        switch_counts=switches,
        t_end=t_end,
        x_end=x_end,
        y_end=y_end,
        kernel_seconds=kernel_seconds,
    )
