"""Unit tests for the compiled kernel package (:mod:`repro.kernels`).

Backend selection, the one-time warm-up span, and the differential
guarantees of the C tier against its oracle, the numpy tier: each
window-loop and switch-window entry point against the numpy one of the
same name, the switch window on the C tier (:class:`CompiledSwitchKernel`)
against the numpy one (:class:`BatchedSwitchKernel`) window by window,
and the C fluid kernel against the numpy batch integrator.  Independent references back the
numpy tier itself: an argsort train merge, the :class:`RateRegulator`
objects, and invariants of the pacing arithmetic.  Tests marked
``requires_compiled`` exercise the C tier and skip on the pure-numpy
fallback; everything else runs on every tier.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from repro.kernels import get_backend, reset_backend
from repro.kernels._backend import KernelBackend, consume_warmup_span
from repro.kernels.packet import CompiledSwitchKernel
from repro.simulation.engine import Simulator
from repro.simulation.frames import BCNMessage
from repro.simulation.source import RateRegulator
from repro.simulation.switch import BatchedSwitchKernel, CoreSwitch

requires_compiled = pytest.mark.skipif(
    not get_backend().compiled,
    reason="no compiled backend (cffi + C compiler) available",
)


@pytest.fixture(params=["numpy", "cffi"])
def tier(request):
    """Each kernel tier the window loop can run on."""
    if request.param == "numpy":
        return KernelBackend()
    be = get_backend()
    if not be.compiled:
        pytest.skip("no compiled backend (cffi + C compiler) available")
    return be


# -- backend selection ------------------------------------------------------


#: The numpy tier: the oracle every C closure is compared with.
ORACLE = KernelBackend()


def test_numpy_tier_is_the_scalar_reference():
    be = KernelBackend()
    assert be.name == "numpy"
    assert not be.compiled
    assert be.warmup_seconds == 0.0
    # the two C-only entry points: the fluid kernel, whose numpy oracle
    # is simulate_fluid_batch, and the event core, whose oracle is the
    # python Simulator loop
    assert not hasattr(be, "fluid_rows")
    assert not hasattr(be, "event_core")


def test_unknown_backend_env_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
    reset_backend()
    try:
        with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
            get_backend()
    finally:
        monkeypatch.undo()
        reset_backend()


def test_numba_env_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
    reset_backend()
    try:
        with pytest.raises(ValueError, match=r"auto\|cffi\|numpy"):
            get_backend()
    finally:
        monkeypatch.undo()
        reset_backend()


def test_numpy_env_selects_the_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
    reset_backend()
    try:
        be = get_backend()
        assert be.name == "numpy"
        assert not be.compiled
    finally:
        monkeypatch.undo()
        reset_backend()


def test_warmup_span_is_reported_once_per_process():
    class Spy:
        enabled = True

        def __init__(self):
            self.spans = []

        def add_span(self, name, seconds):
            self.spans.append((name, seconds))

    reset_backend()
    be = get_backend()
    first, second = Spy(), Spy()
    consume_warmup_span(first)
    consume_warmup_span(second)
    if be.warmup_seconds > 0.0:
        assert len(first.spans) == 1
        name, seconds = first.spans[0]
        assert name == f"kernels.jit_warmup.{be.name}"
        assert seconds == be.warmup_seconds
    else:
        assert first.spans == []
    assert second.spans == []  # consumed: steady-state stays clean


# -- merge_trains -----------------------------------------------------------


def _reference_merge(first, gaps, counts, assoc, d):
    """The batched engine's repeat/cumsum/stable-argsort train merge."""
    n = first.size
    total = int(counts.sum())
    srcs = np.repeat(np.arange(n), counts)
    ends = np.cumsum(counts)
    offsets = np.arange(total) - np.repeat(ends - counts, counts)
    times = np.repeat(first, counts) + np.repeat(gaps, counts) * offsets + d
    order = np.argsort(times, kind="stable")
    return times[order], srcs[order], assoc[srcs[order]]


def _bound_merge(be, first, gaps, counts, assoc, d):
    total = int(counts.sum())
    out = (np.empty(total), np.empty(total, dtype=np.int64),
           np.empty(total, dtype=np.uint8))
    bound = be.bind_merge_trains(first, gaps, counts, assoc, *out)
    assert int(bound(d)) == total
    return out


def test_merge_trains_matches_argsort_merge():
    rng = np.random.default_rng(3)
    n = 8
    first = rng.uniform(0.0, 1e-3, n)
    gaps = rng.uniform(1e-6, 1e-4, n)
    counts = rng.integers(0, 50, n).astype(np.int64)
    assoc = rng.integers(0, 2, n).astype(np.uint8)
    d = 5e-6
    got = _bound_merge(get_backend(), first, gaps, counts, assoc, d)
    for g, want in zip(got, _reference_merge(first, gaps, counts, assoc, d)):
        np.testing.assert_array_equal(g, want)


def test_merge_trains_breaks_time_ties_by_source():
    # Identical trains: every emission time collides across sources, and
    # the stable argsort the batched engine uses resolves each tie in
    # ascending source order — every tier must do the same.
    first = np.array([1e-3, 1e-3])
    gaps = np.array([1e-5, 1e-5])
    counts = np.array([3, 3], dtype=np.int64)
    assoc = np.array([1, 0], dtype=np.uint8)
    _, out_src, out_assoc = _bound_merge(get_backend(), first, gaps, counts,
                                         assoc, 0.0)
    np.testing.assert_array_equal(out_src, [0, 1, 0, 1, 0, 1])
    np.testing.assert_array_equal(out_assoc, [1, 0, 1, 0, 1, 0])


@requires_compiled
def test_merge_trains_over_4096_sources_matches_numpy_tier():
    # Beyond 4096 sources the C merge takes its heap from malloc instead
    # of the stack; the merged train must still equal the numpy tier's.
    n, d = 5000, 5e-6
    rng = np.random.default_rng(11)
    first = rng.uniform(0.0, 1e-3, n)
    gaps = rng.uniform(1e-6, 1e-4, n)
    counts = rng.integers(0, 4, n).astype(np.int64)
    assoc = rng.integers(0, 2, n).astype(np.uint8)
    # odd sources repeat their even neighbour's train: ties everywhere
    first[1::2], gaps[1::2] = first[::2], gaps[::2]
    got = _bound_merge(get_backend(), first, gaps, counts, assoc, d)
    want = _bound_merge(ORACLE, first, gaps, counts, assoc, d)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert _bound_merge(get_backend(), first, gaps, np.zeros_like(counts),
                        assoc, d)[0].size == 0


@requires_compiled
@pytest.mark.parametrize("n_src", [2**57, 2**62],
                         ids=["malloc-fails", "size-overflows"])
def test_merge_trains_c_kernel_reports_allocation_failure(n_src):
    # The heap cannot be allocated, so the kernel must return before it
    # reads a single (here NULL) array argument.
    be = get_backend()
    null = be._ffi.NULL
    assert be._lib.k_merge_trains(n_src, null, null, null, null, 0.0,
                                  null, null, null) == -1


@requires_compiled
def test_bound_merge_trains_raises_memory_error_on_allocation_failure():
    be = copy.copy(get_backend())
    be._lib = SimpleNamespace(k_merge_trains=lambda *args: -1)
    first = np.zeros(3)
    bound = be.bind_merge_trains(
        first, np.ones(3), np.ones(3, dtype=np.int64),
        np.zeros(3, dtype=np.uint8), np.empty(3),
        np.empty(3, dtype=np.int64), np.empty(3, dtype=np.uint8))
    with pytest.raises(MemoryError, match="3 sources"):
        bound(0.0)


# -- apply_messages ---------------------------------------------------------


_MODES = [("message", 0), ("fluid-euler", 1), ("fluid-exact", 2)]


#: The dt caps the apply tests run: a cap, and None (no cap), which the
#: regulators and the closures both read as NaN.
_MAX_DTS = (5e-4, None)


def _apply_case(mode, max_dt, n_windows=1):
    """Random BCN messages applied the object way (RateRegulator.apply
    plus the window loop's owed-bits bookkeeping), delivered in
    ``n_windows`` consecutive windows; returns the message arrays, the
    constants, the expected per-source outcome and the windows as
    ``(message slice, t_commit)``.  Past the first window each commit
    boundary falls just short of its last message's arrival, so the
    lag clamp is exercised too.  Every 17th wire FB is exactly 0."""
    rng = np.random.default_rng(7)
    n, n_msg = 6, 400
    const = dict(gi=4.0, gd=1 / 128, ru=8e6, d=5e-6, t_commit=0.0105)
    regs = [
        RateRegulator(gi=const["gi"], gd=const["gd"], ru=const["ru"],
                      initial_rate=2e7, min_rate=1e5, line_rate=1e9,
                      mode=mode, max_dt=max_dt)
        for _ in range(n)
    ]
    const["max_dt"] = regs[0].max_dt
    msgs = dict(
        msg_t=np.sort(rng.uniform(0.0, 0.01, n_msg)),
        msg_src=rng.integers(0, n, n_msg).astype(np.int64),
        msg_fb=rng.uniform(-128.0, 127.0, n_msg),
        msg_sigma=rng.uniform(-3e6, 3e6, n_msg),
    )
    msgs["msg_fb"][::17] = 0.0
    edges = np.linspace(0, n_msg, n_windows + 1).astype(int)
    windows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        t_commit = (const["t_commit"] if n_windows == 1
                    else float(msgs["msg_t"][hi - 1]) + 2e-6)
        windows.append((slice(lo, hi), t_commit))
    owed = np.zeros(n)
    total = float(sum(r.rate for r in regs))
    for sl, t_commit in windows:
        for k in range(sl.start, sl.stop):
            i = int(msgs["msg_src"][k])
            now = float(msgs["msg_t"][k]) + const["d"]
            before = regs[i].rate
            regs[i].apply(
                BCNMessage(da=i, sa="cp", cpid="cp",
                           fb=float(msgs["msg_fb"][k]), q_off=0.0,
                           q_delta=0.0, fb_raw=float(msgs["msg_sigma"][k]),
                           sent_at=float(msgs["msg_t"][k])),
                now,
            )
            after = regs[i].rate
            if after != before:
                delta = after - before
                owed[i] += delta * max(t_commit - now, 0.0)
                total += delta
    return msgs, const, regs, owed, total, windows


def _soa_state(n):
    """Fresh struct-of-array regulator state matching ``_apply_case``."""
    return dict(rate=np.full(n, 2e7), last_update=np.full(n, np.nan),
                assoc8=np.zeros(n, dtype=np.uint8),
                updates=np.zeros(n, dtype=np.int64), owed=np.zeros(n),
                out_d=np.array([n * 2e7]))


def _bind_apply(be, code, c, st):
    n = st["rate"].size
    return be.bind_apply_messages(
        code, c["gi"], c["gd"], c["ru"], c["max_dt"], c["d"], st["rate"],
        st["last_update"], st["assoc8"], st["updates"], np.full(n, 1e5),
        np.full(n, 1e9), st["owed"], st["out_d"])


def _deliver(bound, msgs, sl, t_commit):
    bound(msgs["msg_t"][sl], msgs["msg_src"][sl], msgs["msg_fb"][sl],
          msgs["msg_sigma"][sl], t_commit)


def _assert_soa_matches(st, regs, owed, total):
    np.testing.assert_array_equal(st["rate"], [r.rate for r in regs])
    np.testing.assert_array_equal(st["owed"], owed)
    assert float(st["out_d"][0]) == total
    np.testing.assert_array_equal(st["updates"],
                                  [r.updates_applied for r in regs])
    for i, reg in enumerate(regs):
        assert bool(st["assoc8"][i]) == (reg.associated_cpid == "cp")
        # NaN on both sides encodes "never updated"
        np.testing.assert_array_equal(st["last_update"][i], reg._last_update)


@pytest.mark.parametrize("mode, code", _MODES)
def test_apply_messages_matches_regulator_objects(mode, code):
    # One binding per tier, five windows: the selected backend's state
    # equals the numpy tier's after every window and the regulator
    # objects' at the end.
    for max_dt in _MAX_DTS:
        msgs, c, regs, owed, total, windows = _apply_case(mode, max_dt,
                                                          n_windows=5)
        n = len(regs)
        got, want = _soa_state(n), _soa_state(n)
        bound_got = _bind_apply(get_backend(), code, c, got)
        bound_want = _bind_apply(ORACLE, code, c, want)
        for sl, t_commit in windows:
            _deliver(bound_got, msgs, sl, t_commit)
            _deliver(bound_want, msgs, sl, t_commit)
            for key in want:
                assert got[key].tobytes() == want[key].tobytes(), key
        _assert_soa_matches(got, regs, owed, total)


@pytest.mark.parametrize("mode, code", _MODES)
def test_bound_apply_messages_matches_regulator_objects(tier, mode, code):
    for max_dt in _MAX_DTS:
        msgs, c, regs, owed, total, windows = _apply_case(mode, max_dt)
        st = _soa_state(len(regs))
        (sl, t_commit), = windows
        _deliver(_bind_apply(tier, code, c, st), msgs, sl, t_commit)
        _assert_soa_matches(st, regs, owed, total)


# -- pacing closures: the C tier against the numpy tier ---------------------


def _pacing_case(seed=5, n=7):
    rng = np.random.default_rng(seed)
    next_emit = rng.uniform(0.0, 2e-3, n)
    paused = np.where(rng.random(n) < 0.4,
                      rng.uniform(0.0, 2e-3, n), 0.0)
    active = (rng.random(n) < 0.8).astype(bool)
    remaining = np.where(rng.random(n) < 0.5,
                         rng.integers(1, 40, n).astype(float), np.inf)
    gaps = rng.uniform(1e-5, 2e-4, n)
    return next_emit, paused, active, remaining, gaps


def _plan(be, next_emit, paused, active, remaining, gaps, until):
    n = next_emit.size
    first, counts = np.empty(n), np.empty(n, dtype=np.int64)
    bound = be.bind_pacing_plan(next_emit, paused, active, remaining, gaps,
                                first, counts)
    return int(bound(until)), first, counts


def _assert_plan_invariants(next_emit, paused, active, remaining, gaps,
                            until, total, first, counts):
    """The planning arithmetic, checked from its definition."""
    assert total == int(counts.sum())
    # a train starts at the pending emission, deferred past a PAUSE
    np.testing.assert_array_equal(first, np.maximum(next_emit, paused))
    assert np.all(counts[~active] == 0)
    assert np.all(counts <= remaining)
    planned = counts > 0
    # every planned frame fits before ``until``; one more would not,
    # unless the flow has no frames left
    assert np.all(first[planned] + gaps[planned] * (counts[planned] - 1)
                  <= until)
    open_ended = active & (first <= until) & (counts < remaining)
    assert np.all(first[open_ended] + gaps[open_ended] * counts[open_ended]
                  > until)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_pacing_plan_matches_scalar_reference(seed):
    case = _pacing_case(seed)
    until = 1.5e-3
    want = _plan(ORACLE, *case, until)
    got = _plan(get_backend(), *case, until)
    assert got[0] == want[0]
    np.testing.assert_array_equal(got[1], want[1])
    np.testing.assert_array_equal(got[2], want[2])
    _assert_plan_invariants(*case, until, *got)


def _commit_state(next_emit, remaining, active):
    n = next_emit.size
    return dict(ne=next_emit.copy(), rem=remaining.copy(),
                act=active.astype(np.uint8), fa=np.zeros(n, dtype=np.int64),
                comm=np.empty(n, dtype=np.int64),
                fin_idx=np.empty(n, dtype=np.int64), fin_t=np.empty(n))


def _commit(be, st, srcs, first, gaps, counts, any_finite, m_committed):
    bound = be.bind_pacing_commit(
        srcs, first, gaps, counts, any_finite, st["ne"], st["rem"],
        st["act"], st["fa"], st["comm"], st["fin_idx"], st["fin_t"])
    return int(bound(m_committed))


def _assert_commits_equal(got, want, n_fin):
    for key in ("ne", "rem", "act", "fa", "comm"):
        np.testing.assert_array_equal(got[key], want[key])
    for key in ("fin_idx", "fin_t"):
        np.testing.assert_array_equal(got[key][:n_fin], want[key][:n_fin])


@pytest.mark.parametrize("truncate", [False, True])
def test_pacing_commit_matches_scalar_reference(truncate):
    next_emit, paused, _, remaining, gaps = _pacing_case(9)
    n = next_emit.size
    active = np.ones(n, dtype=bool)  # everyone emits: exercise finishes
    remaining[:3] = [1.0, 2.0, 3.0]  # force some sources to run out
    total, first, counts = _plan(ORACLE, next_emit, paused, active,
                                 remaining, gaps, 1.5e-3)
    assert total > 0
    srcs = np.repeat(np.arange(n, dtype=np.int64), counts)
    m_committed = total // 2 if truncate else total

    want = _commit_state(next_emit, remaining, active)
    got = _commit_state(next_emit, remaining, active)
    n_fin = _commit(ORACLE, want, srcs, first, gaps, counts, 1, m_committed)
    assert _commit(get_backend(), got, srcs, first, gaps, counts, 1,
                   m_committed) == n_fin
    _assert_commits_equal(got, want, n_fin)
    comm = np.bincount(srcs[:m_committed], minlength=n)
    np.testing.assert_array_equal(got["comm"], comm)
    np.testing.assert_array_equal(got["fa"], comm)
    # finished sources really ran out, and their finish time is the
    # instant their last committed frame was emitted
    for j, i in enumerate(got["fin_idx"][:n_fin]):
        assert got["rem"][i] <= 0.0 and not got["act"][i]
        assert got["fin_t"][j] == first[i] + gaps[i] * (comm[i] - 1)


def _owed_case(all_zero=False):
    rng = np.random.default_rng(21)
    n = 8
    owed = np.where(rng.random(n) < 0.5, rng.uniform(-2e4, 2e4, n), 0.0)
    if all_zero:
        owed[:] = 0.0  # an empty ledger must be an exact no-op
    rates = rng.uniform(1e6, 1e9, n)
    until = 1e-3
    next_emit = np.where(rng.random(n) < 0.7,
                         until + rng.uniform(0.0, 1e-3, n),
                         rng.uniform(0.0, until, n))
    nxt = float(np.nextafter(until, np.inf))
    return owed, next_emit, rates, until, nxt


def _repay(be, owed, next_emit, rates, until, nxt):
    owed, next_emit = owed.copy(), next_emit.copy()
    be.bind_owed_repay(owed, next_emit, rates)(until, nxt)
    return owed, next_emit


def test_owed_repay_matches_scalar_reference():
    owed, next_emit, rates, until, nxt = _owed_case()
    want_owed, want_ne = _repay(ORACLE, owed, next_emit, rates, until, nxt)
    got_owed, got_ne = _repay(get_backend(), owed, next_emit, rates, until,
                              nxt)
    np.testing.assert_array_equal(got_owed, want_owed)
    np.testing.assert_array_equal(got_ne, want_ne)
    # sources already due before ``until`` are untouched
    before = next_emit <= until
    np.testing.assert_array_equal(got_ne[before], next_emit[before])
    np.testing.assert_array_equal(got_owed[before], owed[before])
    # repayment never reschedules a deferred source into the closed window
    assert np.all(got_ne[~before] >= nxt)
    # the ledger is debited by exactly the bits moved
    np.testing.assert_array_equal(
        got_owed[~before],
        owed[~before] - (next_emit[~before] - got_ne[~before])
        * rates[~before])


# -- each tier's bound closures through a window's life cycle -------------


def test_bound_merge_trains_matches_scalar_with_growth_and_rebind(tier):
    # The window loop's buffer life cycle: bind over small persistent
    # buffers, then a window that outgrows them — reallocate, re-bind,
    # merge again — all against the same captured per-source arrays.
    n, d = 8, 5e-6
    rng = np.random.default_rng(3)
    first = rng.uniform(0.0, 1e-3, n)
    gaps = rng.uniform(1e-6, 1e-4, n)
    counts = rng.integers(0, 6, n).astype(np.int64)
    assoc = rng.integers(0, 2, n).astype(np.uint8)
    cap = 64
    out_t, out_src = np.empty(cap), np.empty(cap, dtype=np.int64)
    out_assoc = np.empty(cap, dtype=np.uint8)
    bound = tier.bind_merge_trains(first, gaps, counts, assoc,
                                   out_t, out_src, out_assoc)
    total = int(bound(d))
    assert total == int(counts.sum()) <= cap
    for got, want in zip((out_t, out_src, out_assoc),
                         _reference_merge(first, gaps, counts, assoc, d)):
        np.testing.assert_array_equal(got[:total], want)

    # next window: new plan written in place, too big for the buffers;
    # two identical trains collide at every emission time, and ties
    # must resolve in ascending source order
    rng = np.random.default_rng(4)
    first[:] = rng.uniform(0.0, 1e-3, n)
    gaps[:] = rng.uniform(1e-6, 1e-4, n)
    counts[:] = rng.integers(0, 50, n)
    assoc[:] = rng.integers(0, 2, n)
    first[1], gaps[1] = first[0], gaps[0]
    counts[:2], assoc[:2] = 30, [1, 0]
    total = int(counts.sum())
    assert total > cap
    out_t, out_src = np.empty(2 * total), np.empty(2 * total, dtype=np.int64)
    out_assoc = np.empty(2 * total, dtype=np.uint8)
    bound = tier.bind_merge_trains(first, gaps, counts, assoc,
                                   out_t, out_src, out_assoc)
    assert int(bound(d)) == total
    for got, want in zip((out_t, out_src, out_assoc),
                         _reference_merge(first, gaps, counts, assoc, d)):
        np.testing.assert_array_equal(got[:total], want)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_bound_pacing_plan_matches_scalar(tier, seed):
    # One binding, two windows: the closure re-reads the captured
    # arrays the commit step advanced in place.
    next_emit, paused, active, remaining, gaps = _pacing_case(seed)
    n = next_emit.size
    runs = {}
    for key, be in (("got", tier), ("want", ORACLE)):
        ne = next_emit.copy()
        first, counts = np.empty(n), np.empty(n, dtype=np.int64)
        bound = be.bind_pacing_plan(ne, paused, active, remaining, gaps,
                                    first, counts)
        totals = []
        for until in (1.5e-3, 2.5e-3):
            before = ne.copy()
            totals.append(int(bound(until)))
            _assert_plan_invariants(before, paused, active, remaining, gaps,
                                    until, totals[-1], first, counts)
            ne[:] = np.where(counts > 0, first + gaps * counts, first)
        runs[key] = (totals, ne, first, counts)
    got, want = runs["got"], runs["want"]
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("any_finite", [1, 0])
@pytest.mark.parametrize("truncate", [False, True])
def test_bound_pacing_commit_matches_scalar(tier, truncate, any_finite):
    next_emit, paused, _, remaining, gaps = _pacing_case(9)
    n = next_emit.size
    active = np.ones(n, dtype=bool)
    # the last source is PAUSEd past its pending emission, so when the
    # commit is cut short it holds a deferred first emission
    next_emit[-1], paused[-1] = 2e-4, 5e-4
    if any_finite:
        remaining[:3] = [1.0, 2.0, 3.0]  # force some sources to run out
    else:
        remaining[:] = np.inf  # the loop's pure-elephant shortcut
    total, first, counts = _plan(ORACLE, next_emit, paused, active,
                                 remaining, gaps, 1.5e-3)
    srcs = np.repeat(np.arange(n, dtype=np.int64), counts)
    m_committed = total // 2 if truncate else total

    want = _commit_state(next_emit, remaining, active)
    got = _commit_state(next_emit, remaining, active)
    n_fin = _commit(ORACLE, want, srcs, first, gaps, counts, any_finite,
                    m_committed)
    assert _commit(tier, got, srcs, first, gaps, counts, any_finite,
                   m_committed) == n_fin
    if not any_finite:
        assert n_fin == 0
        np.testing.assert_array_equal(got["rem"], remaining)
    elif not truncate:
        assert n_fin > 0  # the short finite flows all ran out
    if truncate:
        # planned but cut off: the source keeps its deferred emission
        assert got["comm"][-1] == 0 and got["ne"][-1] == first[-1] == 5e-4
    _assert_commits_equal(got, want, n_fin)


@pytest.mark.parametrize("all_zero", [False, True])
def test_bound_owed_repay_matches_scalar(tier, all_zero):
    owed, next_emit, rates, until, nxt = _owed_case(all_zero)
    want = _repay(ORACLE, owed, next_emit, rates, until, nxt)
    got = _repay(tier, owed, next_emit, rates, until, nxt)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    if all_zero:
        np.testing.assert_array_equal(got[1], next_emit)
        assert not got[0].any()


def test_bound_closures_mutate_like_direct_calls():
    """One binding per closure, three windows of plan → merge → commit
    → repay: the selected backend's closures stay valid across calls
    and leave the same state as the numpy tier's after every window."""
    next_emit, paused, active, remaining, gaps = _pacing_case(31)
    n = next_emit.size
    remaining[:2] = [3.0, 40.0]
    active = active.astype(np.uint8)
    rates = 1.0 / gaps * 12_000.0
    assoc = (np.arange(n) % 2).astype(np.uint8)

    def state():
        # zero-filled, so slots a closure leaves unwritten compare equal
        return dict(ne=next_emit.copy(), rem=remaining.copy(),
                    act=active.copy(), first=np.zeros(n),
                    counts=np.zeros(n, dtype=np.int64),
                    fa=np.zeros(n, dtype=np.int64),
                    comm=np.zeros(n, dtype=np.int64),
                    fin_idx=np.zeros(n, dtype=np.int64), fin_t=np.zeros(n),
                    owed=np.linspace(-3e4, 3e4, n), out_t=np.zeros(4096),
                    out_src=np.zeros(4096, dtype=np.int64),
                    out_assoc=np.zeros(4096, dtype=np.uint8))

    def binds(be, st):
        return (
            be.bind_pacing_plan(st["ne"], paused, st["act"], st["rem"],
                                gaps, st["first"], st["counts"]),
            be.bind_merge_trains(st["first"], gaps, st["counts"], assoc,
                                 st["out_t"], st["out_src"],
                                 st["out_assoc"]),
            be.bind_pacing_commit(st["out_src"], st["first"], gaps,
                                  st["counts"], 1, st["ne"], st["rem"],
                                  st["act"], st["fa"], st["comm"],
                                  st["fin_idx"], st["fin_t"]),
            be.bind_owed_repay(st["owed"], st["ne"], rates),
        )

    got, want = state(), state()
    tiers = [(binds(get_backend(), got), got), (binds(ORACLE, want), want)]
    for until in (1e-3, 2e-3, 3e-3):
        nxt = float(np.nextafter(until, np.inf))
        results = []
        for (plan, merge, commit, repay), st in tiers:
            total = int(plan(until))
            assert int(merge(5e-6)) == total
            n_fin = int(commit(total - total // 3))
            repay(until, nxt)
            results.append((total, n_fin))
        assert results[0] == results[1]
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key
    assert got["fa"].sum() > 0 and not got["act"][0]  # source 0 ran out


# -- switch window: the C tier against the numpy tier, window by window -----


FRAME = 12_000  # bits: 12 us of service at 1 Gb/s


class _ObsLog:
    """An obs handle that keeps every switch event, in emission order."""

    enabled = True

    def __init__(self):
        self.events = []

    def event(self, kind, t, **fields):
        self.events.append((kind, t, sorted(fields.items())))


def _switch_pair(random_sampling):
    kernels = []
    for cls in (BatchedSwitchKernel, CompiledSwitchKernel):
        sw = CoreSwitch(Simulator(), cpid="cp", capacity=1e9, q0=30_000.0,
                        buffer_bits=60 * FRAME, w=2.0, pm=0.25, fb_bits=6,
                        q_sc=20 * FRAME, pause_duration=40e-6,
                        require_association=True, positive_only_below_q0=True,
                        random_sampling=random_sampling, sampling_seed=11)
        sw.attach_obs(_ObsLog(), engine="packet.batched")
        kernels.append(cls(sw, FRAME, pause_fanout=3,
                           pause_commit_horizon=10e-6))
    return kernels


def _train(t0, n, gap):
    return t0 + gap * np.arange(n)


#: ``(t_end, arrivals, timed event applied at the segment start)``
_SEGMENTS = [
    # 12 frames, 9 served by t_end: residual backlog carried over
    (1e-4, _train(0.0, 12, 2e-6), None),
    # the queue crosses q_sc: a PAUSE cuts the commit at pause_at + 10 us
    # and the rest is re-offered in the next window
    (3e-4, _train(1.2e-4, 40, 1e-6), None),
    # overflows the 60-frame buffer: drop-tail windows run per frame
    # (with PAUSEs re-armed every 40 us) until the burst is committed
    (1.4e-3, _train(3.1e-4, 100, 0.5e-6), None),
    # link outage: no service starts before 1.6 ms
    (1.8e-3, _train(1.45e-3, 15, 3e-6), ("freeze", 1.6e-3)),
    # an outage that overflows the buffer: per-frame windows, frozen
    (2.6e-3, _train(1.85e-3, 70, 1e-6), ("freeze", 2.0e-3)),
    # the service rate halves
    (3.6e-3, _train(2.9e-3, 20, 10e-6), ("capacity", 5e8)),
    # pairs of same-instant arrivals overflow the buffer: a sampled
    # arrival and a dropped one can share a timestamp, and the obs
    # stream must keep the per-arrival order
    (4.0e-3, np.repeat(_train(3.62e-3, 60, 1e-6), 2), None),
    # nothing arrives: the queue drains
    (4.6e-3, np.empty(0), None),
]


def _switch_state(k):
    sw, q = k.switch, k.switch.queue
    return (vars(sw.stats).copy(), q.enqueued_frames, q.enqueued_bits,
            q.dequeued_frames, q.dequeued_bits, q.dropped_frames,
            q.dropped_bits, sw.sigma_history, sw._arrivals_since_sample,
            sw._q_at_last_sample, sw._service_paused_until, sw.capacity,
            k._backlog, k._next_free, k._inflight, k._pause_rearm_at,
            k._frozen_until, k._ssvc)


@requires_compiled
@pytest.mark.parametrize("random_sampling", [False, True],
                         ids=["deterministic", "bernoulli"])
def test_compiled_switch_kernel_matches_batched_window_by_window(
        random_sampling):
    kernels = _switch_pair(random_sampling)
    rng = np.random.default_rng(2)
    t = 0.0
    seen = dict(windows=0, backlog=0, pauses=0, drop_windows=0)
    for t_end, times, event in _SEGMENTS:
        if event is not None:
            kind, value = event
            for k in kernels:
                if kind == "freeze":
                    k.freeze_until(value)
                else:
                    k.set_capacity(value)
        srcs = rng.integers(0, 4, times.size).astype(np.int64)
        assoc = rng.integers(0, 2, times.size).astype(np.uint8)
        while True:
            want, got = (k.process(t, t_end, times, srcs, assoc)
                         for k in kernels)
            for field in vars(want):
                w, g = getattr(want, field), getattr(got, field)
                if isinstance(w, np.ndarray):
                    np.testing.assert_array_equal(g, w, err_msg=field)
                else:
                    assert g == w, field
            assert _switch_state(kernels[1]) == _switch_state(kernels[0])
            logs = [k.switch.obs.events for k in kernels]
            assert logs[1] == logs[0]
            probe = np.linspace(want.t_start, want.t_commit, 9)
            np.testing.assert_array_equal(kernels[1].queue_at(probe),
                                          kernels[0].queue_at(probe))
            seen["windows"] += 1
            seen["backlog"] += kernels[0]._backlog > 0
            seen["pauses"] += want.pause_at is not None
            seen["drop_windows"] += want.drops > 0
            times, srcs, assoc = (a[want.committed:]
                                  for a in (times, srcs, assoc))
            t = want.t_commit
            if not times.size and t >= t_end:
                break
            assert seen["windows"] < 200
    assert seen["backlog"] and seen["pauses"] >= 3 and seen["drop_windows"]
    assert kernels[0].switch.queue.dropped_frames > 0
    # the paired segment put a drop and a BCN on one instant
    drops = {t for kind, t, _ in logs[0] if kind == "drop"}
    assert any(kind == "bcn" and t in drops for kind, t, _ in logs[0])
    if random_sampling:
        states = [k._rng.bit_generator.state for k in kernels]
        assert states[1] == states[0]


# -- switch window: the packet closures, tier against tier -----------------
#
# Output buffers start as NaN (float) or -7 (int) sentinels, so a slot
# one tier writes and the other leaves alone fails the byte comparison.

SSVC = FRAME / 1e9
_T0, _T1 = 1e-4, 3e-4
_TIMES = _train(_T0, 30, 4e-6)  # 4 us apart, 12 us of service each


def _sentinels(**sizes):
    return {name: (np.full(n, -7, dtype=np.int64) if name.endswith("_i")
                   or name in ("msg_src", "msg_j", "drop_j", "pause_j")
                   else np.full(n, np.nan))
            for name, n in sizes.items()}


def _assert_same_bytes(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


#: window kind -> (buffer B, PAUSE threshold q_sc, PAUSE re-arm time)
_PLAN_KINDS = {
    "no-drop": (60 * FRAME, np.nan, -np.inf),
    "drop-tail": (10 * FRAME, np.nan, -np.inf),
    "pause-cut": (60 * FRAME, 8 * FRAME, -np.inf),
    "pause-unarmed": (60 * FRAME, 8 * FRAME, np.inf),
}


def _run_plan(be, kind, n_res, frozen_until):
    B, q_sc, rearm = _PLAN_KINDS[kind]
    m = _TIMES.size
    bufs = _sentinels(starts=n_res + m + 3, completions=n_res + m + 3,
                      q_bits=m + 3, out_d=2, out_i=3)
    plan = be.bind_packet_plan(float(FRAME), B, q_sc, 10e-6, bufs["starts"],
                               bufs["completions"], bufs["q_bits"],
                               bufs["out_d"], bufs["out_i"])
    plan(_TIMES.copy(), _T0, _T1, SSVC, n_res, _T0 + 5e-6,
         1 if n_res else 0, frozen_until, rearm)
    return bufs


@requires_compiled
@pytest.mark.parametrize("frozen_until", [-np.inf, _T0 + 50e-6],
                         ids=["running", "outage"])
@pytest.mark.parametrize("n_res", [0, 4], ids=["empty", "backlog"])
@pytest.mark.parametrize("kind", sorted(_PLAN_KINDS))
def test_packet_plan_closures_agree_byte_for_byte(kind, n_res, frozen_until):
    want = _run_plan(ORACLE, kind, n_res, frozen_until)
    _assert_same_bytes(_run_plan(get_backend(), kind, n_res, frozen_until),
                       want)
    needs_scalar, m_eff, _ = want["out_i"]
    assert needs_scalar == (kind == "drop-tail")
    if kind == "pause-cut":
        assert want["out_d"][0] == want["out_d"][0]  # a PAUSE fired
        assert m_eff < _TIMES.size
    else:
        assert np.isnan(want["out_d"][0]) and m_eff == _TIMES.size


def _run_commit(be, sampling, fb, cut):
    # the numpy plan of a backlogged window is the shared input
    kind = "pause-cut" if cut else "no-drop"
    plan = _run_plan(ORACLE, kind, 4, -np.inf)
    m_eff, t_commit = int(plan["out_i"][1]), float(plan["out_d"][1])
    m = _TIMES.size
    rng = np.random.default_rng(7)
    srcs = rng.integers(0, 4, m).astype(np.int64)
    assoc = rng.integers(0, 2, m).astype(np.uint8)
    bernoulli = sampling == "bernoulli"
    uniforms = rng.random(m_eff) if bernoulli else np.empty(0)
    sigma_unit, full_scale = ((150_000.0 / 16, 32.0) if fb == "quantised"
                              else (np.nan, 0.0))
    bufs = _sentinels(msg_t=m, msg_src=m, msg_sigma=m, msg_fb=m, samp_t=m,
                      samp_sigma=m, out_d=2, out_i=9)
    commit = be.bind_packet_commit(
        0.5, 150_000.0, 2.0, 1, 1, sigma_unit, full_scale,
        plan["q_bits"].copy(), plan["starts"].copy(),
        plan["completions"].copy(), bufs["msg_t"], bufs["msg_src"],
        bufs["msg_sigma"], bufs["msg_fb"], bufs["samp_t"],
        bufs["samp_sigma"], bufs["out_d"], bufs["out_i"])
    commit(m_eff, 4, _TIMES.copy(), srcs, assoc, _T0, t_commit, 1,
           _T0 + 5e-6, uniforms, 1 if bernoulli else 0, 3, 1, 100_000.0)
    return bufs


@requires_compiled
@pytest.mark.parametrize("cut", [False, True], ids=["whole", "pause-cut"])
@pytest.mark.parametrize("fb", ["raw", "quantised"])
@pytest.mark.parametrize("sampling", ["deterministic", "bernoulli"])
def test_packet_commit_closures_agree_byte_for_byte(sampling, fb, cut):
    want = _run_commit(ORACLE, sampling, fb, cut)
    _assert_same_bytes(_run_commit(get_backend(), sampling, fb, cut), want)
    n_msg, n_samp, neg, pos = want["out_i"][:4]
    assert n_samp >= n_msg > 0
    if not cut:
        assert neg > 0 and pos > 0


def _run_scalar(be, sampling, fb):
    # a 10-frame buffer overflows; PAUSE fires at 3 frames and re-arms
    # 20 us later, inside the 60 us in-flight horizon
    times = _train(_T0, 60, 2e-6)
    m, n_res = times.size, 3
    rng = np.random.default_rng(3)
    srcs = rng.integers(0, 4, m).astype(np.int64)
    assoc = rng.integers(0, 2, m).astype(np.uint8)
    bernoulli = sampling == "bernoulli"
    uniforms = rng.random(m) if bernoulli else np.empty(0)
    sigma_unit, full_scale = ((30_000.0 / 16, 32.0) if fb == "quantised"
                              else (np.nan, 0.0))
    bufs = _sentinels(msg_t=m, msg_src=m, msg_sigma=m, msg_fb=m, samp_t=m,
                      samp_sigma=m, msg_j=m, drop_j=m, acc_arrivals=n_res + m,
                      starts_out=n_res + m, pause_j=m, out_d=5, out_i=14)
    be.packet_scalar(
        times, srcs, assoc, uniforms, 1 if bernoulli else 0, 0.5, 3, 1,
        _T0, _T1, SSVC, float(FRAME), 10.0 * FRAME, 3.0 * FRAME, 30_000.0,
        2.0, 1, 1, sigma_unit, full_scale, n_res, _T0 + 5e-6, 1,
        _T0 + 8e-6, -np.inf, 20e-6, 60e-6, 20_000.0, **bufs)
    return bufs


@requires_compiled
@pytest.mark.parametrize("fb", ["raw", "quantised"])
@pytest.mark.parametrize("sampling", ["deterministic", "bernoulli"])
def test_packet_scalar_agrees_byte_for_byte_with_pause_rearmed(sampling, fb):
    want = _run_scalar(ORACLE, sampling, fb)
    _assert_same_bytes(_run_scalar(get_backend(), sampling, fb), want)
    _, n_msg, _, n_drop = want["out_i"][:4]
    n_pause = want["out_i"][13]
    assert n_drop > 0 and n_msg > 0 and n_pause >= 2
    assert want["out_d"][1] < _T1  # each PAUSE moved the commit horizon


def test_switch_window_rebinds_after_buffer_growth(tier):
    sw = CoreSwitch(Simulator(), cpid="cp", capacity=1e9, q0=30_000.0,
                    buffer_bits=500 * FRAME, pm=0.25, fb_bits=6)
    k = BatchedSwitchKernel(sw, FRAME, backend=tier)
    ref = BatchedSwitchKernel(copy.deepcopy(sw), FRAME, backend=ORACLE)
    windows = [(0.0, 1e-4, _train(0.0, 10, 5e-6)),
               (1e-4, 5e-4, _train(1e-4, 300, 1e-6))]
    closures = []
    for t0, t1, times in windows:
        srcs = np.arange(times.size, dtype=np.int64) % 3
        assoc = np.ones(times.size, dtype=np.uint8)
        got = k.process(t0, t1, times, srcs, assoc)
        want = ref.process(t0, t1, times, srcs, assoc)
        closures.append((k._bound_plan, k._bound_commit))
        assert got.committed == want.committed == times.size
        for field in ("msg_t", "msg_src", "msg_fb", "msg_sigma"):
            assert getattr(got, field).tobytes() \
                == getattr(want, field).tobytes(), field
        np.testing.assert_array_equal(k.queue_at(_train(t0, 50, 2e-6)),
                                      ref.queue_at(_train(t0, 50, 2e-6)))
    # the 300-frame window outgrew the first buffers: both re-bound
    assert closures[1][0] is not closures[0][0]
    assert closures[1][1] is not closures[0][1]


# -- fluid kernel -----------------------------------------------------------


def _fluid_case():
    from repro.experiments.presets import CASE1

    x0 = np.linspace(-0.5, 0.4, 6) * CASE1.q0
    return CASE1, x0


@requires_compiled
@pytest.mark.parametrize("mode", ["nonlinear", "linearized"])
def test_fluid_compiled_is_bitwise_equal_to_numpy(mode):
    from repro.fluid.batch import simulate_fluid_batch

    p, x0 = _fluid_case()
    ref = simulate_fluid_batch(p, x0, 0.0, t_max=20.0, mode=mode,
                               fluid_method="numpy")
    com = simulate_fluid_batch(p, x0, 0.0, t_max=20.0, mode=mode)
    np.testing.assert_array_equal(com.t, ref.t)
    np.testing.assert_array_equal(com.x, ref.x)
    np.testing.assert_array_equal(com.y, ref.y)
    np.testing.assert_array_equal(com.t_end, ref.t_end)
    np.testing.assert_array_equal(com.x_end, ref.x_end)
    np.testing.assert_array_equal(com.switch_counts, ref.switch_counts)
    np.testing.assert_array_equal(com.converged, ref.converged)
    assert com.end_reason == ref.end_reason
    assert com.events == ref.events


@requires_compiled
def test_fluid_compiled_physical_mode_within_libm_tolerance():
    from repro.fluid.batch import simulate_fluid_batch

    p, x0 = _fluid_case()
    ref = simulate_fluid_batch(p, x0, 0.0, t_max=20.0, mode="physical",
                               fluid_method="numpy")
    com = simulate_fluid_batch(p, x0, 0.0, t_max=20.0, mode="physical")
    scale = max(p.q0, p.capacity * 1e-3)
    assert np.max(np.abs(com.x - ref.x)) <= 1e-9 * scale
    np.testing.assert_array_equal(com.switch_counts, ref.switch_counts)


def test_fluid_method_seam_accepts_auto_and_numpy():
    from repro.fluid.batch import simulate_fluid_batch

    p, x0 = _fluid_case()
    ref = simulate_fluid_batch(p, x0, 0.0, t_max=5.0, mode="nonlinear",
                               fluid_method="numpy")
    out = simulate_fluid_batch(p, x0, 0.0, t_max=5.0, mode="nonlinear",
                               fluid_method="auto")
    np.testing.assert_array_equal(out.x, ref.x)
    np.testing.assert_array_equal(out.y, ref.y)
    # "compiled" was an alias of "auto"; it is gone, like any other name
    for method in ("compiled", "???"):
        with pytest.raises(ValueError, match="accepted: 'auto', 'numpy'"):
            simulate_fluid_batch(p, x0, 0.0, t_max=5.0, fluid_method=method)
    # float64 is the only state precision
    with pytest.raises(TypeError):
        simulate_fluid_batch(p, x0, 0.0, t_max=5.0, precision="float32")


# -- fluid kernel: C against the numpy integrator ----------------------------
#
# Each row of the C kernel runs the numpy loop's float operations in the
# same order, so the two results must match byte for byte, sample count
# included (physical mode: ``y`` within libm's ulp of numpy's ``exp``).


def _fluid_pair(p, x0, y0, **kw):
    """The default call (the C kernel on this tier) and the numpy pin."""
    from repro.fluid.batch import simulate_fluid_batch

    want = simulate_fluid_batch(p, x0, y0, fluid_method="numpy", **kw)
    got = simulate_fluid_batch(p, x0, y0, **kw)
    return got, want


def _event_bytes(result):
    return [[(float(e.time).hex(), e.kind, float(e.x).hex(),
              float(e.y).hex()) for e in evs] for evs in result.events]


def _assert_same_result(got, want, exact_y=True):
    fields = ["t", "x", "converged", "switch_counts", "t_end", "x_end",
              "y_end"] + (["y"] if exact_y else [])
    for name in fields:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    assert got.end_reason == want.end_reason
    assert _event_bytes(got) == _event_bytes(want)


def _mixed_bundle():
    """CASE1_SLOW rows that end every way a row can end (10.5 s, 4 switches).

    Row 3 starts just after a switch, half a swing behind row 2, so it
    is still running at ``t_max`` when rows 2 and 4 hit the switch cap.
    """
    from repro.experiments.presets import CASE1_SLOW

    p = CASE1_SLOW
    x0 = np.array([1e-5 * p.q0, 8e-5 * p.q0, 0.3 * p.q0, 0.3196, -0.9 * p.q0])
    y0 = np.array([0.0, 0.0, 0.0, -3.7696, 0.0])
    return p, x0, y0, dict(t_max=10.5, max_switches=4)


def _physical_bundle():
    """Row 0 starts pinned at the empty buffer and later fills it."""
    from repro.experiments.presets import scale_free

    p = scale_free(2.0, 0.02, k=0.1, buffer_size=15.0)
    x0 = np.array([-1.2, 0.0, 0.5]) * p.q0
    y0 = np.array([-5.0, 0.0, 0.0])
    return p, x0, y0, dict(t_max=12.0, max_switches=20, mode="physical")


@requires_compiled
@pytest.mark.parametrize("mode", ["nonlinear", "linearized"])
def test_fluid_c_kernel_equals_scalar_spec_on_mixed_bundle(mode):
    p, x0, y0, kw = _mixed_bundle()
    got, want = _fluid_pair(p, x0, y0, mode=mode, **kw)
    _assert_same_result(got, want)
    if mode == "nonlinear":
        # the bundle covers every way a row ends
        assert want.end_reason == ["converged", "converged", "max_switches",
                                   "time_limit", "max_switches"]
        assert want.t_end[0] == 0.0 and want.switch_counts[0] == 0
        assert 0.0 < want.t_end[1] < kw["t_max"]
        # rows that died early repeat their end state to the last sample
        assert want.t[-1] == kw["t_max"]  # row 3 ran to t_max
        assert np.all(want.x[:, 0] == x0[0])
        assert np.all(want.x[-5:, 2] == want.x_end[2])


@requires_compiled
def test_fluid_c_kernel_equals_scalar_spec_in_physical_mode():
    p, x0, y0, kw = _physical_bundle()
    got, want = _fluid_pair(p, x0, y0, **kw)
    _assert_same_result(got, want, exact_y=False)
    np.testing.assert_allclose(got.y, want.y, rtol=1e-13, atol=0.0)
    kinds = [e.kind for e in want.events[0]]
    assert kinds[0] == "buffer_empty" and want.events[0][0].time == 0.0
    assert "buffer_full" in kinds  # later pinned at the full buffer
    assert want.events[1] == []  # row 1 starts converged


@requires_compiled
@pytest.mark.parametrize("rows", [slice(0, 1), slice(3, 4), slice(0, 0)],
                         ids=["m1-converged", "m1-running", "m0"])
def test_fluid_c_kernel_equals_scalar_spec_on_tiny_bundles(rows):
    p, x0, y0, kw = _mixed_bundle()
    got, want = _fluid_pair(p, x0[rows], y0[rows], mode="nonlinear", **kw)
    _assert_same_result(got, want)
    assert want.t.size >= 2


def _fluid_rows_outputs(fn, p, x0, y0, *, t_max, mode, max_switches):
    """Run a ``fluid_rows`` kernel on output buffers filled with
    sentinels (NaN / -1), so every sample or slot it skips shows."""
    from repro.fluid import batch

    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    y0 = np.ascontiguousarray(y0, dtype=np.float64)
    m = x0.shape[0]
    dt = batch.default_time_step(p)
    t_grid = np.linspace(0.0, t_max, max(1, int(np.ceil(t_max / dt))) + 1)
    n = t_grid.shape[0]
    ev_cap = 8 * (max_switches + 8)
    out = dict(
        xs=np.full(n * m, np.nan), ys=np.full(n * m, np.nan),
        reason=np.full(m, -1, dtype=np.int8),
        switches=np.full(m, -1, dtype=np.int64),
        t_end=np.full(m, np.nan), x_end=np.full(m, np.nan),
        y_end=np.full(m, np.nan),
        n_events=np.full(m, -1, dtype=np.int64),
        ev_t=np.full(m * ev_cap, np.nan),
        ev_kind=np.full(m * ev_cap, -1, dtype=np.int8),
        ev_x=np.full(m * ev_cap, np.nan), ev_y=np.full(m * ev_cap, np.nan),
        out_i=np.full(2, -7, dtype=np.int64),
    )
    fn(0, m, x0, y0, t_grid, p.a, p.b, p.capacity, p.k, p.q0,
       p.buffer_size - p.q0, -p.q0,
       1 if mode == "linearized" else 0, 1 if mode == "physical" else 0,
       max_switches, batch._CONVERGENCE_RTOL, t_max,
       out["xs"], out["ys"], out["reason"], out["switches"], out["t_end"],
       out["x_end"], out["y_end"], ev_cap, out["n_events"], out["ev_t"],
       out["ev_kind"], out["ev_x"], out["ev_y"], out["out_i"])
    return out


@requires_compiled
def test_fluid_c_kernel_stops_once_every_row_has_died():
    from repro.fluid.batch import simulate_fluid_batch

    p, x0, y0, kw = _mixed_bundle()
    rows = [0, 1, 2, 4]  # every row but 3 dies before t_max
    out = _fluid_rows_outputs(get_backend().fluid_rows, p, x0[rows],
                              y0[rows], mode="nonlinear", **kw)
    last, overflow = out["out_i"].tolist()
    assert overflow == 0
    xs = out["xs"].reshape(-1, len(rows))
    ys = out["ys"].reshape(-1, len(rows))
    assert 1 <= last < xs.shape[0] - 1
    assert not np.isnan(xs[: last + 1]).any()
    assert not np.isnan(ys[: last + 1]).any()
    # nothing past the step at which the last row died is written
    assert np.isnan(xs[last + 1:]).all() and np.isnan(ys[last + 1:]).all()
    want = simulate_fluid_batch(p, x0[rows], y0[rows], fluid_method="numpy",
                                mode="nonlinear", **kw)
    assert last == want.t.size - 1
    assert xs[: last + 1].tobytes() == want.x.tobytes()
    assert ys[: last + 1].tobytes() == want.y.tobytes()


@requires_compiled
@pytest.mark.parametrize("m", [2**57, 2**62],
                         ids=["malloc-fails", "size-overflows"])
def test_fluid_c_kernel_reports_allocation_failure(m):
    # Neither size can be allocated, so the kernel must return before it
    # touches a single (here NULL) array argument.
    be = get_backend()
    null = be._ffi.NULL
    out_i = np.zeros(2, dtype=np.int64)
    be._lib.k_fluid(
        m, 0, m, 10, null, null, null, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 0, 0,
        4, 1e-4, 1.0, null, null, null, null, null, null, null, 8, null,
        null, null, null, null, be._i(out_i))
    assert out_i.tolist() == [-1, 0]


def test_fluid_wrapper_raises_memory_error_on_allocation_failure(
        monkeypatch):
    from repro.fluid.batch import simulate_fluid_batch
    from repro.kernels import _backend

    class _NoMemory(KernelBackend):
        compiled = True

        def fluid_rows(self, lo, hi, *args):
            assert (lo, hi) == (0, 6)  # six rows stay on one thread
            args[-1][0] = -1

    monkeypatch.setattr(_backend, "_BACKEND", _NoMemory())
    p, x0 = _fluid_case()
    with pytest.raises(MemoryError, match="6 rows"):
        simulate_fluid_batch(p, x0, 0.0, t_max=1.0)
