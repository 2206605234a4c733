"""Unit tests for the compiled kernel package (:mod:`repro.kernels`).

Backend selection, the differential guarantees of the individual
kernels and of each tier's bound window-loop closures against their
pure-python reference bodies, the fluid precision modes, and the
one-time warm-up span.  Tests marked ``requires_compiled`` exercise the
C tier and skip on the pure-numpy fallback; everything else runs on
every tier.
"""

import numpy as np
import pytest

from repro.kernels import (get_backend, reset_backend,
                           simulate_fluid_batch_compiled)
from repro.kernels import _scalar
from repro.kernels._backend import KernelBackend, consume_warmup_span
from repro.simulation.frames import BCNMessage
from repro.simulation.source import RateRegulator

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


def test_numpy_tier_is_the_scalar_reference():
    be = KernelBackend()
    assert be.name == "numpy"
    assert not be.compiled
    assert be.warmup_seconds == 0.0


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


@requires_compiled
def test_merge_trains_matches_argsort_merge():
    rng = np.random.default_rng(3)
    n = 8
    first = rng.uniform(0.0, 1e-3, n)
    gaps = rng.uniform(1e-6, 1e-4, n)
    counts = rng.integers(0, 50, n).astype(np.int64)
    assoc = rng.integers(0, 2, n).astype(np.uint8)
    d = 5e-6
    exp_t, exp_src, exp_assoc = _reference_merge(first, gaps, counts,
                                                 assoc, d)
    total = int(counts.sum())
    out_t = np.empty(total)
    out_src = np.empty(total, dtype=np.int64)
    out_assoc = np.empty(total, dtype=np.uint8)
    get_backend().merge_trains(first, gaps, counts, assoc, d,
                               out_t, out_src, out_assoc)
    np.testing.assert_array_equal(out_t, exp_t)
    np.testing.assert_array_equal(out_src, exp_src)
    np.testing.assert_array_equal(out_assoc, exp_assoc)


@requires_compiled
def test_merge_trains_breaks_time_ties_by_source():
    # Identical trains: every emission time collides across sources, and
    # the stable argsort the batched engine uses resolves each tie in
    # ascending source order — merge_trains must do the same.
    first = np.array([1e-3, 1e-3])
    gaps = np.array([1e-5, 1e-5])
    counts = np.array([3, 3], dtype=np.int64)
    assoc = np.array([1, 0], dtype=np.uint8)
    out_t = np.empty(6)
    out_src = np.empty(6, dtype=np.int64)
    out_assoc = np.empty(6, dtype=np.uint8)
    get_backend().merge_trains(first, gaps, counts, assoc, 0.0,
                               out_t, out_src, out_assoc)
    np.testing.assert_array_equal(out_src, [0, 1, 0, 1, 0, 1])
    np.testing.assert_array_equal(out_assoc, [1, 0, 1, 0, 1, 0])


# -- apply_messages ---------------------------------------------------------


_MODES = [("message", 0), ("fluid-euler", 1), ("fluid-exact", 2)]


def _apply_case(mode):
    """Random BCN messages applied the object way (RateRegulator.apply
    plus the window loop's owed-bits bookkeeping); returns the message
    arrays, the constants and the expected per-source outcome."""
    rng = np.random.default_rng(7)
    n, n_msg = 6, 400
    const = dict(gi=4.0, gd=1 / 128, ru=8e6, max_dt=5e-4, d=5e-6,
                 t_commit=0.0105)
    regs = [
        RateRegulator(gi=const["gi"], gd=const["gd"], ru=const["ru"],
                      initial_rate=2e7, min_rate=1e5, line_rate=1e9,
                      mode=mode, max_dt=const["max_dt"])
        for _ in range(n)
    ]
    msgs = dict(
        msg_t=np.sort(rng.uniform(0.0, 0.01, n_msg)),
        msg_src=rng.integers(0, n, n_msg).astype(np.int64),
        msg_fb=rng.uniform(-128.0, 127.0, n_msg),
        msg_sigma=rng.uniform(-3e6, 3e6, n_msg),
    )
    owed = np.zeros(n)
    total = float(sum(r.rate for r in regs))
    for k in range(n_msg):
        i = int(msgs["msg_src"][k])
        now = float(msgs["msg_t"][k]) + const["d"]
        before = regs[i].rate
        regs[i].apply(
            BCNMessage(da=i, sa="cp", cpid="cp",
                       fb=float(msgs["msg_fb"][k]), q_off=0.0, q_delta=0.0,
                       fb_raw=float(msgs["msg_sigma"][k]),
                       sent_at=float(msgs["msg_t"][k])),
            now,
        )
        after = regs[i].rate
        if after != before:
            delta = after - before
            owed[i] += delta * max(const["t_commit"] - now, 0.0)
            total += delta
    return msgs, const, regs, owed, total


def _soa_state(n):
    """Fresh struct-of-array regulator state matching ``_apply_case``."""
    return dict(rate=np.full(n, 2e7), last_update=np.full(n, np.nan),
                assoc8=np.zeros(n, dtype=np.uint8),
                updates=np.zeros(n, dtype=np.int64), owed=np.zeros(n),
                out_d=np.array([n * 2e7]))


def _assert_soa_matches(st, regs, owed, total):
    np.testing.assert_array_equal(st["rate"], [r.rate for r in regs])
    np.testing.assert_array_equal(st["owed"], owed)
    assert float(st["out_d"][0]) == total
    np.testing.assert_array_equal(st["updates"],
                                  [r.updates_applied for r in regs])
    for i, reg in enumerate(regs):
        assert bool(st["assoc8"][i]) == (reg.associated_cpid == "cp")
        lu = float(st["last_update"][i])
        if reg._last_update is None:
            assert lu != lu  # NaN encodes "never updated"
        else:
            assert lu == reg._last_update


@requires_compiled
@pytest.mark.parametrize("mode, code", _MODES)
def test_apply_messages_matches_regulator_objects(mode, code):
    msgs, c, regs, owed, total = _apply_case(mode)
    n = len(regs)
    st = _soa_state(n)
    get_backend().apply_messages(
        msgs["msg_t"], msgs["msg_src"], msgs["msg_fb"], msgs["msg_sigma"],
        code, c["gi"], c["gd"], c["ru"], c["max_dt"], c["d"],
        c["t_commit"], st["rate"], st["last_update"], st["assoc8"],
        st["updates"], np.full(n, 1e5), np.full(n, 1e9), st["owed"],
        st["out_d"],
    )
    _assert_soa_matches(st, regs, owed, total)


@pytest.mark.parametrize("mode, code", _MODES)
def test_bound_apply_messages_matches_regulator_objects(tier, mode, code):
    msgs, c, regs, owed, total = _apply_case(mode)
    n = len(regs)
    st = _soa_state(n)
    bound = tier.bind_apply_messages(
        code, c["gi"], c["gd"], c["ru"], c["max_dt"], c["d"], st["rate"],
        st["last_update"], st["assoc8"], st["updates"], np.full(n, 1e5),
        np.full(n, 1e9), st["owed"], st["out_d"])
    bound(msgs["msg_t"], msgs["msg_src"], msgs["msg_fb"],
          msgs["msg_sigma"], c["t_commit"])
    _assert_soa_matches(st, regs, owed, total)


# -- pacing kernels ---------------------------------------------------------


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


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_pacing_plan_matches_scalar_reference(seed):
    next_emit, paused, active, remaining, gaps = _pacing_case(seed)
    until = 1.5e-3
    n = next_emit.size
    ref_first, ref_counts = np.empty(n), np.empty(n, dtype=np.int64)
    ref_total = _scalar.pacing_plan(next_emit, paused, active, remaining,
                                    gaps, until, ref_first, ref_counts)
    first, counts = np.empty(n), np.empty(n, dtype=np.int64)
    total = get_backend().pacing_plan(next_emit, paused, active, remaining,
                                      gaps, until, first, counts)
    assert int(total) == ref_total == int(counts.sum())
    np.testing.assert_array_equal(first, ref_first)
    np.testing.assert_array_equal(counts, ref_counts)
    # a paused or inactive source never plans emissions before resume
    assert np.all(first >= next_emit)
    assert np.all(counts[~active] == 0)
    assert np.all(counts <= np.where(np.isfinite(remaining),
                                     remaining, np.inf))


@pytest.mark.parametrize("truncate", [False, True])
def test_pacing_commit_matches_scalar_reference(truncate):
    next_emit, paused, _, remaining, gaps = _pacing_case(9)
    until = 1.5e-3
    n = next_emit.size
    active = np.ones(n, dtype=bool)  # everyone emits: exercise finishes
    remaining[:3] = [1.0, 2.0, 3.0]  # force some sources to run out
    first, counts = np.empty(n), np.empty(n, dtype=np.int64)
    total = int(get_backend().pacing_plan(
        next_emit, paused, active, remaining, gaps, until, first, counts))
    assert total > 0
    srcs = np.repeat(np.arange(n, dtype=np.int64), counts)
    m_committed = total // 2 if truncate else total

    def run(fn):
        ne, rem = next_emit.copy(), remaining.copy()
        act = active.copy().astype(np.uint8)
        fa = np.zeros(n, dtype=np.int64)
        comm = np.empty(n, dtype=np.int64)
        fin_idx = np.empty(n, dtype=np.int64)
        fin_t = np.empty(n)
        n_fin = fn(srcs, m_committed, first, gaps, counts, 1,
                   ne, rem, act, fa, comm, fin_idx, fin_t)
        return ne, rem, act, fa, int(n_fin), fin_idx, fin_t

    r = run(_scalar.pacing_commit)
    k = run(get_backend().pacing_commit)
    for ref, got in zip(r[:5], k[:5]):
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(k[5][:k[4]], r[5][:r[4]])
    np.testing.assert_array_equal(k[6][:k[4]], r[6][:r[4]])
    # finished sources really ran out, and their finish time is the
    # instant their last committed frame was emitted
    for j in range(k[4]):
        i = int(k[5][j])
        assert k[1][i] <= 0.0 and not k[2][i]


def test_owed_repay_matches_scalar_reference():
    rng = np.random.default_rng(21)
    n = 8
    owed = np.where(rng.random(n) < 0.5, rng.uniform(-2e4, 2e4, n), 0.0)
    rates = rng.uniform(1e6, 1e9, n)
    until = 1e-3
    next_emit = np.where(rng.random(n) < 0.7,
                         until + rng.uniform(0.0, 1e-3, n),
                         rng.uniform(0.0, until, n))
    nxt = float(np.nextafter(until, np.inf))
    ref_owed, ref_ne = owed.copy(), next_emit.copy()
    _scalar.owed_repay(ref_owed, ref_ne, rates, until, nxt)
    got_owed, got_ne = owed.copy(), next_emit.copy()
    get_backend().owed_repay(got_owed, got_ne, rates, until, nxt)
    np.testing.assert_array_equal(got_owed, ref_owed)
    np.testing.assert_array_equal(got_ne, ref_ne)
    # sources already due before ``until`` are untouched
    before = next_emit <= until
    np.testing.assert_array_equal(got_ne[before], next_emit[before])
    np.testing.assert_array_equal(got_owed[before], owed[before])
    # repayment never reschedules a deferred source into the closed window
    assert np.all(got_ne[~before] >= nxt)


# -- each tier's bound window-loop closures vs the scalar bodies ----------


def _merge_case(seed, n, max_count):
    rng = np.random.default_rng(seed)
    first = rng.uniform(0.0, 1e-3, n)
    gaps = rng.uniform(1e-6, 1e-4, n)
    counts = rng.integers(0, max_count, n).astype(np.int64)
    assoc = rng.integers(0, 2, n).astype(np.uint8)
    return first, gaps, counts, assoc


def _scalar_merge(first, gaps, counts, assoc, d):
    total = int(counts.sum())
    out = (np.empty(total), np.empty(total, dtype=np.int64),
           np.empty(total, dtype=np.uint8))
    assert _scalar.merge_trains(first, gaps, counts, assoc, d, *out) == total
    return out


def test_bound_merge_trains_matches_scalar_with_growth_and_rebind(tier):
    # The window loop's buffer life cycle: bind over small persistent
    # buffers, then a window that outgrows them — reallocate, re-bind,
    # merge again — all against the same captured per-source arrays.
    n, d = 8, 5e-6
    first, gaps, counts, assoc = _merge_case(3, n, 6)
    cap = 64
    out_t, out_src = np.empty(cap), np.empty(cap, dtype=np.int64)
    out_assoc = np.empty(cap, dtype=np.uint8)
    bound = tier.bind_merge_trains(first, gaps, counts, assoc,
                                   out_t, out_src, out_assoc)
    total = int(bound(d))
    assert total == int(counts.sum()) <= cap
    for got, want in zip((out_t, out_src, out_assoc),
                         _scalar_merge(first, gaps, counts, assoc, d)):
        np.testing.assert_array_equal(got[:total], want)

    # next window: new plan written in place, too big for the buffers;
    # two identical trains collide at every emission time, and ties
    # must resolve in ascending source order
    f2, g2, c2, a2 = _merge_case(4, n, 50)
    first[:], gaps[:], counts[:], assoc[:] = f2, g2, c2, a2
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
                         _scalar_merge(first, gaps, counts, assoc, d)):
        np.testing.assert_array_equal(got[:total], want)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_bound_pacing_plan_matches_scalar(tier, seed):
    next_emit, paused, active, remaining, gaps = _pacing_case(seed)
    until = 1.5e-3
    n = next_emit.size
    ref_first, ref_counts = np.empty(n), np.empty(n, dtype=np.int64)
    ref_total = _scalar.pacing_plan(next_emit, paused, active, remaining,
                                    gaps, until, ref_first, ref_counts)
    first, counts = np.empty(n), np.empty(n, dtype=np.int64)
    bound = tier.bind_pacing_plan(next_emit, paused, active, remaining,
                                  gaps, first, counts)
    assert int(bound(until)) == ref_total
    np.testing.assert_array_equal(first, ref_first)
    np.testing.assert_array_equal(counts, ref_counts)


@pytest.mark.parametrize("any_finite", [1, 0])
@pytest.mark.parametrize("truncate", [False, True])
def test_bound_pacing_commit_matches_scalar(tier, truncate, any_finite):
    next_emit, paused, _, remaining, gaps = _pacing_case(9)
    until = 1.5e-3
    n = next_emit.size
    active = np.ones(n, dtype=bool)
    # the last source is PAUSEd past its pending emission, so when the
    # commit is cut short it holds a deferred first emission
    next_emit[-1], paused[-1] = 2e-4, 5e-4
    if any_finite:
        remaining[:3] = [1.0, 2.0, 3.0]  # force some sources to run out
    else:
        remaining[:] = np.inf  # the loop's pure-elephant shortcut
    first, counts = np.empty(n), np.empty(n, dtype=np.int64)
    total = _scalar.pacing_plan(next_emit, paused, active, remaining, gaps,
                                until, first, counts)
    srcs = np.repeat(np.arange(n, dtype=np.int64), counts)
    m_committed = total // 2 if truncate else total

    def state():
        return dict(ne=next_emit.copy(), rem=remaining.copy(),
                    act=active.copy(), fa=np.zeros(n, dtype=np.int64),
                    comm=np.empty(n, dtype=np.int64),
                    fin_idx=np.empty(n, dtype=np.int64), fin_t=np.empty(n))

    ref = state()
    ref_fin = _scalar.pacing_commit(
        srcs, m_committed, first, gaps, counts, any_finite, ref["ne"],
        ref["rem"], ref["act"], ref["fa"], ref["comm"], ref["fin_idx"],
        ref["fin_t"])
    got = state()
    bound = tier.bind_pacing_commit(
        srcs, first, gaps, counts, any_finite, got["ne"], got["rem"],
        got["act"], got["fa"], got["comm"], got["fin_idx"], got["fin_t"])
    n_fin = int(bound(m_committed))
    assert n_fin == ref_fin
    if not any_finite:
        assert n_fin == 0
    elif not truncate:
        assert n_fin > 0  # the short finite flows all ran out
    for key in ("ne", "rem", "act", "fa", "comm"):
        np.testing.assert_array_equal(got[key], ref[key])
    for key in ("fin_idx", "fin_t"):
        np.testing.assert_array_equal(got[key][:n_fin], ref[key][:n_fin])


@pytest.mark.parametrize("all_zero", [False, True])
def test_bound_owed_repay_matches_scalar(tier, all_zero):
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
    ref_owed, ref_ne = owed.copy(), next_emit.copy()
    _scalar.owed_repay(ref_owed, ref_ne, rates, until, nxt)
    got_owed, got_ne = owed.copy(), next_emit.copy()
    tier.bind_owed_repay(got_owed, got_ne, rates)(until, nxt)
    np.testing.assert_array_equal(got_owed, ref_owed)
    np.testing.assert_array_equal(got_ne, ref_ne)


def test_bound_closures_mutate_like_direct_calls():
    """``bind_*`` closures must be call-for-call identical to the plain
    entry points on every tier (the cffi tier overrides them with
    precomputed pointers; the base class wraps the generic methods)."""
    be = get_backend()
    next_emit, paused, active, remaining, gaps = _pacing_case(31)
    until = 1.5e-3
    n = next_emit.size
    active = active.astype(np.uint8)

    d_first, d_counts = np.empty(n), np.empty(n, dtype=np.int64)
    d_total = int(be.pacing_plan(next_emit.copy(), paused, active,
                                 remaining.copy(), gaps, until,
                                 d_first, d_counts))

    b_ne, b_rem = next_emit.copy(), remaining.copy()
    b_first, b_counts = np.empty(n), np.empty(n, dtype=np.int64)
    bound_plan = be.bind_pacing_plan(b_ne, paused, active, b_rem, gaps,
                                     b_first, b_counts)
    assert int(bound_plan(until)) == d_total
    np.testing.assert_array_equal(b_first, d_first)
    np.testing.assert_array_equal(b_counts, d_counts)

    # owed_repay through a bound closure, twice (the closure must stay
    # valid across calls — pointers are cached, state is not)
    owed = np.array([1e4, 0.0, 5e3])
    ne = np.array([2e-3, 5e-4, 3e-3])
    rates = np.array([1e8, 1e8, 1e8])
    ref_owed, ref_ne = owed.copy(), ne.copy()
    be.owed_repay(ref_owed, ref_ne, rates, 1e-3,
                  float(np.nextafter(1e-3, np.inf)))
    be.owed_repay(ref_owed, ref_ne, rates, 2.5e-3,
                  float(np.nextafter(2.5e-3, np.inf)))
    bound_owed = be.bind_owed_repay(owed, ne, rates)
    bound_owed(1e-3, float(np.nextafter(1e-3, np.inf)))
    bound_owed(2.5e-3, float(np.nextafter(2.5e-3, np.inf)))
    np.testing.assert_array_equal(owed, ref_owed)
    np.testing.assert_array_equal(ne, ref_ne)


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
    com = simulate_fluid_batch_compiled(p, x0, 0.0, t_max=20.0, mode=mode)
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
    com = simulate_fluid_batch_compiled(p, x0, 0.0, t_max=20.0,
                                        mode="physical")
    scale = max(p.q0, p.capacity * 1e-3)
    assert np.max(np.abs(com.x - ref.x)) <= 1e-9 * scale
    np.testing.assert_array_equal(com.switch_counts, ref.switch_counts)


@requires_compiled
def test_fluid_float32_tracks_float64_within_tolerance():
    p, x0 = _fluid_case()
    f64 = simulate_fluid_batch_compiled(p, x0, 0.0, t_max=20.0,
                                        mode="nonlinear")
    f32 = simulate_fluid_batch_compiled(p, x0, 0.0, t_max=20.0,
                                        mode="nonlinear",
                                        precision="float32")
    assert f32.x.dtype == np.float32
    assert f32.y.dtype == np.float32
    assert f32.t.dtype == np.float64  # the grid stays exact
    # per-sample error stays ~1e-7 of the natural scales; allow 1e-4
    scale = max(p.q0, float(np.max(np.abs(f64.x))))
    assert np.max(np.abs(f32.x.astype(np.float64) - f64.x)) <= 1e-4 * scale
    # event *times* remain float64 and close to the double-precision ones
    for evs64, evs32 in zip(f64.events, f32.events):
        assert len(evs64) == len(evs32)


def test_fluid_method_seam_accepts_compiled_and_auto():
    from repro.fluid.batch import simulate_fluid_batch

    p, x0 = _fluid_case()
    ref = simulate_fluid_batch(p, x0, 0.0, t_max=5.0, mode="nonlinear",
                               fluid_method="numpy")
    for method in ("compiled", "auto"):
        out = simulate_fluid_batch(p, x0, 0.0, t_max=5.0, mode="nonlinear",
                                   fluid_method=method)
        np.testing.assert_array_equal(out.x, ref.x)
        np.testing.assert_array_equal(out.y, ref.y)
    with pytest.raises(ValueError):
        simulate_fluid_batch(p, x0, 0.0, t_max=5.0, fluid_method="???")
    with pytest.raises(ValueError):
        simulate_fluid_batch(p, x0, 0.0, t_max=5.0, precision="float16")


def test_fluid_numpy_fallback_casts_float32():
    from repro.fluid.batch import simulate_fluid_batch

    p, x0 = _fluid_case()
    out = simulate_fluid_batch(p, x0, 0.0, t_max=5.0, mode="nonlinear",
                               fluid_method="numpy", precision="float32")
    assert out.x.dtype == np.float32


# -- fluid kernel: C against the scalar spec body ----------------------------
#
# ``_scalar.fluid_rows`` integrates one row at a time; the C kernel
# advances every row one grid step before the next.  Rows are
# independent, so every output buffer must match byte for byte.  The
# output buffers start as sentinels (NaN / -1), so a sample or slot that
# one tier writes and the other skips shows up as a difference.


def _fluid_rows_outputs(fn, p, x0, y0, *, t_max, mode, max_switches,
                        real=np.float64):
    from repro.fluid import batch

    x0 = np.ascontiguousarray(x0, dtype=real)
    y0 = np.ascontiguousarray(y0, dtype=real)
    m = x0.shape[0]
    dt = batch.default_time_step(p)
    t_grid = np.linspace(0.0, t_max, max(1, int(np.ceil(t_max / dt))) + 1)
    n = t_grid.shape[0]
    ev_cap = 8 * (max_switches + 8)
    out = dict(
        xs=np.full(n * m, np.nan, dtype=real),
        ys=np.full(n * m, np.nan, dtype=real),
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
    fn(x0, y0, t_grid, p.a, p.b, p.capacity, p.k, p.q0,
       p.buffer_size - p.q0, -p.q0,
       1 if mode == "linearized" else 0, 1 if mode == "physical" else 0,
       max_switches, batch._CONVERGENCE_RTOL, t_max,
       out["xs"], out["ys"], out["reason"], out["switches"], out["t_end"],
       out["x_end"], out["y_end"], ev_cap, out["n_events"], out["ev_t"],
       out["ev_kind"], out["ev_x"], out["ev_y"], out["out_i"])
    return out


def _assert_same_bytes(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


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
    want = _fluid_rows_outputs(_scalar.fluid_rows, p, x0, y0, mode=mode, **kw)
    got = _fluid_rows_outputs(get_backend().fluid_rows, p, x0, y0,
                              mode=mode, **kw)
    _assert_same_bytes(got, want)
    if mode == "nonlinear":
        # the bundle covers every way a row ends
        assert want["reason"].tolist() == [1, 1, 3, 2, 3]
        assert want["t_end"][0] == 0.0 and want["switches"][0] == 0
        assert 0.0 < want["t_end"][1] < kw["t_max"]
        # rows that died early repeat their end state to the last sample
        n = want["out_i"][0]
        xs = want["xs"].reshape(-1, x0.size)
        assert n == xs.shape[0] - 1  # row 3 ran to t_max
        assert np.all(xs[:, 0] == x0[0])
        assert np.all(xs[-5:, 2] == want["x_end"][2])


@requires_compiled
def test_fluid_c_kernel_equals_scalar_spec_in_physical_mode():
    p, x0, y0, kw = _physical_bundle()
    want = _fluid_rows_outputs(_scalar.fluid_rows, p, x0, y0, **kw)
    got = _fluid_rows_outputs(get_backend().fluid_rows, p, x0, y0, **kw)
    _assert_same_bytes(got, want)
    cap = 8 * (kw["max_switches"] + 8)
    kinds = want["ev_kind"][:want["n_events"][0]].tolist()
    assert kinds[0] == 3 and want["ev_t"][0] == 0.0  # pinned empty at t=0
    assert 2 in kinds  # later pinned at the full buffer
    assert want["ev_kind"][cap:cap + 1].tolist() == [-1]  # row 1: no events


@requires_compiled
@pytest.mark.parametrize("rows", [slice(0, 1), slice(3, 4), slice(0, 0)],
                         ids=["m1-converged", "m1-running", "m0"])
def test_fluid_c_kernel_equals_scalar_spec_on_tiny_bundles(rows):
    p, x0, y0, kw = _mixed_bundle()
    want = _fluid_rows_outputs(_scalar.fluid_rows, p, x0[rows], y0[rows],
                               mode="nonlinear", **kw)
    got = _fluid_rows_outputs(get_backend().fluid_rows, p, x0[rows],
                              y0[rows], mode="nonlinear", **kw)
    _assert_same_bytes(got, want)
    assert want["out_i"][0] >= 1 and want["out_i"][1] == 0


@requires_compiled
def test_fluid_c_kernel_float32_is_deterministic():
    p, x0, y0, kw = _mixed_bundle()
    runs = [_fluid_rows_outputs(get_backend().fluid_rows, p, x0, y0,
                                mode="nonlinear", real=np.float32, **kw)
            for _ in range(2)]
    _assert_same_bytes(runs[1], runs[0])
    assert runs[0]["xs"].dtype == np.float32
    assert not np.isnan(runs[0]["xs"]).any()


@requires_compiled
@pytest.mark.parametrize("sfx", ["f64", "f32"])
@pytest.mark.parametrize("m", [2**57, 2**62], ids=["malloc-fails", "size-overflows"])
def test_fluid_c_kernel_reports_allocation_failure(sfx, m):
    # Neither size can be allocated, so the kernel must return before it
    # touches a single (here NULL) array argument.
    be = get_backend()
    null = be._ffi.NULL
    out_i = np.zeros(2, dtype=np.int64)
    getattr(be._lib, f"k_fluid_{sfx}")(
        m, 10, null, null, null, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 0, 0,
        4, 1e-4, 1.0, null, null, null, null, null, null, null, 8, null,
        null, null, null, null, be._i(out_i))
    assert out_i.tolist() == [-1, 0]


def test_fluid_wrapper_raises_memory_error_on_allocation_failure():
    class _NoMemory(KernelBackend):
        compiled = True

        def fluid_rows(self, *args):
            args[-1][0] = -1

    p, x0 = _fluid_case()
    with pytest.raises(MemoryError, match="6 rows"):
        simulate_fluid_batch_compiled(p, x0, 0.0, t_max=1.0,
                                      backend=_NoMemory())
