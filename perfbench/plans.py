"""Seeded inputs of the three workloads.

The ``--seed`` argument is the only source of variation: it fixes the
experiment order of ``paper_repro``, the scenario seeds and fluid orbit
starts of ``fast_engines`` and the request plan of ``serve_mix``.  Plans
are plain data, built without importing ``repro``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

#: Fast-engine experiment units: the tiers users pick for speed.
FAST_EXPERIMENTS = (
    ("v2", {"engine": "compiled", "duration": 1.6}),
    ("v5", {"engine": "compiled"}),
    ("m1", {"engine": "compiled"}),
)
#: Both fast packet engines; their scenario records must be identical.
SWEEP_ENGINES = ("compiled", "batched")
SWEEP_SEEDS = 16
#: Fluid bundles: orbits per case, horizon, and the rows re-run on numpy.
FLUID_CASES = ("CASE1", "CASE2", "CASE3", "CASE4")
FLUID_ORBITS = 1024
FLUID_T_MAX = 40.0
FLUID_CHECK_ROWS = (0, 341, 682, 1023)

#: serve_mix request mix and shape.
SERVE_CONNECTIONS = 2
SERVE_FRESH = 0.25
SERVE_SWEEP = 0.25  # the remaining half are exact repeats
SWEEP_WINDOW = 12
SWEEP_PICK = 6
SERVE_ENGINE = "compiled"


def paper_order(seed: int, ids) -> list[str]:
    """Every registered experiment id once, in a seed-permuted order."""
    return random.Random(f"paper:{seed}").sample(sorted(ids), len(ids))


@dataclass(frozen=True)
class FastPlan:
    scenario_seeds: tuple[int, ...]
    #: case name -> (x0, y0) orbit starts, in units of q0 and capacity
    orbit_starts: dict


def fast_plan(seed: int) -> FastPlan:
    rng = random.Random(f"fast:{seed}")
    seeds = tuple(sorted(rng.sample(range(100_000), SWEEP_SEEDS)))
    gen = np.random.default_rng(rng.randrange(2**32))
    starts = {}
    for name in FLUID_CASES:
        x = gen.uniform(-0.5, 0.4, FLUID_ORBITS)
        y = gen.uniform(-0.1, 0.1, FLUID_ORBITS)
        starts[name] = (x, y)
    return FastPlan(scenario_seeds=seeds, orbit_starts=starts)


@dataclass(frozen=True)
class Request:
    kind: str  # "fresh", "sweep" or "hit"
    payload: dict


def _block(seed: int, pass_index: int, conn: int) -> int:
    """A seed range no other (pass, connection) of this run touches.

    Block 0 is left free for the warm-up job's seed.
    """
    if not 0 <= pass_index < 32 or not 0 <= conn < SERVE_CONNECTIONS:
        raise ValueError("pass index or connection out of range")
    return ((seed % 10_000) * 64 + pass_index * SERVE_CONNECTIONS + conn
            + 1) * 10_000


def serve_plan(seed: int, pass_index: int, conn: int, n: int,
               presets) -> list[Request]:
    """One connection's closed-loop request list for one pass.

    ``sweep``: six seeds from a window of twelve that slides by one per
    sweep of that preset, so each sweep has a new key but mostly cached
    points.  ``fresh``: a scenario job on a seed no earlier fresh job of
    that preset used, taken at or after the window's start, so most
    fresh points also turn up in sweeps and the cached sweep records
    can be held against the direct ones.  ``hit``: an exact repeat of an
    earlier request of this connection in this pass.
    """
    if n > 4_000:
        raise ValueError("a pass sends at most 4000 requests per connection")
    presets = sorted(presets)
    rng = random.Random(f"serve:{seed}:{pass_index}:{conn}")
    block = _block(seed, pass_index, conn)
    window = {p: block + 100 * i for i, p in enumerate(presets)}
    next_fresh = dict(window)
    used: set[tuple] = set()
    history: list[dict] = []
    plan: list[Request] = []
    for _ in range(n):
        r = rng.random()
        if r >= SERVE_FRESH + SERVE_SWEEP and history:
            plan.append(Request("hit", rng.choice(history)))
            continue
        preset = rng.choice(presets)
        if r < SERVE_FRESH or r >= SERVE_FRESH + SERVE_SWEEP:
            seed = max(next_fresh[preset], window[preset])
            next_fresh[preset] = seed + 1
            payload = {"kind": "scenario", "preset": preset,
                       "seed": seed, "engine": SERVE_ENGINE}
            kind = "fresh"
        else:
            while True:
                start = window[preset]
                window[preset] += 1
                seeds = tuple(sorted(rng.sample(
                    range(start, start + SWEEP_WINDOW), SWEEP_PICK)))
                if (preset, seeds) not in used:
                    break
            used.add((preset, seeds))
            payload = {"kind": "sweep", "preset": preset,
                       "seeds": list(seeds), "engine": SERVE_ENGINE}
            kind = "sweep"
        history.append(payload)
        plan.append(Request(kind, payload))
    return plan
