"""The repo benchmark: one seeded workload, checked, with metrics as JSON.

    python3 perfbench/run.py --workload paper_repro|fast_engines|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  An untimed preparation step builds
the C kernels and byte-compiles the sources.  Set-up is then timed
``SETUP_SAMPLES`` times in fresh processes (median reported as
``setup_s``), and the workload's fixed pass runs ``round(S / nominal)``
times (at least once); ``wall_s`` is the median pass.  Both are
rescaled to a reference machine speed sampled during and around each
timed region (``common.SpeedSampler``); the measured times go to
standard error.

With ``--trace 1`` one plain pass runs (the base of the tracing
overhead), then one pass with the per-layer wrappers installed, and the
last line carries the per-layer metrics instead of the end-to-end ones.
The last line of standard output is always the JSON result; progress
and a readable summary go to standard error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, report  # noqa: E402
from perfbench.common import (GOLDEN_DIR, ROOT, CheckoutError,  # noqa: E402
                              child_env, enter_checkout, median, python_cmd,
                              require_checkout, run_json_child)

SETUP_SAMPLES = 3


def prepare() -> float:
    """Byte-compile the sources and build the C kernels (untimed)."""
    subprocess.run(python_cmd("-m", "compileall", "-q", "src", "perfbench"),
                   cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return run_json_child([str(Path(__file__).parent / "setup_probe.py"),
                           "build"])["kernel_build_s"]


def passes_for(seconds: int, nominal_pass_s: float) -> int:
    return max(1, round(seconds / nominal_pass_s))


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    from perfbench.workloads import WORKLOADS, PassResult

    build_s = prepare()
    # Whole-run checks, one unit each: the checkers' self-test, the
    # workload's process lifecycle and (traced) the ledger's own checks.
    whole = PassResult()
    whole.unit(checks.self_test(GOLDEN_DIR))
    workload = WORKLOADS[workload_name]()
    passes = []
    try:
        setups = workload.measure_setup(SETUP_SAMPLES)
        log(f"setup: {[round(s['raw_setup_s'], 4) for s in setups]}, "
            f"rescaled {[round(s['setup_s'], 4) for s in setups]}")
        workload.start(seed)
        n_passes = 1 if trace else passes_for(seconds, workload.nominal_pass_s)
        for index in range(n_passes):
            passes.append(workload.run_pass(index))
            log(f"pass {index}: {passes[-1].wall_s:.3f}s, rescaled "
                f"{passes[-1].ref_s:.3f}s, "
                f"{passes[-1].failed}/{passes[-1].attempted} failed")
        traced = report.traced_pass(workload, n_passes) if trace else None
    finally:
        whole.unit(workload.stop())
    if traced is not None:
        log(f"traced pass: {traced.result.wall_s:.3f}s")
        whole.unit(traced.problems)
        passes.append(traced.result)
    attempted = whole.attempted + sum(p.attempted for p in passes)
    problems = whole.problems + [q for p in passes for q in p.problems]
    if traced is None:
        metrics = report.end_to_end(workload, setups, passes, attempted,
                                    len(problems))
    else:
        metrics = report.per_layer(workload, setups, build_s, passes[0],
                                   traced)
    log(f"measured medians: setup "
        f"{median(s['raw_setup_s'] for s in setups):.4f}s, pass "
        f"{median(p.wall_s for p in passes):.3f}s")
    for problem in problems[:20]:
        log(f"FAILED: {problem}")
    report.summary(metrics)
    return {"correct": not problems, "attempted": attempted,
            "failed": len(problems), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_checkout()
    except CheckoutError as exc:
        log(f"perfbench: {exc}")
        return 2
    enter_checkout()
    started = time.perf_counter()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 — no result line on a broken run
        traceback.print_exc()
        return 1
    log(f"run took {time.perf_counter() - started:.1f}s")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
