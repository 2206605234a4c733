"""Paths, environment and small statistics shared by the benchmark.

Every file the benchmark writes lives under ``.bench_build/`` at the
root of the checkout (gitignored): the C kernel build, temporary
files (``TMPDIR``) and the servers' cache directories.  Every child process it starts gets the
same environment, with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "series_out"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build"
KERNEL_BUILD_DIR = WORK / "kernels"
TMP = WORK / "tmp"
#: A tail percentile needs this many samples beyond its rank.
MIN_BEYOND = 10
#: Seconds the calibration loop takes at the reference speed that the
#: reported times are rescaled to (about its median on a 2-vCPU x86 VM).
CALIBRATION_REF_S = 0.0009
CALIBRATION_INTERVAL_S = 0.05
CALIBRATION_BURST = 3


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in is not a checkout of the repo."""


def require_checkout() -> None:
    """Fail unless the package sources and golden series are present."""
    missing = [str(p.relative_to(ROOT)) for p in
               (SRC / "repro" / "__init__.py", GOLDEN_DIR) if not p.exists()]
    if missing:
        raise CheckoutError(
            f"not a repro checkout (missing {', '.join(missing)}) "
            f"under {ROOT}")


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["REPRO_KERNEL_BUILD_DIR"] = str(KERNEL_BUILD_DIR)
    env["TMPDIR"] = str(TMP)
    env.pop("REPRO_KERNEL_BACKEND", None)
    return env


def enter_checkout() -> None:
    """Make this process import ``repro`` from the checkout's ``src``."""
    os.environ["REPRO_KERNEL_BUILD_DIR"] = str(KERNEL_BUILD_DIR)
    os.environ["TMPDIR"] = str(TMP)
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    tempfile.tempdir = None  # re-read TMPDIR
    TMP.mkdir(parents=True, exist_ok=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


def run_json_child(args: list[str]) -> dict:
    """Run a child Python process that prints one JSON object last."""
    proc = subprocess.run(python_cmd(*args), env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q`` quantile (0 < q < 1) of ``values``, nearest-rank.

    Refuses (``ValueError``) when fewer than ``MIN_BEYOND`` samples lie
    beyond the requested rank: such a tail percentile is one or two
    samples wide and says nothing reproducible.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has only {n - rank} beyond it "
            f"(need {MIN_BEYOND})")
    return float(ordered[rank - 1])


def _calibration_loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(4_000):
        table[i % 1000] = i
        total += table.get((i * 7) % 1000, 0)
    return total


class SpeedSampler:
    """The machine's speed, sampled on the timed thread while it works.

    Shared VMs change speed by a quarter to a third (quartile spread)
    over seconds to minutes, and every workload slows with them.  While
    a timed region runs, a SIGALRM every ``CALIBRATION_INTERVAL_S``
    runs a fixed pure-Python loop of about 1 ms on the same thread and
    records its time.  Over 57 runs of a 2 s reference-engine
    simulation, the run time and its loop samples' mean correlated
    0.97; the runs spread 28% and the rescaled runs 5.8% (quartiles
    over the median).  The loop costs about 2% of the region, which
    :meth:`region` leaves out of the measured time.

    The handler runs only between bytecodes, so a long C call (a
    compiled fluid bundle) yields one sample at its end.  Each region
    therefore also takes ``CALIBRATION_BURST`` samples just before and
    just after it, outside its timing.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _calibration_loop()
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def region(self, out):
        """Time the block into ``out.wall_s``, ``ref_s`` and ``loop_s``.

        ``wall_s`` gets the measured seconds without the samples taken
        inside the block (``loop_s`` gets those), and ``ref_s`` the same
        seconds at the speed where the loop takes ``CALIBRATION_REF_S``.
        """
        first = len(self.samples)
        for _ in range(CALIBRATION_BURST):
            self._sample()
        inside = len(self.samples)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S,
                         CALIBRATION_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            taken = sum(self.samples[inside:])
            for _ in range(CALIBRATION_BURST):
                self._sample()
            speed = statistics.fmean(self.samples[first:])
            out.wall_s += elapsed - taken
            out.loop_s += taken
            out.ref_s += (elapsed - taken) * CALIBRATION_REF_S / speed


#: The one sampler of a benchmark process.
SPEED = SpeedSampler()
