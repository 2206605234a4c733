"""Time one cold set-up of a client-side workload, or the kernel build.

    python3 perfbench/setup_probe.py paper_repro|fast_engines
    python3 perfbench/setup_probe.py build

Prints one JSON line with the split times.  The caller times the whole
process from spawn to that line, so interpreter start-up counts too.
Only the standard library is imported before the timed imports.  The
build is timed as the first ``get_backend()`` of a fresh process: it
compiles the C kernels when the checkout has no build yet and only
loads them otherwise.
"""

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import enter_checkout  # noqa: E402

IMPORTS = {
    "paper_repro": ("repro.experiments", "repro.runner"),
    "fast_engines": ("repro.experiments", "repro.runner", "repro.scenarios",
                     "repro.fluid.batch"),
}


def main(what: str) -> dict:
    enter_checkout()
    if what == "build":
        from repro.kernels import get_backend

        t0 = time.perf_counter()
        backend = get_backend()  # the first use in a checkout compiles
        return {"kernel_build_s": time.perf_counter() - t0,
                "backend": backend.name}
    t0 = time.perf_counter()
    for module in IMPORTS[what]:
        importlib.import_module(module)
    t1 = time.perf_counter()
    from repro.kernels import get_backend

    backend = get_backend()
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "kernel_load_s": t2 - t1,
            "backend": backend.name}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])), flush=True)
