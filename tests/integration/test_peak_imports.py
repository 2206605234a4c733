"""The peak finder is in-repo: running the experiments that find peaks
(v2 and v6 through ``compare_series``, d1 through ``classify``) never
imports ``scipy.signal`` or the ``scipy.stats`` it pulls in."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import json, sys
import repro.experiments
from repro.runner import run_experiments
run_experiments(["v2", "v6", "d1"], workers=0, cache=None)
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[:2] in (["scipy", "signal"],
                                                ["scipy", "stats"]))))
"""


def test_peak_finding_experiments_leave_scipy_signal_unloaded():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                         text=True, check=True, env=env, timeout=300)
    assert json.loads(out.stdout.splitlines()[-1]) == []
