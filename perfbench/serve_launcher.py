"""Run ``repro serve`` with the per-layer ledger installed in the server.

    PERFBENCH_LEDGER_OUT=<file> python3 perfbench/serve_launcher.py serve ...

Arguments are passed unchanged to the ``repro`` CLI.  SIGUSR1 clears the
ledger (so a warm-up job can be left out); when the server has drained
and stopped, the ledger and each job's ``execute_job`` wall time are
written to ``$PERFBENCH_LEDGER_OUT`` as JSON.
"""

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers  # noqa: E402
from perfbench.common import enter_checkout  # noqa: E402
from perfbench.ledger import Ledger  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(os.environ["PERFBENCH_LEDGER_OUT"])
    enter_checkout()
    layers.import_layers()
    ledger = Ledger()
    execute_walls: dict[str, float] = {}
    layers.install_all(ledger, execute_walls)

    def reset(signum, frame) -> None:
        ledger.reset()
        execute_walls.clear()

    signal.signal(signal.SIGUSR1, reset)
    from repro.cli import main as cli_main

    rc = cli_main(argv)
    out.write_text(json.dumps({"ledger": ledger.snapshot(),
                               "execute_walls": execute_walls}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
