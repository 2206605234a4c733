"""Alias of ``python -m repro experiments``: ``python -m repro.experiments``.

Usage::

    python -m repro.experiments                # all experiments, inline
    python -m repro.experiments fig6 t1        # a subset
    python -m repro.experiments --csv out      # also dump series CSVs
    python -m repro.experiments --workers 4 --cache-dir .cache

The arguments are parsed by :mod:`repro.cli`, and the experiments run
through :func:`repro.runner.run_experiments`.
"""

from __future__ import annotations

import sys


def main(argv: list[str] | None = None) -> int:
    from ..cli import main as cli_main

    return cli_main(["experiments", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
