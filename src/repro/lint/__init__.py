"""Repo-specific static analysis enforcing the invariants the test
suite can only sample: determinism (RNG/wall-clock discipline),
kernel-tier parity, obs-vocabulary registration, and engine-seam
totality.

Run it as ``repro lint [paths]`` or programmatically::

    from repro.lint import run_lint
    findings = run_lint([Path("src/repro")])

Checks are stdlib-only AST analyses — the tree never has to be
importable (no numpy needed), which is what lets the linter gate
CI before any heavyweight dependency is installed.
"""

from __future__ import annotations

from .core import (
    CHECKS,
    Finding,
    LintError,
    LintProject,
    SourceFile,
    Suppression,
    check_names,
    collect_files,
    register,
    run_lint,
)

# Importing the check modules populates the CHECKS registry.
from . import determinism as _determinism  # noqa: F401
from . import parity as _parity  # noqa: F401
from . import seams as _seams  # noqa: F401
from . import vocab as _vocab  # noqa: F401
from .report import render_json, render_text, worst_severity

__all__ = [
    "CHECKS",
    "Finding",
    "LintError",
    "LintProject",
    "SourceFile",
    "Suppression",
    "check_names",
    "collect_files",
    "register",
    "render_json",
    "render_text",
    "run_lint",
    "worst_severity",
]
