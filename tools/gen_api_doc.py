"""Generate docs/API.md — the public-API index — by introspection.

Walks every ``repro`` subpackage, lists the names each ``__init__``
exports, and pulls the first docstring line of each.  Run from the repo
root::

    python tools/gen_api_doc.py

The output is deterministic, so the checked-in ``docs/API.md`` can be
diffed in CI against a fresh generation (see
``tests/integration/test_api_doc.py``).
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

PACKAGES = [
    "repro",
    "repro.core",
    "repro.fluid",
    "repro.simulation",
    "repro.topology",
    "repro.workloads",
    "repro.baselines",
    "repro.analysis",
    "repro.runner",
    "repro.serve",
    "repro.scenarios",
    "repro.obs",
    "repro.lint",
    "repro.viz",
    "repro.experiments",
]


def first_doc_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    line = doc.strip().splitlines()[0].strip()
    return line.rstrip(".")


def describe(package_name: str) -> list[str]:
    module = importlib.import_module(package_name)
    lines = [f"## `{package_name}`", ""]
    pkg_doc = first_doc_line(module)
    if pkg_doc:
        lines += [pkg_doc + ".", ""]
    exported = getattr(module, "__all__", None)
    if not exported:
        return lines
    lines += ["| name | kind | summary |", "|---|---|---|"]
    for name in exported:
        obj = getattr(module, name, None)
        if obj is None:
            kind = "value"
            summary = ""
        elif inspect.isclass(obj):
            kind = "class"
            summary = first_doc_line(obj)
        elif inspect.isfunction(obj):
            kind = "function"
            summary = first_doc_line(obj)
        elif inspect.ismodule(obj):
            continue
        else:
            kind = type(obj).__name__
            summary = ""
        summary = summary.replace("|", "\\|")
        lines.append(f"| `{name}` | {kind} | {summary} |")
    lines.append("")
    return lines


def generate() -> str:
    header = [
        "# API index",
        "",
        "Generated by `python tools/gen_api_doc.py` — do not edit by hand.",
        "One row per public name (each package's `__all__`); summaries are",
        "the first docstring lines.  See `docs/THEORY.md` for the",
        "equation-to-code map and `DESIGN.md` for the system inventory.",
        "",
    ]
    body: list[str] = []
    for package in PACKAGES:
        body += describe(package)
    return "\n".join(header + body).rstrip() + "\n"


def main() -> None:
    out = Path(__file__).resolve().parents[1] / "docs" / "API.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text(generate())
    print(f"wrote {out} ({len(out.read_text().splitlines())} lines)")


if __name__ == "__main__":
    main()
