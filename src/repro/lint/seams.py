"""``engine-seam``: engine dispatch sites must stay total.

Several engines reproduce the same dynamics behind two selector seams:
``engine=`` (packet: the registry literal ``PACKET_ENGINES`` in
``repro/simulation/network.py``) and ``fluid_method=`` (fluid).  Code
that branches on a seam variable and silently routes an unknown name
down a default path is how a newly registered engine ends up "working"
while quietly running the wrong implementation.

Two rules, per seam variable name:

* **unknown literal** — every string literal compared against, assigned
  to, iterated for, or passed as a seam keyword must be a registered
  engine name (catches typos like ``"referense"`` at analysis time);
* **non-exhaustive dispatch** — an ``if``/``elif`` equality chain on a
  seam variable that names two or more engines must either cover the
  whole registry or end in an ``else`` (the explicit fallthrough to the
  selector / the remaining engine).

The packet registry is read from the AST of ``network.py`` so the lint
can never drift from the code; the fluid seam is a closed set declared
here (guarded by the lint test suite against ``repro.fluid.batch``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Finding, LintProject, SourceFile, register
from .vocab import _literal_strings

__all__ = ["check_engine_seam", "seam_registries"]

#: Fallback when network.py is unavailable (synthetic test trees).
_PACKET_ENGINES_DEFAULT = frozenset({"reference", "batched", "compiled"})

#: simulate_fluid_batch's stepping-loop selector.
_FLUID_METHODS = frozenset({"auto", "numpy"})

#: The job-server request selector (``repro.serve``): every submitted
#: job names one of these kinds, and server-side dispatch on a
#: ``job_kind`` variable must stay total as kinds are added.
_JOB_KINDS = frozenset({"experiment", "scenario", "sweep"})

#: Seam keyword names that are safe to validate as *call keywords* too.
#: ``engine=`` is excluded there: obs records reuse the keyword for
#: engine *tags* ("packet.reference"), a different vocabulary.
_KEYWORD_SEAMS = ("fluid_method", "job_kind")

#: Engine selectors the obs layer tags records with, per family.  The
#: fluid family includes ``compiled`` (the CLI-level name for the
#: compiled-kernel batch integrator).
_TAG_FAMILIES = ("packet", "fluid")
_FLUID_TAG_ENGINES = frozenset({"reference", "batch", "compiled"})


def seam_registries(project: LintProject) -> dict[str, frozenset[str]]:
    """Seam variable name -> registered engine names."""
    packet = _PACKET_ENGINES_DEFAULT
    network = project.repro_source("simulation/network.py")
    if network is not None:
        extracted = _literal_strings(network.tree, "PACKET_ENGINES")
        if extracted:
            packet = extracted
    return {
        "engine": packet,
        "fluid_method": _FLUID_METHODS,
        "job_kind": _JOB_KINDS,
    }


def accepted_literals(registries: dict[str, frozenset[str]]
                      ) -> dict[str, frozenset[str]]:
    """Seam name -> literals legal at *any* site naming that seam.

    ``engine`` additionally accepts the obs tag vocabulary: the empty
    sentinel plus qualified ``family.engine`` tags, validated against
    the per-family registries so a typo in a tag is still caught.
    """
    out = dict(registries)
    tags = {""}
    for family in _TAG_FAMILIES:
        engines = (_FLUID_TAG_ENGINES if family == "fluid"
                   else registries["engine"])
        tags.update(f"{family}.{engine}" for engine in engines)
    out["engine"] = registries["engine"] | tags
    return out


def _seam_name(node: ast.expr) -> str | None:
    """The seam variable name a Name/Attribute expression refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _string_literals(node: ast.expr) -> list[tuple[str, ast.expr]] | None:
    """All string constants in a literal or literal container, or None."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            return [(node.value, node)]
        return None
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out: list[tuple[str, ast.expr]] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append((elt.value, elt))
        return out or None
    if isinstance(node, ast.IfExp):
        arms = (_string_literals(node.body) or []) + \
               (_string_literals(node.orelse) or [])
        return arms or None
    return None


def _unknown(file: SourceFile, seam: str, registry: frozenset[str],
             literals: list[tuple[str, ast.expr]]) -> Iterator[Finding]:
    for value, node in literals:
        if value not in registry:
            yield Finding(
                check="engine-seam", path=file.rel, line=node.lineno,
                col=node.col_offset + 1,
                message=(f"{value!r} is not a registered {seam} name; "
                         f"registered: {', '.join(sorted(registry))}"),
            )


def _compare_site(node: ast.Compare,
                  seams: dict[str, frozenset[str]]
                  ) -> tuple[str, list[tuple[str, ast.expr]]] | None:
    """(seam, literals) for a comparison involving a seam variable."""
    if len(node.ops) != 1:
        return None
    left, right = node.left, node.comparators[0]
    for var_side, lit_side in ((left, right), (right, left)):
        seam = _seam_name(var_side)
        if seam in seams:
            literals = _string_literals(lit_side)
            if literals is not None:
                return seam, literals
    return None


def _dispatch_chain(node: ast.If, seams: dict[str, frozenset[str]]
                    ) -> tuple[str, set[str], bool] | None:
    """Walk an if/elif chain of seam equality tests.

    Returns ``(seam, covered_names, has_else)`` when every test in the
    chain is an ``==`` comparison of the same seam variable against a
    string literal; None otherwise (mixed conditions are not dispatch).
    """
    seam: str | None = None
    covered: set[str] = set()
    current: ast.If = node
    while True:
        test = current.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)):
            return None
        site = _compare_site(test, seams)
        if site is None:
            return None
        test_seam, literals = site
        if seam is None:
            seam = test_seam
        elif seam != test_seam:
            return None
        covered.update(value for value, _ in literals)
        orelse = current.orelse
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            current = orelse[0]
            continue
        return seam, covered, bool(orelse)


def _seam_file(file: SourceFile,
               seams: dict[str, frozenset[str]],
               accepted: dict[str, frozenset[str]]) -> Iterator[Finding]:
    chain_members: set[int] = set()
    for node in ast.walk(file.tree):
        if isinstance(node, ast.If) and id(node) not in chain_members:
            chain = _dispatch_chain(node, seams)
            if chain is not None:
                # Mark nested elif nodes so they are not re-walked as
                # fresh (shorter) chains.
                current = node
                while current.orelse and isinstance(current.orelse[0], ast.If) \
                        and len(current.orelse) == 1:
                    current = current.orelse[0]
                    chain_members.add(id(current))
                seam, covered, has_else = chain
                registry = seams[seam]
                if len(covered) >= 2 and not has_else \
                        and not registry <= covered:
                    missing = ", ".join(sorted(registry - covered))
                    yield Finding(
                        check="engine-seam", path=file.rel,
                        line=node.lineno, col=node.col_offset + 1,
                        message=(f"{seam} dispatch covers "
                                 f"{', '.join(sorted(covered))} but not "
                                 f"{missing} and has no else fallthrough; "
                                 "handle every registered engine or fall "
                                 "through explicitly"),
                    )
        if isinstance(node, ast.Compare):
            site = _compare_site(node, seams)
            if site is not None:
                seam, literals = site
                yield from _unknown(file, seam, accepted[seam], literals)
        elif isinstance(node, ast.For):
            seam = _seam_name(node.target)
            if seam in seams:
                literals = _string_literals(node.iter)
                if literals is not None:
                    yield from _unknown(file, seam, accepted[seam], literals)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                seam = _seam_name(target)
                if seam in seams:
                    literals = _string_literals(node.value)
                    if literals is not None:
                        yield from _unknown(file, seam, accepted[seam],
                                            literals)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            seam = _seam_name(node.target)
            if seam in seams:
                literals = _string_literals(node.value)
                if literals is not None:
                    yield from _unknown(file, seam, accepted[seam], literals)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            spec = node.args
            positional = spec.posonlyargs + spec.args
            defaults: list[tuple[ast.arg, ast.expr | None]] = list(zip(
                positional[len(positional) - len(spec.defaults):],
                spec.defaults))
            defaults += list(zip(spec.kwonlyargs, spec.kw_defaults))
            for arg, default in defaults:
                if default is not None and arg.arg in seams:
                    literals = _string_literals(default)
                    if literals is not None:
                        yield from _unknown(file, arg.arg, accepted[arg.arg],
                                            literals)
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg in _KEYWORD_SEAMS:
                    literals = _string_literals(keyword.value)
                    if literals is not None:
                        yield from _unknown(file, keyword.arg,
                                            accepted[keyword.arg], literals)


@register("engine-seam")
def check_engine_seam(project: LintProject) -> Iterator[Finding]:
    """Validate engine-name literals and dispatch totality."""
    seams = seam_registries(project)
    accepted = accepted_literals(seams)
    for file in project.files:
        yield from _seam_file(file, seams, accepted)
