"""``kernel-parity``: the two kernel tiers must agree *statically*.

``repro.kernels`` keeps one scalar reference body per kernel
(``_scalar.py``), re-exported by the numpy tier (``KernelBackend``) and
re-exposed by the cffi tier as a python wrapper over a C translation
(``_cbuild.py``).  Tier drift — a renamed argument, a reordered
parameter, a dtype change on one side only — otherwise surfaces as a
conformance-suite divergence after minutes of simulation.  This check
makes drift a lint error instead:

* the ``KernelBackend`` table and the cffi wrapper methods must each
  cover exactly the scalar kernel set, under the same names;
* every cffi wrapper's python signature must equal the scalar
  signature, name for name, position for position;
* every ``lib.k_*`` call must match a prototype in ``_cbuild.py``'s
  ``CDEF`` block in arity; where the wrapper's pointer casts
  (``self._d`` → ``double *`` …) and ``float()``/``int()`` coercions
  make the expected C type or argument name derivable, those must match
  the prototype too — argument *dtype* drift between python and C is a
  lint error.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .core import Finding, LintProject, SourceFile, register

__all__ = ["check_kernel_parity"]

#: cffi pointer-cast helper -> canonical C parameter type.
_CAST_TYPES = {
    "_d": "double*",
    "_f": "float*",
    "_i": "int64_t*",
    "_u8": "uint8_t*",
    "_i8": "int8_t*",
}

#: python scalar coercion -> canonical C parameter type.
_COERCE_TYPES = {"float": "double", "int": "int64_t"}

def _finding(file: SourceFile, node: ast.AST, message: str) -> Finding:
    return Finding(
        check="kernel-parity", path=file.rel,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
    )


def _arg_names(fn: ast.FunctionDef) -> list[str]:
    spec = fn.args
    return [a.arg for a in spec.posonlyargs + spec.args + spec.kwonlyargs]


def _scalar_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def _class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _scalar_attr(node: ast.expr) -> str | None:
    """The ``X`` in a ``_scalar.X`` reference."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "_scalar":
        return node.attr
    return None


def _base_table(cls: ast.ClassDef) -> dict[str, tuple[str, ast.AST]]:
    """``name -> (scalar_name, node)`` for ``staticmethod(_scalar.X)``."""
    out: dict[str, tuple[str, ast.AST]] = {}
    for node in cls.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Name) \
                and node.value.func.id == "staticmethod" \
                and len(node.value.args) == 1:
            scalar_name = _scalar_attr(node.value.args[0])
            if scalar_name is not None:
                out[node.targets[0].id] = (scalar_name, node)
    return out


# -- CDEF prototype parsing ------------------------------------------------

_PROTO_RE = re.compile(
    r"(?:^|;)\s*[A-Za-z_][\w]*\s*\*?\s*(k_\w+)\s*\(([^)]*)\)")


def _parse_cdef(text: str) -> dict[str, list[tuple[str, str]]]:
    """``k_name -> [(canonical_ctype, param_name), ...]`` from CDEF."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"//[^\n]*", " ", text)
    flat = " ".join(text.split())
    out: dict[str, list[tuple[str, str]]] = {}
    for match in _PROTO_RE.finditer(flat):
        name, params_src = match.group(1), match.group(2).strip()
        params: list[tuple[str, str]] = []
        if params_src and params_src != "void":
            for piece in params_src.split(","):
                tokens = piece.replace("*", " * ").split()
                if not tokens:
                    continue
                pname = tokens[-1]
                ctype = "".join(tokens[:-1]).replace("const", "")
                params.append((ctype, pname))
        out[name] = params
    return out


# -- cffi wrapper call analysis --------------------------------------------

def _lib_call_name(call: ast.Call) -> str | None:
    """``k_*`` function name for a call through any lib handle."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr.startswith("k_"):
        return func.attr
    return None


def _classify_arg(node: ast.expr) -> tuple[str | None, str | None]:
    """``(canonical_ctype, source_name)`` for one C-call argument."""
    if isinstance(node, ast.Call) and len(node.args) == 1:
        func = node.func
        inner = node.args[0]
        name = inner.id if isinstance(inner, ast.Name) else None
        if isinstance(func, ast.Attribute) and func.attr in _CAST_TYPES:
            return _CAST_TYPES[func.attr], name
        if isinstance(func, ast.Name) and func.id in _COERCE_TYPES:
            return _COERCE_TYPES[func.id], name
    if isinstance(node, ast.Subscript):  # x.shape[0]
        value = node.value
        if isinstance(value, ast.Attribute) and value.attr == "shape":
            return "int64_t", None
    return None, None


def _check_lib_calls(file: SourceFile,
                     protos: dict[str, list[tuple[str, str]]],
                     ) -> Iterator[Finding]:
    used: set[str] = set()
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("k_"):
            used.add(node.attr)
        if not isinstance(node, ast.Call):
            continue
        name = _lib_call_name(node)
        if name is None:
            continue
        proto = protos.get(name)
        if proto is None:
            yield _finding(file, node,
                           f"{name} is called but has no prototype in "
                           "_cbuild.py's CDEF block")
            continue
        if len(node.args) != len(proto):
            yield _finding(
                file, node,
                f"{name} called with {len(node.args)} arguments but its "
                f"C prototype declares {len(proto)}")
            continue
        for pos, (arg, (ctype, pname)) in enumerate(zip(node.args, proto)):
            got_type, got_name = _classify_arg(arg)
            if got_type is not None and got_type != ctype:
                yield _finding(
                    file, arg,
                    f"{name} argument {pos + 1} ({pname}) is marshalled "
                    f"as {got_type} but the C prototype declares {ctype}")
            if got_name is not None and ctype.endswith("*") \
                    and got_name != pname:
                yield _finding(
                    file, arg,
                    f"{name} argument {pos + 1} passes array "
                    f"{got_name!r} where the C prototype names the "
                    f"parameter {pname!r}; tier argument names drifted")
    for name in sorted(set(protos) - used):
        yield _finding(file, file.tree,
                       f"C prototype {name} in _cbuild.py is never "
                       "referenced by the cffi tier in _backend.py")


@register("kernel-parity")
def check_kernel_parity(project: LintProject) -> Iterator[Finding]:
    """Cross-check ``_scalar.py`` / ``_backend.py`` / ``_cbuild.py``."""
    scalar = project.repro_source("kernels/_scalar.py")
    backend = project.repro_source("kernels/_backend.py")
    cbuild = project.repro_source("kernels/_cbuild.py")
    if scalar is None or backend is None or cbuild is None:
        # Not a repro tree (fixtures without kernels): nothing to check.
        return

    scalar_fns = _scalar_functions(scalar.tree)
    base_cls = _class(backend.tree, "KernelBackend")
    cffi_cls = _class(backend.tree, "_CffiKernels")
    if base_cls is None or cffi_cls is None:
        yield _finding(backend, backend.tree,
                       "_backend.py must define KernelBackend and "
                       "_CffiKernels")
        return

    base = _base_table(base_cls)
    kernel_names = set(base)

    # 1. the fallback table must re-export scalar functions by name.
    for name, (scalar_name, node) in sorted(base.items()):
        if name != scalar_name:
            yield _finding(backend, node,
                           f"KernelBackend.{name} re-exports "
                           f"_scalar.{scalar_name}; tier names drifted")
        if scalar_name not in scalar_fns:
            yield _finding(backend, node,
                           f"KernelBackend.{name} references "
                           f"_scalar.{scalar_name}, which does not exist")

    # 2. cffi wrappers: python signature parity with the scalar bodies.
    cffi_methods = {node.name: node for node in cffi_cls.body
                    if isinstance(node, ast.FunctionDef)}
    for name in sorted(kernel_names):
        scalar_fn = scalar_fns.get(name)
        wrapper = cffi_methods.get(name)
        if scalar_fn is None:
            continue  # already reported against the base table
        if wrapper is None:
            yield _finding(backend, cffi_cls,
                           f"_CffiKernels has no wrapper for kernel "
                           f"{name!r}")
            continue
        want = _arg_names(scalar_fn)
        got = _arg_names(wrapper)
        got = got[1:] if got[:1] == ["self"] else got
        if want != got:
            yield _finding(
                backend, wrapper,
                f"_CffiKernels.{name} signature {got} does not match "
                f"the scalar reference signature {want}; tier "
                "signatures drifted")

    # 3. C prototypes vs the marshalling the wrappers actually do.
    cdef_text: str | None = None
    for node in cbuild.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == "CDEF" \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            cdef_text = node.value.value
    if cdef_text is None:
        yield _finding(cbuild, cbuild.tree,
                       "_cbuild.py has no module-level CDEF string "
                       "literal to check prototypes against")
    else:
        protos = _parse_cdef(cdef_text)
        yield from _check_lib_calls(backend, protos)

