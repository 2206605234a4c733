"""``kernel-parity``: the two kernel tiers must agree *statically*.

``repro.kernels`` runs the packet window loop on one of two tiers: the
numpy tier (``KernelBackend`` in ``_backend.py``), whose ``bind_*``
closures are the oracle, and the cffi tier (``_CffiKernels``), which
overrides them to call the C kernels declared in ``_cbuild.py``'s
``CDEF`` block.  Tier drift — a renamed argument, a reordered
parameter, a dtype change on one side only — otherwise surfaces as a
conformance-suite divergence after minutes of simulation.  This check
makes drift a lint error instead:

* ``_CffiKernels`` must override every ``KernelBackend.bind_*``
  method, and every public ``_CffiKernels`` entry point (``bind_*``
  closures and unbound kernels such as ``packet_scalar`` alike) must
  have a ``KernelBackend`` twin, the oracle it is checked against,
  with the same arguments, name for name, position for position; the
  closures two ``bind_*`` twins return must take the same call
  arguments (``_``-prefixed parameters with defaults, which pin
  captured arrays, do not count).  Only the entry points in
  ``_C_ONLY`` may lack a twin;
* every ``lib.k_*`` call must match a prototype in ``CDEF`` in arity.
  Where an argument's marshalling makes the C type derivable — a
  pointer cast (``self._d`` → ``double *`` …, also through a local
  alias ``_d = self._d`` or a pointer precomputed into a local such as
  ``p_x = self._d(x)``) or a ``float()``/``int()`` coercion — it must
  match the prototype's type, and a pointer must come from the array
  the prototype names: argument *dtype* drift between python and C is
  a lint error;
* every prototype in ``CDEF`` must be called.
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
    "_i": "int64_t*",
    "_u8": "uint8_t*",
    "_i8": "int8_t*",
}

#: python scalar coercion -> canonical C parameter type.
_COERCE_TYPES = {"float": "double", "int": "int64_t"}

#: A marshalled argument: ``(canonical_ctype, source_array_name)``.
_Marshal = tuple[str | None, str | None]

#: C-tier entry points without a ``KernelBackend`` twin, and why.
_C_ONLY = {
    "fluid_rows": "its oracle is repro.fluid.batch.simulate_fluid_batch",
    "delayed": "its oracle is repro.fluid.delay._simulate_delayed_python",
    "event_core": "its oracle is the python Simulator loop of "
                  "BCNNetworkSimulator's reference engine",
}


def _finding(file: SourceFile, node: ast.AST, message: str) -> Finding:
    return Finding(
        check="kernel-parity", path=file.rel,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
    )


def _arg_names(fn: ast.FunctionDef) -> list[str]:
    spec = fn.args
    names = [a.arg for a in spec.posonlyargs + spec.args + spec.kwonlyargs]
    return names[1:] if names[:1] == ["self"] else names


def _class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _entry_points(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def _closure_args(fn: ast.FunctionDef) -> list[str] | None:
    """Call arguments of the closure ``fn`` returns, pins excluded."""
    returned = {node.value.id for node in fn.body
                if isinstance(node, ast.Return)
                and isinstance(node.value, ast.Name)}
    for node in fn.body:
        if isinstance(node, ast.FunctionDef) and node.name in returned:
            spec = node.args
            positional = spec.posonlyargs + spec.args
            pinned = {a.arg for a in positional[len(positional)
                                                - len(spec.defaults):]}
            pinned |= {a.arg for a, default in zip(spec.kwonlyargs,
                                                   spec.kw_defaults)
                       if default is not None}
            return [name for name in _arg_names(node)
                    if not (name.startswith("_") and name in pinned)]
    return None


def _check_bind_parity(file: SourceFile, base: ast.ClassDef,
                       cffi: ast.ClassDef) -> Iterator[Finding]:
    base_entries, cffi_entries = _entry_points(base), _entry_points(cffi)
    for name in sorted(set(base_entries) - set(cffi_entries)):
        if name.startswith("bind_"):
            yield _finding(file, cffi,
                           f"_CffiKernels has no wrapper for kernel "
                           f"{name[len('bind_'):]!r}: it does not "
                           f"override KernelBackend.{name}")
    for name, got_fn in sorted(cffi_entries.items()):
        want_fn = base_entries.get(name)
        if want_fn is None:
            if name not in _C_ONLY:
                yield _finding(
                    file, got_fn,
                    f"_CffiKernels.{name} has no numpy twin: "
                    f"KernelBackend defines no {name} to check the C "
                    "tier against")
            continue
        want, got = _arg_names(want_fn), _arg_names(got_fn)
        if want != got:
            yield _finding(
                file, got_fn,
                f"_CffiKernels.{name} signature {got} does not match "
                f"KernelBackend.{name} signature {want}; tier "
                "signatures drifted")
        want_call, got_call = _closure_args(want_fn), _closure_args(got_fn)
        if want_call != got_call:
            yield _finding(
                file, got_fn,
                f"the closure _CffiKernels.{name} returns takes "
                f"{got_call} but KernelBackend.{name}'s takes "
                f"{want_call}; tier signatures drifted")


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


def _marshal(node: ast.expr) -> _Marshal:
    """``(canonical_ctype, source_name)`` for one marshalling expression."""
    if isinstance(node, ast.Call) and len(node.args) == 1:
        func = node.func
        inner = node.args[0]
        name = inner.id if isinstance(inner, ast.Name) else None
        if isinstance(func, ast.Attribute) and func.attr in _CAST_TYPES:
            return _CAST_TYPES[func.attr], name
        if isinstance(func, ast.Name) and func.id in _CAST_TYPES:
            return _CAST_TYPES[func.id], name  # ``_d = self._d`` alias
        if isinstance(func, ast.Name) and func.id in _COERCE_TYPES:
            return _COERCE_TYPES[func.id], name
    if isinstance(node, ast.Subscript):  # x.shape[0]
        value = node.value
        if isinstance(value, ast.Attribute) and value.attr == "shape":
            return "int64_t", None
    return None, None


def _local_marshals(fn: ast.FunctionDef) -> dict[str, _Marshal]:
    """Locals of ``fn`` (closures included) bound to a marshalled value."""
    env: dict[str, _Marshal] = {}
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) \
                and len(target.elts) == len(value.elts):
            pairs = list(zip(target.elts, value.elts))
        else:
            pairs = [(target, value)]
        for tgt, val in pairs:
            if isinstance(tgt, ast.Name):
                marshal = _marshal(val)
                if marshal[0] is not None:
                    env[tgt.id] = marshal
    return env


def _check_lib_calls(file: SourceFile,
                     protos: dict[str, list[tuple[str, str]]],
                     ) -> Iterator[Finding]:
    used = {node.attr for node in ast.walk(file.tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("k_")}
    for top in file.tree.body:
        body = top.body if isinstance(top, ast.ClassDef) else [top]
        for fn in body:
            if isinstance(fn, ast.FunctionDef):
                yield from _check_function_calls(file, fn, protos)
    for name in sorted(set(protos) - used):
        yield _finding(file, file.tree,
                       f"C prototype {name} in _cbuild.py is never "
                       "referenced by the cffi tier in _backend.py")


def _check_function_calls(file: SourceFile, fn: ast.FunctionDef,
                        protos: dict[str, list[tuple[str, str]]],
                        ) -> Iterator[Finding]:
    env = _local_marshals(fn)
    for node in ast.walk(fn):
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
            if isinstance(arg, ast.Name) and arg.id in env:
                got_type, got_name = env[arg.id]
            else:
                got_type, got_name = _marshal(arg)
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


@register("kernel-parity")
def check_kernel_parity(project: LintProject) -> Iterator[Finding]:
    """Cross-check the tiers in ``_backend.py`` against ``_cbuild.py``."""
    backend = project.repro_source("kernels/_backend.py")
    cbuild = project.repro_source("kernels/_cbuild.py")
    if backend is None or cbuild is None:
        # Not a repro tree (fixtures without kernels): nothing to check.
        return

    base_cls = _class(backend.tree, "KernelBackend")
    cffi_cls = _class(backend.tree, "_CffiKernels")
    if base_cls is None or cffi_cls is None:
        yield _finding(backend, backend.tree,
                       "_backend.py must define KernelBackend and "
                       "_CffiKernels")
        return
    yield from _check_bind_parity(backend, base_cls, cffi_cls)

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
        yield from _check_lib_calls(backend, _parse_cdef(cdef_text))
