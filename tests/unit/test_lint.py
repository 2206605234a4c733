"""Tests for :mod:`repro.lint` — the repo-specific static analysis suite."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    LintError,
    check_names,
    collect_files,
    render_json,
    render_text,
    run_lint,
    worst_severity,
)
from repro.lint.core import LintProject
from repro.lint.seams import accepted_literals, seam_registries
from repro.lint.vocab import load_vocabulary

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
FIXTURES = Path(__file__).parent / "lint_fixtures"


def by_check(findings, check):
    return [f for f in findings if f.check == check]


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Lay out a synthetic ``repro`` package; returns its root dir."""
    pkg = root / "repro"
    for rel, body in files.items():
        path = pkg / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return pkg


# -- framework -------------------------------------------------------------

def test_check_registry_is_the_advertised_five():
    assert check_names() == (
        "engine-seam", "kernel-parity", "obs-vocab", "rng", "wall-clock")


def test_collect_files_dedups_and_rejects_missing(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("y = 2\n")
    files = collect_files([tmp_path, tmp_path / "a.py"])
    assert [f.name for f in files] == ["a.py", "b.py"]
    with pytest.raises(LintError):
        collect_files([tmp_path / "nope.py"])


def test_unknown_select_raises():
    with pytest.raises(LintError, match="unknown check"):
        run_lint([FIXTURES / "rng_clean.py"], select=["bogus"])


def test_reporters_round_trip():
    findings = run_lint([FIXTURES / "rng_bad.py"], select=["rng"])
    assert findings
    text = render_text(findings)
    assert "[rng]" in text and "error(s)" in text
    doc = json.loads(render_json(findings))
    assert doc["summary"]["errors"] == len(findings)
    assert doc["findings"][0]["check"] == "rng"
    assert worst_severity(findings) == 1
    assert worst_severity([]) == 0


# -- rng -------------------------------------------------------------------

def test_rng_flags_every_module_level_and_unseeded_site():
    findings = by_check(
        run_lint([FIXTURES / "rng_bad.py"], select=["rng"]), "rng")
    lines = sorted(f.line for f in findings)
    # from-import, rand, random.random, seed, two unseeded constructors
    # via attribute, one via bare name, one unseeded random.Random
    assert len(findings) == 7
    assert lines[0] == 7  # the banned from-import
    assert any("without a seed" in f.message for f in findings)
    assert any("module-level" in f.message for f in findings)


def test_rng_accepts_seeded_generators():
    assert run_lint([FIXTURES / "rng_clean.py"], select=["rng"]) == []


# -- wall-clock ------------------------------------------------------------

def test_wall_clock_flags_clocks_timers_and_set_iteration():
    findings = by_check(
        run_lint([FIXTURES / "wallclock_bad.py"], select=["wall-clock"]),
        "wall-clock")
    messages = " | ".join(f.message for f in findings)
    assert len(findings) == 5
    assert "time.time" in messages
    assert "datetime.datetime.now" in messages
    assert "time.perf_counter" in messages
    assert "imported by name" in messages
    assert "hash-seed" in messages


def test_wall_clock_suppressions_and_sorted_sets_are_clean():
    assert run_lint([FIXTURES / "wallclock_clean.py"]) == []


def test_timers_allowed_outside_hot_packages(tmp_path):
    # A file that maps into a non-hot repro package keeps its monotonic
    # timers without suppression; the wall clock stays banned.
    pkg = write_tree(tmp_path, {"runner/timing.py": """\
        import time

        def wall():
            a = time.perf_counter()
            b = time.time()
            return a, b
        """})
    findings = run_lint([pkg / "runner" / "timing.py"],
                        select=["wall-clock"], repro_root=pkg)
    assert [f.message for f in findings] == [
        "time.time reads the wall clock; simulated time is the only "
        "time in this repo"]


# -- suppressions ----------------------------------------------------------

def test_suppression_meta_check():
    findings = run_lint([FIXTURES / "suppression_bad.py"])
    sup = by_check(findings, "suppression")
    assert len(sup) == 3
    assert not by_check(findings, "wall-clock")  # consumed on line 7
    reasons = {f.line: f.message for f in sup}
    assert "without a reason" in reasons[7]
    assert "unknown check" in reasons[8]
    assert "unused suppression" in reasons[9]
    assert [f.severity for f in sup] == ["error", "error", "warning"]


def test_select_does_not_misreport_foreign_suppressions():
    # A wall-clock suppression must be neither "unknown" nor "unused"
    # when the wall-clock check was simply not selected.
    findings = run_lint([FIXTURES / "wallclock_clean.py"], select=["rng"])
    assert findings == []


# -- obs-vocab -------------------------------------------------------------

_OBS_TREE = {
    "obs/trace.py": """\
        EVENT_KINDS = frozenset({"drop", "bcn"})
        """,
    "obs/vocab.py": """\
        SPAN_NAMES = ("runner.sweep",)
        SPAN_PREFIXES = ()
        SPAN_SUFFIXES = (".run",)
        COUNTER_NAMES = ("runner.cache_hit",)
        COUNTER_PREFIXES = ("events.",)
        HISTOGRAM_NAMES = ()
        HISTOGRAM_PREFIXES = ("queue_frac.",)
        GAUGE_NAMES = ()
        """,
}


def test_obs_vocab_resolves_literals_and_templates(tmp_path):
    pkg = write_tree(tmp_path, dict(_OBS_TREE, **{"sim/emit.py": """\
        def instrument(obs, engine):
            obs.event("drop", 0.0)
            obs.event("dorp", 0.0)
            obs.inc("runner.cache_hit")
            obs.count("runner.cache_hti", 2)
            obs.observe(f"queue_frac.{engine}", 0.5)
            obs.observe(f"bogus.{engine}", 0.5)
            with obs.span(f"packet.{engine}.run"):
                pass
            emit_sign_switches(trace, kind="bcn")
            emit_sign_switches(trace, kind="extremum")
        """}))
    findings = run_lint([pkg / "sim" / "emit.py"], select=["obs-vocab"],
                        repro_root=pkg)
    flagged = sorted((f.line, f.message.split("'")[1]) for f in findings)
    assert flagged == [
        (3, "dorp"), (5, "runner.cache_hti"), (7, "bogus.*"),
        (11, "extremum"),
    ]


def test_obs_vocab_warns_when_registries_missing(tmp_path):
    target = tmp_path / "emit.py"
    target.write_text("def f(obs):\n    obs.event('drop', 0.0)\n")
    findings = run_lint([target], select=["obs-vocab"],
                        repro_root=tmp_path / "nothing")
    assert [f.severity for f in findings] == ["warning"]
    assert "cannot locate" in findings[0].message


def test_real_vocabulary_matches_runtime_registries():
    from repro.obs import trace as rt_trace
    from repro.obs import vocab as rt_vocab

    vocab = load_vocabulary(LintProject(files=[], repro_root=SRC))
    assert vocab is not None
    assert vocab.events == rt_trace.EVENT_KINDS
    assert vocab.names["counter"] == frozenset(rt_vocab.COUNTER_NAMES)
    assert vocab.names["span"] == frozenset(rt_vocab.SPAN_NAMES)
    assert vocab.names["histogram"] == frozenset(rt_vocab.HISTOGRAM_NAMES)
    assert rt_vocab.registered_counter("runner.cache_hit")
    assert rt_vocab.registered_counter("events.drop")
    assert not rt_vocab.registered_counter("events.not_a_kind")
    assert rt_vocab.registered_span("kernels.jit_warmup.cffi")
    assert not rt_vocab.registered_span("kernels.jit_warmup.")
    assert rt_vocab.registered_histogram("queue_frac.packet.reference")
    assert not rt_vocab.registered_gauge("anything")


# -- engine-seam -----------------------------------------------------------

_SEAM_TREE = {
    "simulation/network.py": """\
        PACKET_ENGINES = ("reference", "batched", "compiled")
        """,
}


def test_engine_seam_literals_and_dispatch(tmp_path):
    pkg = write_tree(tmp_path, dict(_SEAM_TREE, **{"sim/run.py": """\
        def typo(engine):
            return engine == "referense"

        def partial(engine):
            if engine == "reference":
                return 1
            elif engine == "batched":
                return 2

        def total(engine):
            if engine == "reference":
                return 1
            elif engine == "batched":
                return 2
            else:
                return 3

        def tagged(obs):
            obs.attach(engine="packet.reference")
            engine = "packet.referense"
            return engine

        def defaults(engine="compiled", fluid_method="numpyy"):
            return run(fluid_method="auto")
        """}))
    findings = run_lint([pkg / "sim" / "run.py"], select=["engine-seam"],
                        repro_root=pkg)
    got = sorted((f.line, f.message.split("'")[1]) for f in findings
                 if "not a registered" in f.message)
    assert (2, "referense") in got          # comparison literal
    assert (20, "packet.referense") in got  # bad obs tag assignment
    assert (23, "numpyy") in got            # bad seam default
    dispatch = [f for f in findings if "dispatch covers" in f.message]
    assert [f.line for f in dispatch] == [5]
    assert "compiled" in dispatch[0].message
    assert len(findings) == 4


def test_seam_registry_tracks_runtime_packet_engines():
    from repro.simulation.network import PACKET_ENGINES

    project = LintProject(files=[], repro_root=SRC)
    registries = seam_registries(project)
    assert registries["engine"] == frozenset(PACKET_ENGINES)
    accepted = accepted_literals(registries)
    assert "packet.reference" in accepted["engine"]
    assert "fluid.compiled" in accepted["engine"]
    assert "" in accepted["engine"]
    assert "packet.referense" not in accepted["engine"]
    assert accepted["fluid_method"] == registries["fluid_method"]


def test_seam_registry_tracks_runtime_fluid_methods():
    from repro.fluid.batch import _FLUID_METHODS

    project = LintProject(files=[], repro_root=SRC)
    registries = seam_registries(project)
    assert registries["fluid_method"] == frozenset(_FLUID_METHODS)
    assert "fluid_engine" not in registries


def test_seam_registry_tracks_runtime_job_kinds():
    from repro.serve import JOB_KINDS

    project = LintProject(files=[], repro_root=SRC)
    registries = seam_registries(project)
    assert registries["job_kind"] == frozenset(JOB_KINDS)
    accepted = accepted_literals(registries)
    assert accepted["job_kind"] == registries["job_kind"]


def test_job_kind_seam_literals_and_dispatch(tmp_path):
    pkg = write_tree(tmp_path, dict(_SEAM_TREE, **{"serve/route.py": """\
        def typo(job_kind):
            return job_kind == "experimentt"

        def partial(job_kind):
            if job_kind == "experiment":
                return 1
            elif job_kind == "scenario":
                return 2

        def total(job_kind):
            if job_kind == "experiment":
                return 1
            elif job_kind == "scenario":
                return 2
            else:
                return 3

        def keyword():
            return submit(job_kind="sweeep")
        """}))
    findings = run_lint([pkg / "serve" / "route.py"], select=["engine-seam"],
                        repro_root=pkg)
    unknown = sorted((f.line, f.message.split("'")[1]) for f in findings
                     if "not a registered" in f.message)
    assert unknown == [(2, "experimentt"), (19, "sweeep")]
    dispatch = [f for f in findings if "dispatch covers" in f.message]
    assert [f.line for f in dispatch] == [5]
    assert "sweep" in dispatch[0].message
    assert len(findings) == 3


# -- kernel-parity ---------------------------------------------------------

_KERNEL_TREE = {
    "kernels/_backend.py": """\
        class KernelBackend:
            def bind_add_one(self, x, out):
                def call(n):
                    out[:n] = x[:n] + 1.0
                    return n
                return call

            def scale(self, x, out):
                out[:] = 2.0 * x

        class _CffiKernels(KernelBackend):
            def bind_add_one(self, x, out):
                lib = self._lib
                p_x, p_out = self._d(x), self._d(out)

                def call(n, _keep=(x, out)):
                    return lib.k_add_one(n, p_x, p_out)
                return call

            def scale(self, x, out):
                return self._lib.k_scale(
                    x.shape[0], self._d(x), float(2.0), self._d(out))
        """,
    "kernels/_cbuild.py": '''\
        CDEF = """
        int64_t k_add_one(int64_t n, double *x, double *out);
        void k_scale(int64_t n, double *x, double f, double *out);
        """
        ''',
}


def _parity(tmp_path, **overrides):
    tree = dict(_KERNEL_TREE, **overrides)
    pkg = write_tree(tmp_path, tree)
    return run_lint([pkg / "kernels" / "_backend.py"],
                    select=["kernel-parity"], repro_root=pkg)


def _backend_with(cffi_bind, numpy_extra=""):
    """The fixture backend with its cffi ``bind_add_one`` replaced."""
    return {"kernels/_backend.py": """\
        class KernelBackend:
            def bind_add_one(self, x, out):
                def call(n):
                    out[:n] = x[:n] + 1.0
                    return n
                return call

            def scale(self, x, out):
                out[:] = 2.0 * x
""" + numpy_extra + """
        class _CffiKernels(KernelBackend):
""" + cffi_bind + """
            def scale(self, x, out):
                return self._lib.k_scale(
                    x.shape[0], self._d(x), float(2.0), self._d(out))
        """}


def test_kernel_parity_clean_tree(tmp_path):
    assert _parity(tmp_path) == []


def test_kernel_parity_flags_signature_drift(tmp_path):
    findings = _parity(tmp_path, **_backend_with("""\
            def bind_add_one(self, x, result):
                lib = self._lib
                p_x, p_res = self._d(x), self._d(result)

                def call(n, _keep=(x, result)):
                    return lib.k_add_one(n, p_x, p_res)
                return call
"""))
    messages = " | ".join(f.message for f in findings)
    assert "signatures drifted" in messages      # out vs result
    assert "names the parameter 'out'" in messages


def test_kernel_parity_flags_bind_closure_signature_drift(tmp_path):
    findings = _parity(tmp_path, **_backend_with("""\
            def bind_add_one(self, x, out):
                lib = self._lib
                p_x, p_out = self._d(x), self._d(out)

                def call(count, _keep=(x, out)):
                    return lib.k_add_one(count, p_x, p_out)
                return call
"""))
    assert len(findings) == 1
    assert "closure _CffiKernels.bind_add_one returns takes ['count']" \
        in findings[0].message
    assert "signatures drifted" in findings[0].message


def test_kernel_parity_flags_missing_wrapper_and_arity(tmp_path):
    findings = _parity(tmp_path, **_backend_with("""\
            def bind_add_one(self, x, out):
                lib = self._lib
                p_x, p_out = self._d(x), self._d(out)

                def call(n, _keep=(x, out)):
                    return lib.k_add_one(p_x, p_out)
                return call
""", numpy_extra="""
            def bind_add_two(self, x, out):
                def call(n):
                    out[:n] = x[:n] + 2.0
                    return n
                return call
"""))
    messages = " | ".join(f.message for f in findings)
    assert "no wrapper for kernel 'add_two'" in messages
    assert "declares 3" in messages              # called with 2 args


def test_kernel_parity_flags_c_only_entry_points(tmp_path):
    findings = _parity(tmp_path, **_backend_with("""\
            def bind_add_one(self, x, out):
                lib = self._lib
                p_x, p_out = self._d(x), self._d(out)

                def call(n, _keep=(x, out)):
                    return lib.k_add_one(n, p_x, p_out)
                return call

            def bind_add_two(self, x, out):
                lib = self._lib
                p_x, p_out = self._d(x), self._d(out)

                def call(n, _keep=(x, out)):
                    return lib.k_add_one(n, p_x, p_out)
                return call

            def fluid_rows(self, x, out):
                return self.scale(x, out)
"""))
    assert [f.message for f in findings] == [
        "_CffiKernels.bind_add_two has no numpy twin: KernelBackend "
        "defines no bind_add_two to check the C tier against"]


def test_kernel_parity_flags_unbound_entry_point_drift(tmp_path):
    tree = _backend_with("""\
            def bind_add_one(self, x, out):
                lib = self._lib
                p_x, p_out = self._d(x), self._d(out)

                def call(n, _keep=(x, out)):
                    return lib.k_add_one(n, p_x, p_out)
                return call
""")
    source = tree["kernels/_backend.py"]
    twin = "def scale(self, x, out):\n                out[:] = 2.0 * x"
    assert twin in source
    tree["kernels/_backend.py"] = source.replace(
        twin, "def scale(self, x, res):\n                res[:] = 2.0 * x")
    findings = _parity(tmp_path, **tree)
    assert [f.message for f in findings] == [
        "_CffiKernels.scale signature ['x', 'out'] does not match "
        "KernelBackend.scale signature ['x', 'res']; tier signatures "
        "drifted"]


def test_kernel_parity_flags_dtype_drift_and_dead_prototypes(tmp_path):
    findings = _parity(tmp_path, **{"kernels/_cbuild.py": '''\
        CDEF = """
        int64_t k_add_one(int64_t n, float *x, double *out);
        void k_scale(int64_t n, double *x, int64_t f, double *out);
        int64_t k_orphan(int64_t n);
        """
        '''})
    messages = " | ".join(f.message for f in findings)
    # a pointer precomputed into a local, and a scalar coercion
    assert "k_add_one argument 2 (x) is marshalled as double* but the C " \
        "prototype declares float*" in messages
    assert "k_scale argument 3 (f) is marshalled as double but the C " \
        "prototype declares int64_t" in messages
    assert "k_orphan" in messages and "never referenced" in messages


def test_kernel_parity_skips_non_repro_trees(tmp_path):
    target = tmp_path / "standalone.py"
    target.write_text("def f():\n    return 1\n")
    assert run_lint([target], select=["kernel-parity"],
                    repro_root=tmp_path) == []


# -- the real tree ---------------------------------------------------------

def test_real_src_tree_is_lint_clean():
    findings = run_lint([SRC])
    assert findings == [], "\n" + render_text(findings)


def test_cli_lint_subcommand(capsys):
    from repro.cli import main

    assert main(["lint", "--list-checks"]) == 0
    out = capsys.readouterr().out
    assert out.split() == list(check_names())

    assert main(["lint", str(FIXTURES / "rng_bad.py"),
                 "--select", "rng", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["errors"] > 0

    assert main(["lint", str(FIXTURES / "rng_clean.py")]) == 0
    assert "0 error(s)" in capsys.readouterr().out

    assert main(["lint", "--select", "nope", str(FIXTURES)]) == 2
    assert "unknown check" in capsys.readouterr().err
