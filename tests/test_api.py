"""The shape of the public API: no per-call precision and no knob that
has a single value in use, one module that sets the working precision,
no public name or method that only the tests use, no unused module-level
import in the package, numpy only where arrays pay, no mpmath in a
process that evaluates in double, and neither in the exact commands."""

import ast
import dataclasses
import inspect
import json
import os
import pathlib
import subprocess
import sys

import mpmath as mp
import numpy as np

import azy5
import azy5.numeric as numeric
from azy5 import (J, act_tau, estimate_lambda, sample_taus,
                  theta_second_vector)
from azy5.forms import _signed_terms
from azy5.numeric import mobius
from azy5.symplectic import _bfs_transversal
from azy5.theta import _chords, _grid, _run_kernel, _tail, _walk

# Parameters that had only one value in use and became module constants,
# the genus, which is always 2, and the precomputed characteristic images
# that a caller could pass in.
REMOVED = {"dps", "scale", "word_length", "min_abs", "pretest", "max_level",
           "cancellation_guard", "g", "images"}
# Parameters removed from one callable, where other callables keep the name:
# the kernels sum one ellipse, with no box of half-width K, and _tail
# bounds one series of one genus,
# phi_modularity_error covers all four generators at once,
# phi_transversal multiplies over the canonical transversal only, and
# rep_independence_error checks fixed generators, not a seeded draw.
# kappa_probes and kappa_numeric measure at i*I; the general-point kappa
# of the full transformation law is tests/reference.py's.  The coset
# search runs to closure, so it is not told the index it finds, and the
# symmetrization gives every image 720 // (orbit size) cosets.
REMOVED_FROM = ((_bfs_transversal, {"expected"}), (_signed_terms, {"expect_count"}),
                (azy5.kappa_numeric, {"eps", "tau0"}), (azy5.kappa_probes, {"tau0"}),
                (_tail, {"g", "poly", "scale"}),
                (_run_kernel, {"K"}), (_grid, {"K"}), (_walk, {"K"}), (_chords, {"K"}),
                (azy5.phi_modularity_error, {"gamma"}),
                (azy5.phi_transversal, {"system", "reps"}),
                (azy5.rep_independence_error, {"seed"}))


def _public_callables():
    for name in azy5.__all__:
        obj = getattr(azy5, name)
        if callable(obj):
            yield name, obj


def test_no_public_callable_takes_a_removed_knob():
    seen = 0
    for name, obj in _public_callables():
        params = set(inspect.signature(obj).parameters)
        assert not params & REMOVED, (name, params & REMOVED)
        seen += 1
    assert seen > 50
    assert not set(inspect.signature(_bfs_transversal).parameters) & REMOVED
    for obj, names in REMOVED_FROM:
        assert not set(inspect.signature(obj).parameters) & names, obj
    length = inspect.signature(azy5.random_word).parameters["length"]
    assert length.default is inspect.Parameter.empty
    assert not hasattr(azy5.SiegelPoint, "scaled_identity")
    assert "theta_constant_g1" not in azy5.__all__
    # one call gives the residuals of all ten addition formulas
    assert "addition_residual" not in azy5.__all__
    assert not hasattr(azy5.geometry, "addition_residual")
    # tetrahedron() keeps only exact vertices, so there is no residual
    assert "residual" not in {f.name for f in dataclasses.fields(azy5.Tetrahedron)}


def _mp_dist(a, b):
    with mp.workdps(100):
        return abs(mp.mpc(a) - mp.mpc(b))


def test_working_precision_is_read_from_numeric(monkeypatch):
    """Raising numeric.HIPREC_DPS alone raises the precision of every
    high-precision step: the transformed point, the series and the
    median of estimate_lambda."""
    tau = sample_taus(0, 1)[0]
    with mp.workdps(90):
        ref_point, _ = mobius(J, tau.entries_mp())
    monkeypatch.setattr(numeric, "HIPREC_DPS", 90)
    ref_vec = theta_second_vector(tau, 1e-60, True)
    monkeypatch.setattr(numeric, "HIPREC_DPS", 70)
    got = act_tau(J, tau, True).entries_mp()
    for i, j in ((0, 0), (0, 1), (1, 1)):
        assert _mp_dist(got[i][j], ref_point[i][j]) < 1e-65 * abs(ref_point[i][j])
    for t, r in zip(theta_second_vector(tau, 1e-60, True), ref_vec):
        assert t.err < 1e-60
        assert _mp_dist(t.value, r.value) <= t.err + r.err
    est = estimate_lambda(samples=1, eps=1e-60, hiprec=True)
    with mp.workdps(100):
        exact = -mp.mpf(2) ** -57 / 1000
        assert abs(est.value - exact) < 1e-55 * abs(exact)


def _bound_names(node):
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


def _read_names(tree):
    """The names a module reads: loaded names, attributes and imports."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            yield from (a.name.split(".")[-1] for a in n.names)


def test_every_public_name_has_a_user():
    """Each exported name is read by the package outside __init__, by the
    benchmark or by a demo; a name only the tests read belongs in tests/."""
    src = pathlib.Path(azy5.__file__).parent
    root = src.parents[1]
    paths = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((root / "perfbench").glob("*.py")) + sorted((root / "demos").glob("*.py"))
    read = set()
    for path in paths:
        read.update(_read_names(ast.parse(path.read_text())))
    public = {n for n in azy5.__all__ if not n.startswith("__")}
    assert not public - read, sorted(public - read)


def _read_attributes(paths):
    return {n.attr for path in paths for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Attribute)}


def test_every_public_method_has_a_reader():
    """Each public method or property of a class in the package is read as
    an attribute by the package, the benchmark or a demo; one that only
    the tests read belongs in tests/reference.py."""
    src = pathlib.Path(azy5.__file__).parent
    root = src.parents[1]
    paths = sorted(src.glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    paths += sorted((root / "demos").glob("*.py"))
    read = _read_attributes(paths)
    unread = [f"{path.name}: {cls.name}.{fn.name}"
              for path in sorted(src.glob("*.py"))
              for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              if not fn.name.startswith("_") and fn.name not in read]
    assert not unread, unread


def test_no_unused_module_level_imports():
    src = pathlib.Path(azy5.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            unused += [f"{path.name}: {name}" for name in _bound_names(node)
                       if name not in used]
    assert not unused, unused


def _imports(node, lib):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == lib for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == lib


def test_numpy_only_in_the_array_kernels_and_the_sampler():
    """numpy is imported by forms (the error bookkeeping), theta (the
    double grid) and siegel, where only the seeded sampler reads it, and
    no module imports numpy or mpmath at its top level; a point stores
    nested tuples of Python complex, even when built from a numpy
    array."""
    src = pathlib.Path(azy5.__file__).parent
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    users = {name for name, tree in trees.items()
             if any(_imports(n, "numpy") for n in ast.walk(tree))}
    assert users == {"forms.py", "siegel.py", "theta.py"}
    # and no module imports numpy or mpmath at its top level
    top = [f"{name}: {lib}" for name, tree in trees.items() for node in tree.body
           for lib in ("numpy", "mpmath") if _imports(node, lib)]
    assert not top, top
    # the top-level statements of siegel.py that read np, by name
    readers = {getattr(node, "name", type(node).__name__) for node in trees["siegel.py"].body
               for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "np"}
    assert readers == {"sample_tau", "sample_stream"}
    tau = azy5.SiegelPoint(np.array([[0.1 + 1j, 0.2j], [0.2j, -0.3 + 2j]]))
    assert type(tau.mat) is tuple and all(type(row) is tuple for row in tau.mat)
    assert all(type(z) is complex for row in tau.mat for z in row)
    assert not hasattr(azy5.SiegelPoint, "entries")


# The exact commands, which read no array and no high-precision value.
EXACT_COMMANDS = (["orbits"], ["cosets", "--generators"], ["cosets", "--subgroup", "principal-2"],
                  ["geometry"])
# The double commands; TAU is replaced by the path of a --tau file.
DOUBLE_COMMANDS = (["verify", "--tau", "TAU"], ["verify"], ["forms", "--form", "azy"],
                   ["lambda"], ["verify-addition"], ["verify-transform"])

_UNLOADED = """
import contextlib, io, json, sys
import azy5
import azy5.cli
exact, double = json.loads(sys.argv[1])
loaded = lambda: {m for m in ("numpy", "mpmath") if m in sys.modules}
assert not loaded(), "import"
for argv in exact + double:
    with contextlib.redirect_stdout(io.StringIO()):
        assert azy5.cli.main(argv) == 0, argv
    assert loaded() == (set() if argv in exact else {"numpy"}), argv
with contextlib.redirect_stdout(io.StringIO()):
    assert azy5.cli.main(["forms", "--form", "p2", "--hiprec"]) == 0
assert "mpmath" in sys.modules
"""


def test_double_commands_leave_mpmath_unloaded(tmp_path):
    """numpy belongs to the double evaluations and mpmath to the
    high-precision path: importing azy5 and azy5.cli, and running each
    exact command, leaves both unloaded; each double command loads numpy
    and not mpmath, and a --hiprec command loads mpmath and passes.  In a
    fresh interpreter, since the test session has loaded both."""
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps(
        [{"g": 2, "entries": [[[0.13, 1.0], [-0.21, 0.3]], [[-0.21, 0.3], [0.37, 0.8]]]},
         {"g": 2, "entries": [[[0.13, 2.0], [-0.21, 0.6]], [[-0.21, 0.6], [0.37, 1.6]]]}]))
    double = [[str(tau) if a == "TAU" else a for a in argv] for argv in DOUBLE_COMMANDS]
    src = pathlib.Path(azy5.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", _UNLOADED, json.dumps([EXACT_COMMANDS, double])],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
