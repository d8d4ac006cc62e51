"""End-to-end CLI behaviour: exit codes, report files, sample-point
loading, and determinism."""

import argparse
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

from azy5 import cli, symplectic
from azy5.forms import azy_terms, chi12_terms
from azy5.geometry import all_tetrahedra
from azy5.siegel import TAU_I, SiegelPoint, sample_taus
from azy5.symplectic import coset_reps


def run(argv):
    return cli.main(argv)


def test_orbits_report(tmp_path, capsys):
    out = tmp_path / "orbits.json"
    assert run(["orbits", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    rep = json.loads(out.read_text())
    assert set(rep) == {"checks", "command", "config", "payload", "verdict"}
    assert rep["command"] == "orbits"
    assert rep["verdict"] == "PASS"
    for c in rep["checks"]:
        assert set(c) == {"name", "residual", "tolerance", "verdict"}
    assert rep["payload"]["cardinalities"]["even characteristics"] == 10
    assert rep["payload"]["cardinalities"]["star quadruples"] == 180


def test_cosets_both_subgroups(tmp_path):
    out = tmp_path / "c15.json"
    assert run(["cosets", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["payload"]["index"] == 15
    assert len(rep["payload"]["representatives"]) == 15
    out2 = tmp_path / "c720.json"
    assert run(["cosets", "--subgroup", "principal-2", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["payload"]["index"] == 720


@pytest.fixture
def fresh_cosets():
    coset_reps.cache_clear()
    yield
    coset_reps.cache_clear()


@pytest.mark.parametrize("subgroup,name,residual", [
    ("theta0-2", "index of theta0(2)", 9), ("principal-2", "index of principal(2)", 708)])
def test_cosets_fails_on_the_index_it_finds(monkeypatch, capsys, fresh_cosets,
                                            subgroup, name, residual):
    """With the alphabet cut to J and T(E11), the search closes on the 6
    and 12 cosets those two reach, and the index check fails on that."""
    monkeypatch.setattr(symplectic, "_COLUMN_OPS", symplectic._COLUMN_OPS[:2])
    assert run(["cosets", "--subgroup", subgroup]) == 1
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith(name))
    assert f"residual {residual:.3e}" in line
    assert line.endswith("FAIL")


def test_cosets_generators_flag(tmp_path):
    out = tmp_path / "g.json"
    assert run(["cosets", "--generators", "--out", str(out)]) == 0
    gens = json.loads(out.read_text())["payload"]["generators"]
    assert set(gens) == {"J", "A", "B", "C"}


def test_verify_addition(capsys):
    assert run(["verify-addition", "--samples", "2"]) == 0
    assert "addition [00;00]" in capsys.readouterr().out


def test_verify_transform(capsys):
    assert run(["verify-transform"]) == 0
    text = capsys.readouterr().out
    assert "kappa probe agreement" in text
    assert "overall: PASS" in text


def test_geometry_report(tmp_path):
    out = tmp_path / "t.json"
    assert run(["geometry", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["checks"] == [{"name": "tetrahedra faces pairwise distinct",
                              "residual": 0.0, "tolerance": 0.0, "verdict": "PASS"}]
    assert len(rep["payload"]["tetrahedra"]) == 15
    assert all("residual" not in t for t in rep["payload"]["tetrahedra"])


@pytest.mark.parametrize("argv", [["geometry"], ["verify"]])
def test_a_repeated_face_fails_by_name(monkeypatch, capsys, argv):
    """One face of one tetrahedron replaced by a face of another: the
    distinct-faces check, the only one that reads the faces, fails."""
    tets = dict(all_tetrahedra())
    first, second = sorted(tets, key=sorted)[:2]
    t = tets[second]
    tets[second] = dataclasses.replace(t, faces=tets[first].faces[:1] + t.faces[1:])
    monkeypatch.setattr(cli, "all_tetrahedra", lambda: tets)
    assert run(argv) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.endswith("FAIL")]
    assert len(fails) == 2 and fails[1] == "overall: FAIL"
    assert fails[0].startswith("tetrahedra faces pairwise distinct")
    assert "residual 1.000e+00" in fails[0]


@pytest.mark.parametrize("form", ["chi5", "chi10", "p2", "chi12", "azy", "chi5det"])
def test_forms_eval_each(form):
    assert run(["forms-eval", "--form", form]) == 0


def _cusp_file(tmp_path, *scales):
    """The points tau(s) = X + i s Y, one per scale s, at the generic X, Y
    of the default forms point: the forms decay like e^{-c s} as s grows
    into the cusp."""
    x = [[0.13, -0.21], [-0.21, 0.37]]
    y = [[1.0, 0.3], [0.3, 0.8]]
    path = tmp_path / f"cusp{scales}.json"
    path.write_text(json.dumps([SiegelPoint(
        [[x[i][j] + 1j * s * y[i][j] for j in range(2)] for i in range(2)]).to_json()
        for s in scales]))
    return str(path)


@pytest.mark.parametrize("s", [5, 10, 20])
def test_forms_fails_when_the_bound_exceeds_the_value(tmp_path, s):
    """The weight-30 sum underflows its own error bound in the cusp; the
    verdict compares err with |value|, so it fails there."""
    assert run(["forms", "--form", "azy", "--tau", _cusp_file(tmp_path, s)]) == 1


@pytest.mark.parametrize("form", ["chi5", "chi10", "chi12", "p2"])
def test_forms_passes_in_the_cusp_with_digits_left(tmp_path, form):
    assert run(["forms", "--form", form, "--tau", _cusp_file(tmp_path, 10)]) == 0


# Quantities a refusal may name; a bare Python arithmetic message names none.
_NAMED = re.compile(r"chi5|theta|phi|lambda|product|determinant|tau|point")


@pytest.mark.parametrize("hiprec", [False, True], ids=["double", "hiprec"])
@pytest.mark.parametrize("s", [0.02, 1, 20, 50])
def test_every_command_answers_or_refuses_by_name(tmp_path, capsys, s, hiprec):
    """From near the boundary (s = 0.02) deep into the cusp (s = 50), verify
    at tau(s), tau(1.1 s) and each form there exit 0, or exit 1 with a FAIL
    line, or exit 1 with an error line that names the quantity at fault."""
    path = _cusp_file(tmp_path, s, 1.1 * s)
    prec = ["--hiprec"] if hiprec else []
    for argv in [["verify"]] + [["forms", "--form", f] for f in sorted(cli._FORMS) + ["chi5det"]]:
        code = run(argv + ["--tau", path] + prec)
        out, err = capsys.readouterr()
        if code == 0:
            continue
        assert code == 1, argv
        if err:
            assert err.startswith("error: ") and _NAMED.search(err), (argv, err)
        else:
            assert any(line.endswith("FAIL") for line in out.splitlines()[:-1]), (argv, out)


@pytest.mark.parametrize("s, hiprec", [(20, False), (50, True)])
def test_verify_fails_by_name_where_the_chi5_determinant_vanishes(tmp_path, s, hiprec):
    """In the cusp the 4 x 4 chi5 determinant comes out exactly 0: verify
    fails the ratio check with residual inf, names the reason in the
    report and keeps every other check line."""
    path = _cusp_file(tmp_path, s, 1.1 * s)
    out, ref = tmp_path / "cusp.json", tmp_path / "ref.json"
    prec = ["--hiprec"] if hiprec else []
    assert run(["verify", "--tau", path, "--out", str(out)] + prec) == 1
    assert run(["verify", "--out", str(ref)] + prec) == 0
    rep = json.loads(out.read_text())
    names = [c["name"] for c in rep["checks"]]
    assert names == [c["name"] for c in json.loads(ref.read_text())["checks"]]
    assert rep["checks"][-1]["name"] == "chi5 determinant ratio constancy"
    assert rep["checks"][-1]["residual"] == math.inf
    assert "chi5 determinant is 0" in rep["payload"]["muError"]


def test_empty_error_message_names_its_type(monkeypatch, capsys):
    def raise_bare(args):
        raise ZeroDivisionError()
    monkeypatch.setattr(cli, "cmd_orbits", raise_bare)
    assert run(["orbits"]) == 1
    assert capsys.readouterr().err == "error: ZeroDivisionError\n"


def test_forms_fails_where_the_form_vanishes(tmp_path):
    """chi5 vanishes at i*I (tau12 = 0): its computed value is rounding
    noise, which the verdict must not pass."""
    path = tmp_path / "ii.json"
    path.write_text(json.dumps(TAU_I.to_json()))
    assert run(["forms", "--form", "chi5", "--tau", str(path)]) == 1


def test_forms_alias(capsys):
    assert run(["forms", "--form", "p2"]) == 0
    assert "p2 error bound within target" in capsys.readouterr().out


def test_lambda_alias(tmp_path):
    out = tmp_path / "l.json"
    assert run(["lambda", "--samples", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    lam = rep["payload"]["lambda"]
    assert abs(lam[0] + 2.0 ** -57 / 1000.0) < 1e-26
    assert "normalization" in rep["payload"]


def test_full_verify_alias(tmp_path, capsys):
    for cached in (coset_reps, azy_terms, chi12_terms):
        cached.cache_clear()
    out = tmp_path / "v.json"
    assert run(["verify", "--samples", "2", "--out", str(out)]) == 0
    # only the 15-coset system: the signed terms need no coset enumeration
    assert coset_reps.cache_info().currsize == 1
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    rep = json.loads(out.read_text())
    names = [c["name"] for c in rep["checks"]]
    assert "phi modularity generator J" in names
    assert "lambda ratio spread" in names
    assert "geometric crosscheck product" in names


# The options each subcommand reads, and so takes.
_TAKES = {
    "orbits": {"--out"},
    "cosets": {"--out", "--subgroup", "--generators"},
    "geometry": {"--out"},
    "verify-transform": {"--eps", "--seed", "--out"},
    "azy-lambda": {"--eps", "--seed", "--samples", "--hiprec", "--out"},
    "forms-eval": {"--eps", "--hiprec", "--tau", "--out", "--form"},
    "azy-verify": {"--eps", "--seed", "--samples", "--hiprec", "--tau", "--out"},
    "verify-addition": {"--eps", "--seed", "--samples", "--hiprec", "--tau", "--out"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    # aliases share their parser; positionals count under their dest
    taken = {name: {opt for a in p._actions for opt in a.option_strings or [a.dest]}
             - {"-h", "--help"}
             for name, p in sub.choices.items() if p.prog.split()[-1] == name}
    assert taken == _TAKES
    assert sum(map(len, taken.values())) == 30


def test_usage_errors_exit_2():
    for argv in (["no-such-command"],
                 ["verify-addition", "--eps", "1e-40"],
                 ["verify-addition", "--eps", "nan"],
                 ["verify-addition", "--eps", "inf"],
                 ["verify-addition", "--samples", "0"],
                 # one sample makes every spread over the samples read 0
                 ["verify-addition", "--samples", "1"],
                 ["verify", "--samples", "1"],
                 ["lambda", "--samples", "1"],
                 ["lambda", "--hiprec", "--samples", "1"],
                 ["verify", "--seed", "-1"],
                 ["verify-transform", "--seed", "-1"],
                 ["forms-eval"],
                 # options and modes a subcommand does not serve
                 ["lambda", "--tau", "F"],
                 ["verify-transform", "--hiprec"],
                 ["orbits", "--seed", "1"],
                 ["geometry", "verify-addition"],
                 ["forms", "eval", "--form", "p2"]):
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 2


def test_malformed_tau_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify-addition", "--tau", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["forms", "--form", "azy"], ["verify"],
                                  ["verify-addition"]])
def test_empty_tau_file_exits_1(tmp_path, capsys, argv):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert run(argv + ["--tau", str(empty)]) == 1
    err = capsys.readouterr().err
    assert f"error: --tau file {empty} holds no points" in err


def test_verify_one_tau_point_exits_1(tmp_path, capsys):
    """Two checks of verify compare the --tau points with each other, so
    at one point they would pass with residual 0 whatever the values;
    verify refuses it and names both."""
    one = tmp_path / "one.json"
    one.write_text(json.dumps(TAU_I.to_json()))
    assert run(["verify", "--tau", str(one)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "geometric crosscheck per-representative" in err
    assert "chi5 determinant ratio constancy" in err


def test_verify_evaluates_each_quantity_once(monkeypatch, capsys):
    """At 3 points: 15 factors per point, all for the crosscheck; per
    point five phi for modularity (tau and its four generator images) and
    one for lambda; and per point ten P2 for representative independence
    (tau and its nine generator images) and one in each of the 15
    factors."""
    import azy5.construction as construction
    calls = {"phi_gamma": 0, "phi": 0, "p2": 0}

    def counted(name):
        fn = getattr(construction, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return wrapper

    for name in calls:
        monkeypatch.setattr(construction, name, counted(name))
    assert run(["verify", "--samples", "3"]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert calls == {"phi_gamma": 3 * 15, "phi": 3 * (5 + 1),
                     "p2": 3 * (10 + 15)}


def test_genus1_tau_file_exits_1(tmp_path, capsys):
    g1 = tmp_path / "g1.json"
    g1.write_text(json.dumps({"g": 1, "entries": [[[0.3, 1.1]]]}))
    assert run(["forms", "--form", "p2", "--tau", str(g1)]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_echoes_only_the_options_a_command_has(tmp_path):
    out = tmp_path / "o.json"
    assert run(["orbits", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == {"command": "orbits"}
    assert run(["forms", "--form", "p2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == {
        "command": "forms-eval", "eps": 1e-12, "hiprec": False, "tau": None,
        "form": "p2"}


def test_tau_file_roundtrip(tmp_path):
    pts = sample_taus(seed=4, count=2)
    path = tmp_path / "pts.json"
    path.write_text(json.dumps([p.to_json() for p in pts]))
    assert run(["verify-addition", "--tau", str(path)]) == 0
    single = tmp_path / "one.json"
    single.write_text(json.dumps(pts[0].to_json()))
    assert run(["verify-addition", "--tau", str(single)]) == 0


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["lambda", "--samples", "2", "--out", str(a)]) == 0
    assert run(["lambda", "--samples", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    assert run(["geometry", "--out", str(c)]) == 0
    assert run(["geometry", "--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_hiprec_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["lambda", "--hiprec", "--samples", "2", "--out", str(a)]) == 0
    assert run(["lambda", "--hiprec", "--samples", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


_COUNT_TRANSFORMS = """
import contextlib, importlib.util, io, json, sys
import azy5.cli
import azy5.numeric
from azy5.chars import char_action
spec = importlib.util.spec_from_file_location("points", sys.argv[1])
points = importlib.util.module_from_spec(spec)
spec.loader.exec_module(points)
with open(sys.argv[2], "w") as fh:
    json.dump([points.to_json(m) for m in points.point_set(0, 5, points.GENERIC)], fh)
real = azy5.numeric.mobius
calls = [0]

def counted(*a):
    calls[0] += 1
    return real(*a)

for mod in [m for name, m in sys.modules.items() if name.startswith("azy5")]:
    for attr, val in list(vars(mod).items()):
        if val is real:
            setattr(mod, attr, counted)
with contextlib.redirect_stdout(io.StringIO()):
    assert azy5.cli.main(["verify", "--tau", sys.argv[2], "--seed", "0"]) == 0
print(json.dumps([calls[0], char_action.cache_info().misses]))
"""


def test_verify_transforms_each_point_once(tmp_path):
    """One `verify --tau` at the five generic points of the benchmark's
    seed-0 verify-double set, in a fresh interpreter: 150 transformed
    points (9 + 4 generator images and 15 coset factors per point, and
    10 kappa words), each from one Moebius transform, and 34 action
    tables, none of them for an inverse."""
    root = pathlib.Path(cli.__file__).parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-c", _COUNT_TRANSFORMS,
                          str(root / "perfbench" / "points.py"), str(tmp_path / "tau.json")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [150, 34]
