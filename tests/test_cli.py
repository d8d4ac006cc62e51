"""End-to-end CLI behaviour: exit codes, report files, sample-point
loading, and determinism."""

import json

import pytest

from azy5 import cli
from azy5.siegel import SiegelPoint, sample_taus


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


def test_geometry_default_and_addition_mode(tmp_path):
    out = tmp_path / "t.json"
    assert run(["geometry", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["payload"]["tetrahedra"]) == 15
    assert run(["geometry", "verify-addition", "--samples", "1"]) == 0


@pytest.mark.parametrize("form", ["chi5", "chi10", "p2", "chi12", "azy", "chi5det"])
def test_forms_eval_each(form):
    assert run(["forms-eval", "--form", form]) == 0


def test_forms_alias_with_verb(capsys):
    assert run(["forms", "eval", "--form", "p2"]) == 0
    assert "p2 error bound within target" in capsys.readouterr().out


def test_lambda_alias(tmp_path):
    out = tmp_path / "l.json"
    assert run(["lambda", "--samples", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    lam = rep["payload"]["lambda"]
    assert abs(lam[0] + 2.0 ** -57 / 1000.0) < 1e-26
    assert "normalization" in rep["payload"]


def test_full_verify_alias(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run(["verify", "--samples", "2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    rep = json.loads(out.read_text())
    names = [c["name"] for c in rep["checks"]]
    assert "phi modularity generator J" in names
    assert "lambda ratio spread" in names
    assert "geometric crosscheck product" in names


def test_usage_errors_exit_2():
    for argv in (["no-such-command"],
                 ["orbits", "--eps", "1e-40"],
                 ["orbits", "--eps", "nan"],
                 ["orbits", "--eps", "inf"],
                 ["verify-addition", "--samples", "0"],
                 ["forms-eval"]):
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 2


def test_malformed_tau_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify-addition", "--tau", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


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
