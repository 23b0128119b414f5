import os
import tracemalloc

import pytest

from bichroma import acceptance
from bichroma.cli import main

TWO_K2 = "meg 4\n0 1 R\n2 3 B\n"


@pytest.fixture
def meg_file(tmp_path):
    path = tmp_path / "g.meg"
    path.write_text(TWO_K2)
    return str(path)


def test_poly(meg_file, capsys):
    assert main(["poly", meg_file]) == 0
    assert capsys.readouterr().out.strip() == "x^4 - 2*x^3 - x^2 + 2*x"


def test_poly_engine_choice(meg_file, capsys):
    for engine in ("recursive", "partition", "interpolate"):
        assert main(["poly", meg_file, "--engine", engine]) == 0
        assert "x^4" in capsys.readouterr().out


def test_coeffs(meg_file, capsys):
    assert main(["coeffs", meg_file]) == 0
    out = capsys.readouterr().out
    assert "red=1 blue=1 flexible=0" in out
    assert "DISAGREE" in out  # the documented third-coefficient case


def test_invariant(meg_file, capsys):
    assert main(["invariant", meg_file]) == 0
    assert "2K2" in capsys.readouterr().out


def test_audit(tmp_path, capsys):
    out = str(tmp_path / "reports")
    assert main(["audit", "--n", "3", "--out", out]) == 0
    assert "64/64" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "thm24_disagreements_n3.csv"))


def test_family(capsys):
    assert main(["family", "cor42", "3"]) == 0
    out = capsys.readouterr().out
    assert "x^5 - 4*x^4 - x^3 + 16*x^2 - 12*x" in out
    assert "integer roots: -2 0 1 2 3" in out


def test_family_thm45_integer_roots(capsys):
    assert main(["family", "thm45", "30"]) == 0
    assert "integer roots: 0 1 2 3\n" in capsys.readouterr().out


def test_family_too_small(capsys):
    assert main(["family", "thm45", "3"]) == 1


def test_roots(meg_file, capsys):
    assert main(["roots", meg_file]) == 0
    out = capsys.readouterr().out
    assert "integer  -1" in out
    assert "integer  2" in out


def test_synth(tmp_path, capsys):
    g6 = tmp_path / "k4.g6"
    g6.write_text("C~\n")
    out = str(tmp_path / "k4.meg")
    assert main(["synth", str(g6), "--out", out]) == 0
    assert os.path.exists(out)
    assert main(["poly", out]) == 0
    # K4 colouring is invariant, so the classical K4 polynomial
    assert capsys.readouterr().out.strip().endswith(
        "x^4 - 6*x^3 + 11*x^2 - 6*x")


def test_synth_refusal(tmp_path, capsys):
    g6 = tmp_path / "p5.g6"
    g6.write_text("DQo\n")  # connected complement, so not a join
    code = main(["synth", str(g6)])
    out = capsys.readouterr().out
    assert code == 0
    assert "no non-trivial invariant colouring" in out


def test_cloud(tmp_path, capsys):
    csv = str(tmp_path / "c.csv")
    svg = str(tmp_path / "c.svg")
    assert main(["cloud", "--n", "3", "--csv", csv, "--svg", svg]) == 0
    assert open(csv).readline().startswith("graph_key,")
    assert open(svg).read().startswith("<?xml")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.meg"
    bad.write_text("meg x\n")
    assert main(["poly", str(bad)]) == 2


def test_missing_file_exit_code(capsys):
    assert main(["poly", "/nonexistent/g.meg"]) == 1


def test_invariant_flexible_edge_exit_code(tmp_path, capsys):
    flex = tmp_path / "flex.meg"
    flex.write_text("meg 3\n0 1 R\n1 2 F\n")
    assert main(["invariant", str(flex)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


def test_cloud_svg_missing_directory_exit_code(tmp_path, capsys):
    svg = str(tmp_path / "missing" / "c.svg")
    assert main(["cloud", "--n", "3", "--svg", svg]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


def test_family_wrong_parameter_count(capsys):
    assert main(["family", "thm45", "5", "6"]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "error: family thm45 takes 1 parameter, got 2"


def test_family_without_closed_form(capsys):
    assert main(["family", "mono_union", "2", "2"]) == 0
    assert capsys.readouterr().out.strip() == (
        "mono_union has no closed form; graph has 4 vertices and 2 edges")


def test_poly_interpolate_refuses_past_its_bound(tmp_path, capsys):
    # 9 vertices at palette 9 would need 9^8 > 4,000,000 assignments
    path = tmp_path / "edgeless9.meg"
    path.write_text("meg 9\n")
    tracemalloc.start()
    try:
        code = main(["poly", str(path), "--engine", "interpolate"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert peak < 2 ** 20  # refused before the assignment grid exists


def test_verify_reports_failed_criteria(tmp_path, monkeypatch, capsys):
    rows = [(num, num != 4, "detail") for num in range(1, 13)]
    monkeypatch.setattr(acceptance, "run_all", lambda **kwargs: rows)
    assert main(["verify", "--out", str(tmp_path)]) == 3
    assert "FAILED criteria: 4" in capsys.readouterr().out


def test_verify_all_passed(tmp_path, monkeypatch, capsys):
    rows = [(num, True, "detail") for num in range(1, 13)]
    monkeypatch.setattr(acceptance, "run_all", lambda **kwargs: rows)
    assert main(["verify", "--out", str(tmp_path)]) == 0
    assert "all 12 criteria passed" in capsys.readouterr().out
