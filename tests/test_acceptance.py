"""Acceptance gate: one test per criterion, each printing a single
[PASS]/[FAIL] line with its evidence.

The expensive shared state (the exhaustive/random engine sweep and the
n=6 root clouds) is computed once per session.  Tolerances are pinned in
the acceptance module: root residuals at 1e-9, limit-line distance checks
at 0.15, wall-clock budgets per criterion.
"""

import os
import sys

import pytest

from bichroma import acceptance

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "acceptance_out")


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail):
        line = "[%s] criterion %2d %s: %s" % ("PASS" if ok else "FAIL", num,
                                              name, detail)
        with capsys.disabled():
            # bypass capture so every criterion line shows in the run log
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()
        assert ok, "criterion %d (%s): %s" % (num, name, detail)
    return _report


@pytest.fixture(scope="session")
def sweep():
    return acceptance.SweepData(seed=acceptance.DEFAULT_SEED)


@pytest.fixture(scope="session")
def clouds_result():
    os.makedirs(OUT_DIR, exist_ok=True)
    return acceptance.criterion_10(out_dir=OUT_DIR)


def test_criterion_01_engine_agreement(sweep, report):
    report(1, "engine triple agreement", *acceptance.criterion_1(sweep))


def test_criterion_02_degree_monic_constant(sweep, report):
    report(2, "degree and leading structure", *acceptance.criterion_2(sweep))


def test_criterion_03_second_coefficient(sweep, report):
    report(3, "second-coefficient formula", *acceptance.criterion_3(sweep))


def test_criterion_04_third_coefficient_audit(sweep, report):
    os.makedirs(OUT_DIR, exist_ok=True)
    report(4, "third-coefficient audit",
            *acceptance.criterion_4(sweep, out_dir=OUT_DIR))


def test_criterion_05_clique_union_family(report):
    report(5, "blue-clique union family", *acceptance.criterion_5())


def test_criterion_06_bipartite_family(report):
    report(6, "complete-bipartite family", *acceptance.criterion_6())


def test_criterion_07_shift_formula(report):
    report(7, "clique-join shift formula", *acceptance.criterion_7())


def test_criterion_08_invariance_equivalences(report):
    report(8, "invariance equivalences", *acceptance.criterion_8())


def test_criterion_09_synthesis(report):
    report(9, "invariant colouring synthesis", *acceptance.criterion_9())


def test_criterion_10_root_cloud(clouds_result, report):
    ok, detail, _ = clouds_result
    report(10, "root cloud reproduction", ok, detail)


def test_criterion_11_limit_curve(report):
    report(11, "limit curve", *acceptance.criterion_11())


def test_criterion_12_root_numerics(clouds_result, report):
    _, _, clouds = clouds_result
    report(12, "root numerics", *acceptance.criterion_12(clouds=clouds))
