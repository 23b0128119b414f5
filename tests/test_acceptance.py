"""Acceptance gate: `bichroma verify`'s own acceptance.run_all, run once
per session into a temporary directory.  Each test asserts one
criterion's row and prints its [PASS]/[FAIL] line with its evidence.

Tolerances are pinned in the acceptance module: root residuals at 1e-9,
limit-line distance checks at 0.15, wall-clock budgets per criterion.
The two small report artifacts are compared byte for byte with the
copies committed in acceptance_out/; to regenerate those, run
`bichroma verify --out DIR` and copy thm24_disagreements.csv and
figure_summary.txt from DIR.
"""

import os
import sys
import tempfile

import pytest

from bichroma import acceptance

COMMITTED = os.path.join(os.path.dirname(__file__), "..", "acceptance_out")
ARTIFACTS = ("thm24_disagreements.csv", "figure_summary.txt")


@pytest.fixture(scope="session")
def verify_run():
    # a directory removed at once: the two n=6 cloud CSVs take 36 MB
    with tempfile.TemporaryDirectory() as out_dir:
        results = acceptance.run_all(out_dir=out_dir, emit=lambda line: None)
        artifacts = {}
        for name in ARTIFACTS:
            with open(os.path.join(out_dir, name), "rb") as fh:
                artifacts[name] = fh.read()
    return {num: (ok, detail) for num, ok, detail in results}, artifacts


@pytest.fixture
def report(verify_run, capsys):
    def _report(num):
        ok, detail = verify_run[0][num]
        line = acceptance.format_line(num, ok, detail)
        with capsys.disabled():
            # bypass capture so every criterion line shows in the run log
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()
        assert ok, line
    return _report


def test_criterion_01_engine_agreement(report):
    report(1)


def test_criterion_02_degree_monic_constant(report):
    report(2)


def test_criterion_03_second_coefficient(report):
    report(3)


def test_criterion_04_third_coefficient_audit(report):
    report(4)


def test_criterion_05_clique_union_family(report):
    report(5)


def test_criterion_06_bipartite_family(report):
    report(6)


def test_criterion_07_shift_formula(report):
    report(7)


def test_criterion_08_invariance_equivalences(report):
    report(8)


def test_criterion_09_synthesis(report):
    report(9)


def test_criterion_10_root_cloud(report):
    report(10)


def test_criterion_11_limit_curve(report):
    report(11)


def test_criterion_12_root_numerics(report):
    report(12)


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_matches_committed(verify_run, name):
    with open(os.path.join(COMMITTED, name), "rb") as fh:
        assert verify_run[1][name] == fh.read()
