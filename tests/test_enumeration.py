import random
from dataclasses import replace

import pytest

from bichroma.graphs import SimpleGraph
from bichroma.engine import classical_chromatic, poly_recursive
from bichroma.enumeration import (CSV_HEADER, EnumerationRecord, TooLarge,
                                  all_graphs, all_labelled_mixed,
                                  automorphisms, colourings_of,
                                  connected_graphs, exhaustive_audit,
                                  graph_key, random_mixed_graph,
                                  records_to_csv, root_cloud)
from bichroma.polynomial import IntPolynomial
from bichroma.roots import find_roots

# graph counts up to isomorphism for n = 0..7
ALL_COUNTS = [1, 1, 2, 4, 11, 34, 156]
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112]


def test_graph_counts():
    for n, want in enumerate(ALL_COUNTS):
        assert len(all_graphs(n)) == want


def test_connected_counts():
    for n, want in enumerate(CONNECTED_COUNTS, start=1):
        assert len(connected_graphs(n)) == want


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        all_graphs(8)


def test_graph_key_isomorphism_invariant():
    a = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    b = SimpleGraph.from_edges(4, [(0, 2), (2, 3), (1, 3)])
    assert graph_key(a) == graph_key(b)
    c = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert graph_key(a) != graph_key(c)


def test_automorphisms():
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert len(automorphisms(p3)) == 2
    k3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert len(automorphisms(k3)) == 6


def test_colourings_full_count():
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert sum(1 for _ in colourings_of(p3)) == 4


def test_colourings_dedup():
    # P3 colourings up to symmetry and colour swap: RR and RB
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    reps = list(colourings_of(p3, dedup=True))
    assert len(reps) == 2


def test_all_labelled_mixed_count():
    assert sum(1 for _ in all_labelled_mixed(2)) == 4
    assert sum(1 for _ in all_labelled_mixed(3)) == 64


def test_random_mixed_deterministic():
    a = random_mixed_graph(5, random.Random(10))
    b = random_mixed_graph(5, random.Random(10))
    assert a == b


def test_root_cloud_counts_and_order():
    records = root_cloud(3, "monochromatic")
    assert len(records) == 2
    assert records == sorted(records,
                             key=lambda r: (r.graph_key, r.colouring_id))
    bi = root_cloud(3, "bichromatic")
    # P3 has 4 colourings, K3 has 8
    assert len(bi) == 12


def test_root_cloud_mono_is_classical():
    for rec in root_cloud(3, "monochromatic"):
        for g in connected_graphs(3):
            if graph_key(g) == rec.graph_key:
                assert rec.polynomial == classical_chromatic(g)


def _assert_cloud_matches_recurrence(records, graphs):
    by_key = {}
    for rec in records:
        by_key.setdefault(rec.graph_key, []).append(rec)
    for g in graphs:
        recs = by_key[graph_key(g)]
        want = list(colourings_of(g))
        assert [r.colouring_id for r in recs] == list(range(len(want)))
        for rec, M in zip(recs, want):
            assert rec.polynomial == poly_recursive(M)
            assert rec.roots == find_roots(rec.polynomial)


def test_root_cloud_matches_recurrence_up_to_n5():
    # every colouring of every connected graph, 3,088 records at n = 5
    for n in range(1, 6):
        records = root_cloud(n, "bichromatic")
        graphs = connected_graphs(n)
        assert len(records) == sum(2 ** g.edge_count() for g in graphs)
        _assert_cloud_matches_recurrence(records, graphs)


def test_root_cloud_matches_recurrence_n6_sample():
    graphs = random.Random(6).sample(connected_graphs(6), 5)
    _assert_cloud_matches_recurrence(root_cloud(6, "bichromatic"), graphs)


def test_root_cloud_shares_solved_polynomials():
    records = root_cloud(4, "bichromatic")
    by_coeffs = {}
    for rec in records:
        poly, roots = by_coeffs.setdefault(rec.polynomial.coeffs,
                                           (rec.polynomial, rec.roots))
        assert rec.polynomial is poly and rec.roots is roots


def test_root_cloud_rejects_jobs_below_one():
    with pytest.raises(ValueError):
        root_cloud(3, jobs=0)
    assert root_cloud(3, jobs=2) == root_cloud(3)


def test_csv_stable():
    records = root_cloud(3, "monochromatic")
    text = records_to_csv(records)
    assert text.splitlines()[0] == CSV_HEADER
    assert text == records_to_csv(records)
    # one row per root including conjugates
    assert len(text.splitlines()) == 1 + sum(
        r.roots.total_count() for r in records)


def test_csv_shared_and_unshared_rootsets_agree():
    shared = root_cloud(4, "bichromatic")
    unshared = [EnumerationRecord(r.graph_key, r.colouring_id,
                                  IntPolynomial(r.polynomial.coeffs),
                                  replace(r.roots)) for r in shared]
    assert unshared[0].roots is not shared[0].roots
    assert records_to_csv(unshared) == records_to_csv(shared)


def test_exhaustive_audit_n3_clean():
    s = exhaustive_audit(3)
    assert s.mixed_instances == 64
    assert s.engine_agreements == 64
    assert s.thm21_ok == 64
    assert s.thm22_agreements == 64
    assert s.thm24_agreements == 64
    assert not s.thm24_disagreements
    assert s.thm32_equivalences == s.colouring_instances
    assert s.thm33_equivalences == s.colouring_instances
    assert s.clean_except_thm24()


def test_exhaustive_audit_caps():
    with pytest.raises(TooLarge):
        exhaustive_audit(6)
