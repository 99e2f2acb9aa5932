"""Acceptance suite: the five exit criteria, one pass/fail line each.

Criterion 1 sweeps every admissible index list for ranks 3 through 6 and
is the slow part (about a minute); the later criteria reuse its results.
"""

import random

import pytest

from ttrealize.cli import enumerate_admissible
from ttrealize.core import canonical_index_list, format_index_list
from ttrealize.maps import compose_maps, transition_matrix
from ttrealize.marking import verify_homotopy_equivalence
from ttrealize.traintrack import (
    intrinsic_gate_structure,
    legal_paths_from,
    whitehead_graphs,
)
from ttrealize.realize import CASE_EVEN, CASE_MAX_ODD, CASE_ODD, realize, verify_selectors
from ttrealize.certify import FULL_THEOREM, periodic_class_status
from ttrealize.experiment import run_experiment
from tests.test_maps import random_graph, random_self_map

RANKS = (3, 4, 5, 6)


@pytest.fixture(scope="module")
def sweep():
    """Every admissible list for ranks 3..6, realized and certified."""
    results = []
    for rank in RANKS:
        for entries in enumerate_admissible(rank):
            results.append((rank, entries, realize(rank, entries)))
    return results


def test_criterion_1_exhaustive_realization(sweep):
    failures = []
    for rank, entries, result in sweep:
        wanted = canonical_index_list(entries)
        if result.report.level != FULL_THEOREM:
            failures.append((rank, entries, result.report.level))
        elif result.report.index_list != wanted:
            failures.append((rank, entries, result.report.index_list))
    counts = {rank: sum(1 for r, _, _ in sweep if r == rank) for rank in RANKS}
    assert counts == {3: 6, 4: 18, 5: 44, 6: 96}
    assert not failures, failures
    print(
        f"\nACCEPTANCE 1: PASS - {len(sweep)} admissible lists over ranks 3..6 all"
        " realize with a full certificate and exact index-list match"
    )


def test_criterion_2_index_deficit_coverage(sweep):
    """At rank 5 every deficit in {1/2, ..., 7/2} is hit by some certified run."""
    deficits = set()
    for rank, entries, result in sweep:
        if rank != 5 or result.report.level != FULL_THEOREM:
            continue
        doubled_deficit = 2 * (rank - 1) - sum(result.report.index_list)
        deficits.add(doubled_deficit)
    assert deficits >= {1, 2, 3, 4, 5, 6, 7}, deficits
    print(
        "ACCEPTANCE 2: PASS - rank-5 certified realizations attain every index"
        " deficit in {1/2, 1, 3/2, 2, 5/2, 3, 7/2}"
    )


def test_criterion_3_per_construction_properties(sweep):
    sampled = sweep
    for rank, entries, result in sampled:
        graph, gates, bp = result.graph, result.gates, result.blueprint
        # selected paths satisfy their clauses (raises on violation)
        verify_selectors(graph, gates, bp, result.selectors)
        # the mixing map has a positive matrix and connected gate graphs,
        # complete ones away from the maximal odd case
        assert transition_matrix(result.h).is_positive, (rank, entries)
        whs = whitehead_graphs(result.h, gates)
        for v, wh in whs.items():
            assert wh.is_connected(), (rank, entries, v)
            if bp.case in (CASE_EVEN, CASE_ODD):
                assert wh.is_complete(), (rank, entries, v)
        # the stored C stays under the cap that certify enforces
        assert result.legalizing_cert.branch_length <= bp.c_max, (rank, entries)
        # the given gates are recovered as the intrinsic ones
        assert intrinsic_gate_structure(result.g) == gates
        assert intrinsic_gate_structure(result.final) == gates
        # every factor map is undone by its explicit homotopy inverse
        for rec in result.mixing_factors + result.legalizers:
            assert verify_homotopy_equivalence(
                rec.map, rec.inverse, result.marking
            ), (rank, entries, rec.name)
    print(
        "ACCEPTANCE 3a: PASS - selector clauses, positive mixing matrix,"
        " Whitehead connectivity/completeness, recovered gates, factor inverses"
    )

    # maximal odd case, circle length <= 5: exhaustive legalization check of
    # the long turns of branch length l+1 starting at the unique illegal
    # turn; each branch image is spelled once, then every pair is compared
    checked_instances = checked_pairs = 0
    for rank, entries, result in sampled:
        bp = result.blueprint
        if bp.case != CASE_MAX_ODD or bp.circle_length > 5:
            continue
        checked_instances += 1
        graph, gates = result.graph, result.gates
        legalizer = result.legalizers[0].map
        length = bp.circle_length + 1
        images_a, images_b = (
            [legalizer.apply_path(graph.path("v1", word)).edges
             for word in legal_paths_from(graph, gates, first, length)]
            for first in ("a1", "c1")
        )
        for wa in images_a:
            for wb in images_b:
                limit = min(len(wa), len(wb))
                cut = 0
                while cut < limit and wa[cut] == wb[cut]:
                    cut += 1
                # the images diverge, and along a legal turn
                assert cut < limit, (rank, entries, wa, wb)
                assert gates.is_legal_turn(wa[cut], wb[cut]), (rank, entries, wa, wb)
        checked_pairs += len(images_a) * len(images_b)
    assert checked_instances >= 4
    print(
        f"ACCEPTANCE 3b: PASS - exhaustive long-turn legalization of"
        f" {checked_pairs} long turns on {checked_instances} maximal odd"
        " instances with short circles"
    )

    rng = random.Random(271828)
    for _ in range(200):
        graph = random_graph(rng)
        f = random_self_map(graph, rng)
        g = random_self_map(graph, rng)
        assert (
            transition_matrix(compose_maps(f, g)).rows
            == (transition_matrix(f) @ transition_matrix(g)).rows
        )
    print(
        "ACCEPTANCE 3c: PASS - transition matrices multiply across 200 random"
        " composable pairs on graphs with at most 8 working edges"
    )


def test_criterion_4_nielsen_path_behavior(sweep, rose2):
    by_case = {CASE_EVEN: [], CASE_ODD: [], CASE_MAX_ODD: []}
    for rank, entries, result in sweep:
        by_case[result.blueprint.case].append(result)
    chosen = (
        by_case[CASE_EVEN][:8] + by_case[CASE_ODD][:6] + by_case[CASE_MAX_ODD][:6]
    )
    assert len(chosen) >= 20
    for result in chosen:
        inp = result.report.inp
        assert inp.verdict == "none_found", result.blueprint
        assert inp.period_bound == 8 and inp.length_bound == 200
    from ttrealize.maps import GraphMap

    fib = GraphMap(rose2, {"a": ("a", "b"), "b": ("a",)})
    status, t = periodic_class_status(fib, ("a", "b", "~a", "~b"), t_max=6)
    assert (status, t) == ("recurrent", 2)
    print(
        "ACCEPTANCE 4: PASS - bounded Nielsen-path search clean on 20"
        " certified realizations across all three cases; the golden-ratio"
        " rose map's commutator class recurs at exponent 2 in the cyclic test"
    )


def test_criterion_5_experiment_determinism():
    seed = 20240901
    first = run_experiment(3, 26, 100, seed)
    second = run_experiment(3, 26, 100, seed)
    assert first.canonical_json() == second.canonical_json()
    for key in first.list_counts:
        total = 0
        for part in key.strip("[]").split(","):
            part = part.strip()
            if part:
                total += int(part[:-2]) if part.endswith("/2") else 2 * int(part)
        assert total <= 2 * (3 - 1)
    text = first.text_table()
    assert "qualitative" in text
    assert "64%" in text
    print(
        "ACCEPTANCE 5: PASS - (rank 3, 26 factors, 100 samples) reproduces a"
        " bit-identical table; index sums stay within the admissible region;"
        " the two-sided reference row is quoted for qualitative comparison"
    )
