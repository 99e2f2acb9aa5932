"""Blueprints, the gated graph, selectors, factor maps, the full pipeline."""

import dataclasses
import importlib
import json
import re

import pytest

from ttrealize.cli import main
from ttrealize.core import Path, canonical_index_list, inverse, tighten_word, validate_graph
from ttrealize.maps import GraphMap, MapChain, transition_matrix
from ttrealize.traintrack import (
    LegalizingCertificate,
    LongTurn,
    check_train_track_morphism,
    fixes_all_gates,
    gate_index_list,
    intrinsic_gate_structure,
    long_turn_image,
    verify_legalizing,
)
from ttrealize.realize import (
    CASE_EVEN,
    CASE_MAX_ODD,
    CASE_ODD,
    FactorRecord,
    InvalidIndexList,
    LegalizingSearchError,
    RealizationResult,
    SelectorError,
    _select,
    _select_witnesses,
    build_graph,
    build_legalizing_map,
    build_mixing_factors,
    eligible_gate_turns,
    enumerate_admissible,
    realize,
    select_paths,
    selector_clauses,
    validate_and_classify,
    verify_selectors,
)


# -- blueprints ----------------------------------------------------------------


def test_classify_even_case():
    bp = validate_and_classify(7, (1, 2, 1, 2, 2))
    assert bp.case == CASE_EVEN
    assert bp.gate_counts == (3, 4, 3, 4, 4)
    assert (bp.r, bp.s, bp.has_d) == (4, 2, False)


def test_classify_max_odd_case():
    bp = validate_and_classify(6, (2, 2, 1, 2, 2))
    assert bp.case == CASE_MAX_ODD
    assert (bp.r, bp.s, bp.has_d) == (4, 1, False)


def test_classify_odd_case_loop_count():
    # the rank constraint (edge count minus vertex count plus one) forces
    # two loop edges here, the d-loop making up the difference
    bp = validate_and_classify(8, (2, 2, 1, 2, 2))
    assert bp.case == CASE_ODD
    assert (bp.r, bp.s, bp.has_d) == (4, 2, True)
    graph, _ = build_graph(bp)
    assert graph.rank == 8


def test_classify_rejects_out_of_range():
    with pytest.raises(InvalidIndexList):
        validate_and_classify(4, (3, 3))  # sum 3 exceeds 4 - 3/2
    with pytest.raises(InvalidIndexList):
        validate_and_classify(2, (1,))
    with pytest.raises(InvalidIndexList):
        validate_and_classify(5, ())
    with pytest.raises(InvalidIndexList):
        validate_and_classify(5, (0, 2))


# -- graph construction -----------------------------------------------------------


def test_build_graph_even_case(even_graph):
    graph, gates = even_graph
    assert set(graph.positive_edges) == {
        "c1", "c2", "c3", "c4", "c5", "b1", "b2", "b3", "b4", "a1", "a2",
    }
    assert graph.rank == 7
    assert [gates.gate_count(v) for v in graph.vertices] == [3, 4, 3, 4, 4]
    assert validate_graph(graph).ok
    # merged gates at v1 only
    assert set(gates.gate_tokens(gates.gate_of("c1"))) == {"c1", "a1", "a2"}
    assert set(gates.gate_tokens(gates.gate_of("~c5"))) == {"~c5", "~a1", "~a2"}


def test_build_graph_smallest_instance():
    bp = validate_and_classify(3, (1,))
    graph, gates = build_graph(bp)
    assert set(graph.positive_edges) == {"c1", "a1", "d"}
    assert graph.rank == 3
    assert gates.gate_count("v1") == 3
    assert set(gates.gate_tokens(gates.gate_of("d"))) == {"d", "~d"}


def test_build_graph_max_odd_gates(max_odd_instance):
    gates = max_odd_instance.gates
    assert set(gates.gate_tokens(gates.gate_of("c1"))) == {"c1", "a1"}
    # the reversed loop and reversed last circle edge sit in their own gates
    assert gates.gate_tokens(gates.gate_of("~a1")) == ("~a1",)
    assert gates.gate_tokens(gates.gate_of("~c5")) == ("~c5",)
    assert gates.gate_count("v1") == max_odd_instance.blueprint.gate_counts[0]


def test_gate_counts_match_blueprint_everywhere():
    for rank, entries in [(5, (2, 2)), (6, (1, 1, 1)), (4, (1, 2)), (4, (5,))]:
        bp = validate_and_classify(rank, entries)
        graph, gates = build_graph(bp)
        assert [gates.gate_count(v) for v in graph.vertices] == list(bp.gate_counts)
        assert graph.rank == rank


# -- selectors ---------------------------------------------------------------------


def test_selector_trivial_cases():
    bp = validate_and_classify(5, (1, 1))  # even, r=1, s=3
    graph, gates = build_graph(bp)
    sel = select_paths(graph, gates, bp)
    # a secondary loop is its own carrier: u and u' empty
    assert sel["carrier", "a2"] == ("a2",)
    # loops exit through the reversed anchor gate, so their extension is empty
    assert sel["exit", "a2"] == ()


def test_selector_detour_is_d_loop_without_chords():
    bp = validate_and_classify(3, (1,))  # odd with r = 0: no chord edges at all
    graph, gates = build_graph(bp)
    sel = select_paths(graph, gates, bp)
    detours = {key: w for (kind, key), w in sel.items() if kind in ("detour", "return")}
    assert detours and set(detours.values()) == {("d",)}


def test_selectors_are_deterministic(even_graph):
    graph, gates = even_graph
    bp = validate_and_classify(7, (1, 2, 1, 2, 2))
    first = select_paths(graph, gates, bp)
    second = select_paths(graph, gates, bp)
    assert first == second


def _witness_rows(rank, entries):
    bp = validate_and_classify(rank, entries)
    graph, gates = build_graph(bp)
    return graph, gates, [c for c in selector_clauses(graph, gates, bp) if c.kind == "witness"]


def _first_list_of_each_case(rank):
    firsts = {}
    for entries in enumerate_admissible(rank):
        firsts.setdefault(validate_and_classify(rank, entries).case, entries)
    return list(firsts.values())


def test_the_shared_witness_search_finds_the_per_row_words():
    """The one forward and one backward search pick, for every witness row,
    the word the per-row search picks: on every rank 3-6 list and on one
    list per case at ranks 7 and 8."""
    cases = [(rank, entries) for rank in range(3, 7) for entries in enumerate_admissible(rank)]
    cases += [(rank, entries) for rank in (7, 8) for entries in _first_list_of_each_case(rank)]
    rows = 0
    for rank, entries in cases:
        graph, gates, witnesses = _witness_rows(rank, entries)
        expected = {c.key: _select(graph, gates, c) for c in witnesses}
        assert _select_witnesses(graph, gates, witnesses) == expected, (rank, entries)
        rows += len(witnesses)
    assert len(cases) == 170 and rows == 3423  # 3,248 of them at ranks 3-6


def test_the_shared_witness_search_raises_where_no_word_crosses_the_turn():
    """In the maximal odd case ~a1 is a gate of its own and banned, so no
    witness crosses a turn at it: both searches raise and name the row."""
    graph, gates, witnesses = _witness_rows(3, (3,))
    pair = tuple(sorted((gates.gate_of("c1"), gates.gate_of("~a1"))))
    clause = dataclasses.replace(witnesses[0], key=pair, turn=frozenset(pair))
    for search in (_select_witnesses, lambda graph, gates, rows: _select(graph, gates, rows[0])):
        with pytest.raises(SelectorError, match=rf"^no path satisfies {re.escape(clause.name)}$"):
            search(graph, gates, [clause])


def test_select_max_len_bounds_the_shared_witness_search(monkeypatch):
    """A row whose shortest word is longer than SELECT_MAX_LEN has no
    word: at one below the longest witness word, the first row that needs
    it raises in both searches, and at that length every row is found."""
    realize_module = importlib.import_module("ttrealize.realize")
    graph, gates, witnesses = _witness_rows(5, (2, 1))
    words = _select_witnesses(graph, gates, witnesses)
    longest = max(map(len, words.values()))
    first = next(c for c in witnesses if len(words[c.key]) == longest)
    monkeypatch.setattr(realize_module, "SELECT_MAX_LEN", longest)
    assert _select_witnesses(graph, gates, witnesses) == words
    assert _select(graph, gates, first) == words[first.key]
    monkeypatch.setattr(realize_module, "SELECT_MAX_LEN", longest - 1)
    message = rf"^no path satisfies {re.escape(first.name)}$"
    with pytest.raises(SelectorError, match=message):
        _select_witnesses(graph, gates, witnesses)
    with pytest.raises(SelectorError, match=message):
        _select(graph, gates, first)


def _crossed_gate_turns(gates, loop):
    return {
        frozenset((gates.gate_of(inverse(loop[k])), gates.gate_of(loop[k + 1])))
        for k in range(len(loop) - 1)
    }


def _plant_missing_turn(sel, gates):
    """Give one witness the loop of another witness that misses its turn."""
    witnesses = {key: w for (kind, key), w in sel.items() if kind == "witness"}
    for pair in witnesses:
        for loop in witnesses.values():
            if frozenset(pair) not in _crossed_gate_turns(gates, loop):
                return {("witness", pair): loop}, f"witness{pair}"
    raise AssertionError("every witness loop crosses every turn")


# Rank 5, [1/2, 1/2] (even case, loops a1..a3, circle c1 c2): each plant
# breaks one clause of one selector and keeps the path a valid edge path.
PLANTS = {
    "carrier crosses e twice": (
        lambda sel, gates: ({("carrier", "c2"): ("c1", "c2", "c1", "c2")}, "carrier(c2)"),
        "more than once",
    ),
    "witness misses its turn": (_plant_missing_turn, "turn"),
    "exit does not end in gate 2": (
        lambda sel, gates: ({("exit", "c1"): ()}, "exit(c1)"),
        "end",
    ),
    "detour starts in gate 1": (
        lambda sel, gates: ({("detour", "a1"): ("c1", "c2")}, "detour(a1)"),
        "start",
    ),
    "entry starts outside gate 1": (
        lambda sel, gates: ({("entry", "c2"): ()}, "entry(c2)"),
        "start",
    ),
    "return ends in gate 2": (
        lambda sel, gates: ({("return", "a1"): ("c1", "c2")}, "return(a1)"),
        "end",
    ),
    "carrier crosses the anchor loop": (
        lambda sel, gates: ({("carrier", "c2"): ("c1", "c2", "a1")}, "carrier(c2)"),
        "banned",
    ),
}


@pytest.mark.parametrize("plant", list(PLANTS))
def test_verify_selectors_names_each_violated_clause(plant):
    bp = validate_and_classify(5, (1, 1))
    graph, gates = build_graph(bp)
    sel = select_paths(graph, gates, bp)
    verify_selectors(graph, gates, bp, sel)
    make, keyword = PLANTS[plant]
    changes, clause = make(sel, gates)
    with pytest.raises(SelectorError) as info:
        verify_selectors(graph, gates, bp, {**sel, **changes})
    message = str(info.value)
    assert re.search(rf"^{re.escape(clause)}: .*{keyword}", message, re.M), message


# -- factor maps -------------------------------------------------------------------


def test_link_map_threads_anchor_and_edge(even_instance):
    for rec in even_instance.mixing_factors:
        if not rec.name.startswith("link"):
            continue
        e = rec.name[5:-1]
        image_of_anchor = rec.map.image_edges("a1")
        image_of_e = rec.map.image_edges(e)
        assert e in image_of_anchor
        assert "a1" in image_of_e
        assert image_of_e.count(e) == 2


def test_stamp_maps_touch_only_anchor(even_instance):
    (rec,) = [r for r in even_instance.mixing_factors if r.name.startswith("stamp")]
    assert rec is even_instance.mixing_factors[-1] and rec.name == "stamps"
    for e in even_instance.graph.positive_edges:
        if e != "a1":
            assert rec.map.image_edges(e) == (e,)
    assert rec.map.image_edges("a1")[-1] == "a1"


def test_the_stamps_record_is_the_product_of_the_per_turn_stamps(monkeypatch):
    """On every rank 3-4 list the one ``stamps`` record is the map of the
    per-turn stamps a1 -> v a1, one per eligible gate turn in order, built
    from the same selected witnesses; its a1 image is reduced and ends in
    a1.  A list with no eligible turn would get no ``stamps`` record."""
    realize_module = importlib.import_module("ttrealize.realize")
    lists = [(rank, lst) for rank in (3, 4) for lst in enumerate_admissible(rank)]
    for rank, lst in lists:
        bp = validate_and_classify(rank, lst)
        graph, gates = build_graph(bp)
        sel = select_paths(graph, gates, bp)
        *links, stamps = build_mixing_factors(graph, gates, bp, sel)
        assert stamps.name == "stamps" and all(r.name.startswith("link[") for r in links)
        per_turn = [
            GraphMap.from_updates(graph, {"a1": sel["witness", pair] + ("a1",)})
            for pair in eligible_gate_turns(graph, gates, bp)
        ]
        assert len(per_turn) > 1, (rank, lst)
        product = MapChain(graph, per_turn).materialize()
        assert MapChain(graph, [stamps.map]).materialize().factors == product.factors, (rank, lst)
        word = stamps.map.image_edges("a1")
        assert tighten_word(word) == word and word[-1] == "a1", (rank, lst)
        with monkeypatch.context() as patched:
            patched.setattr(realize_module, "eligible_gate_turns", lambda graph, gates, bp: [])
            assert build_mixing_factors(graph, gates, bp, sel) == links


def test_mixing_map_is_positive_and_expanding(even_instance):
    m = transition_matrix(even_instance.h)
    assert m.is_positive
    assert all(
        even_instance.h.image_length(e) >= 2
        for e in even_instance.graph.positive_edges
    )


def test_half_mix_crosses_anchor_both_ways(even_instance):
    """Every half-mix image crosses the anchor loop, and the anchor's image
    crosses every edge: positivity of the full mix follows."""
    graph = even_instance.graph
    half = MapChain(graph, [r.map for r in even_instance.mixing_factors])
    m = transition_matrix(half)
    for e in graph.positive_edges:
        assert m.entry("a1", e) >= 1  # a1 appears in the image of e
        assert m.entry(e, "a1") >= 1  # e appears in the image of a1


def test_max_odd_legalizer_on_single_circle():
    """Frozen long-turn image for the one-vertex maximal odd instance.

    With one circle edge and the chord at the base vertex, the legalizer's
    image of the long turn (a1 c1, c1 c1) is computed by hand to be
    (b1 a1 c1, c1 b1 a1 c1)."""
    res = realize(3, (3,))
    assert res.blueprint.case == CASE_MAX_ODD
    rec = res.legalizers[0]
    assert rec.name == "legalize[a1,c1]"
    lt = LongTurn(Path("v1", ("a1", "c1")), Path("v1", ("c1", "c1")))
    image = long_turn_image(rec.map, lt)
    branches = {image.branch_a.edges, image.branch_b.edges}
    assert branches == {("b1", "a1", "c1"), ("c1", "b1", "a1", "c1")}
    assert image.is_legal(res.gates)


def test_every_factor_is_train_track_and_fixes_gates(max_odd_instance):
    gates = max_odd_instance.gates
    for rec in max_odd_instance.mixing_factors + max_odd_instance.legalizers:
        one = MapChain(max_odd_instance.graph, [rec.map])
        assert check_train_track_morphism(one, gates).ok, rec.name
        assert one.fixes_all_vertices(), rec.name
        assert fixes_all_gates(one, gates), rec.name
        for e in max_odd_instance.graph.positive_edges:
            if rec.name.startswith(("link", "stamp")):
                # the image of every edge crosses the edge itself
                word = [t for t in rec.map.image_edges(e)]
                assert e in word or inverse(e) in word, (rec.name, e)


# -- the legalizing ladder ------------------------------------------------------------


def test_even_case_certificate_small_branch_length(even_instance):
    assert even_instance.C <= 8
    assert verify_legalizing(even_instance.g, even_instance.gates, even_instance.C).ok
    assert intrinsic_gate_structure(even_instance.g) == even_instance.gates


def test_legalizing_search_log_records_rounds(even_instance):
    r = even_instance
    g, cert, log = build_legalizing_map(r.gates, r.blueprint, r.g)
    assert g is r.g and cert.ok and cert.branch_length == r.C
    assert log == [f"h∘L∘h legalizing at C={cert.branch_length}"]


def planted_witness(monkeypatch, reason: str) -> list[int]:
    """Make every legalizing check in realize fail with ``reason``; returns
    the C of each check, in order."""
    calls = []
    image_turn = ("a1", "c1") if reason == "illegal image turn" else None

    def failing(g, gates, C):
        calls.append(C)
        return LegalizingCertificate(C, 1, 1, "failed", (("a1",), ("c1",)), reason, image_turn)

    monkeypatch.setattr(importlib.import_module("ttrealize.realize"), "verify_legalizing", failing)
    return calls


def test_an_illegal_image_turn_ends_the_legalizing_ladder(monkeypatch):
    calls = planted_witness(monkeypatch, "illegal image turn")
    with pytest.raises(LegalizingSearchError, match=r"h∘L∘h is not legalizing at C=1 \(cap 64\)"):
        realize(3, (1,))
    assert calls == [1]


@pytest.mark.parametrize("entries", [(1,), (3,)])
def test_the_legalizing_ladder_doubles_c_up_to_the_cap(monkeypatch, entries):
    """C runs over l, 2l, ..., 64l = c_max (l the long-turn length: 1 in the
    odd case, 2 in the rank 3 maximal odd one) while the witness is only
    not g-long, and then the search gives up, naming the cap."""
    bp = validate_and_classify(3, entries)
    calls = planted_witness(monkeypatch, "not g-long")
    with pytest.raises(LegalizingSearchError, match=f"cap {bp.c_max}"):
        realize(3, entries)
    assert calls == [bp.long_turn_length * 2**k for k in range(7)]
    assert calls[-1] == bp.c_max


# -- the full pipeline ----------------------------------------------------------------


def test_realize_even_case_index_list(even_instance):
    assert even_instance.report.level == "full_theorem_62"
    assert even_instance.report.index_list == (2, 2, 2, 1, 1)


def test_realize_smallest_instance(odd_instance):
    assert odd_instance.report.index_list == (1,)
    assert odd_instance.graph.rank == 3
    assert len(odd_instance.graph.vertices) == 1


def test_realize_uses_max_odd_pipeline_at_the_boundary():
    for rank in (3, 4):
        entries = (2 * rank - 3,)
        res = realize(rank, entries)
        assert res.blueprint.case == CASE_MAX_ODD
        assert res.report.index_list == canonical_index_list(entries)


def test_realized_gate_index_list_matches_input(max_odd_instance):
    got = gate_index_list(
        max_odd_instance.graph,
        max_odd_instance.gates,
        max_odd_instance.graph.vertices,
    )
    assert got == max_odd_instance.blueprint.index_list


def test_result_json_round_trip(odd_instance):
    data = odd_instance.to_json()
    clone = RealizationResult.from_json(data)
    assert clone.graph.to_json() == odd_instance.graph.to_json()
    assert clone.gates == odd_instance.gates
    assert clone.final.factors == odd_instance.final.factors
    assert clone.C == odd_instance.C
    assert verify_legalizing(clone.g, clone.gates, clone.C).ok


def test_a_builder_fault_is_graded_not_raised(monkeypatch, tmp_path):
    """A faulty record from the builder grades below the full tier, with a
    note naming it, through the grader that certify uses; the command line
    writes the document and exits 3."""
    realize_module = importlib.import_module("ttrealize.realize")
    build = realize_module.build_mixing_factors

    def faulty(graph, gates, bp, sel):
        # a train track morphism whose image misses a1: not onto on pi_1
        stamps = FactorRecord("stamps", GraphMap.from_updates(graph, {"a1": ("c1", "c1", "a1", "a1")}))
        return [stamps if rec.name == "stamps" else rec for rec in build(graph, gates, bp, sel)]

    monkeypatch.setattr(realize_module, "build_mixing_factors", faulty)
    result = realize(3, (1,))
    assert result.report.level == "failed"
    assert "factor stamps is not a homotopy equivalence" in result.report.notes
    out = tmp_path / "faulty.json"
    assert main(["realize", "--rank", "3", "--index-list", "1/2", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["report"] == result.report.to_json()
