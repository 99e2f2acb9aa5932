"""Fundamental-group markings and induced endomorphisms."""

import json
import pathlib
import random

import pytest

from ttrealize.core import Graph, tighten_word
from ttrealize.maps import GraphMap, MapChain, compose_maps, is_homotopy_equivalence
from ttrealize.marking import (
    MarkingError,
    build_marking,
    pi1_automorphism,
    verify_homotopy_equivalence,
)
from tests.test_maps import random_self_map


def test_rose_marking_and_fibonacci_endomorphism(rose2):
    marking = build_marking(rose2)
    assert marking.tree_edges == frozenset()
    assert marking.basis == {"a": "x1", "b": "x2"}
    f = GraphMap(rose2, {"a": ("a", "b"), "b": ("a",)})
    endo = pi1_automorphism(f, marking)
    assert endo == {"x1": ("x1", "x2"), "x2": ("x1",)}


def test_identity_induces_identity(even_instance):
    marking = build_marking(even_instance.graph)
    ident = GraphMap.identity(even_instance.graph)
    endo = pi1_automorphism(ident, marking)
    for gen, word in endo.items():
        assert word == (gen,)


def test_even_case_marking_has_rank_many_letters(even_instance):
    graph = even_instance.graph
    marking = build_marking(graph)
    # the deterministic tree prefers the circle edges
    assert marking.tree_edges == frozenset({"c1", "c2", "c3", "c4"})
    basis_edges = sorted(marking.basis)
    assert basis_edges == ["a1", "a2", "b1", "b2", "b3", "b4", "c5"]
    assert len(marking.basis) == graph.rank == 7


def test_marking_requires_connectivity():
    two = Graph(["u", "v"], [("a", "u", "u"), ("b", "v", "v")])
    with pytest.raises(MarkingError):
        build_marking(two)


def test_homotopy_equivalence_identity(even_instance):
    ident = GraphMap.identity(even_instance.graph)
    assert verify_homotopy_equivalence(ident, ident, build_marking(even_instance.graph))


def test_homotopy_equivalence_turn_stamp_style(even_instance):
    graph = even_instance.graph
    marking = build_marking(graph)
    # a1 -> v a1 against a1 -> v-reversed a1, for a legal loop v at v1
    v = ("c1", "c2", "c3", "c4", "c5")
    v_back = ("~c5", "~c4", "~c3", "~c2", "~c1")
    fwd = GraphMap.from_updates(graph, {"a1": v + ("a1",)})
    back = GraphMap.from_updates(graph, {"a1": v_back + ("a1",)})
    assert verify_homotopy_equivalence(fwd, back, marking)
    wrong = GraphMap.from_updates(graph, {"a1": v + ("a1", "a1")})
    assert not verify_homotopy_equivalence(fwd, wrong, marking)


# The version-1 rank 3 [1/2] document still stores, next to each factor
# record, the inverse that the builders wrote before certify checked the
# factors by a fold.
V1_DOCUMENT = pathlib.Path(__file__).parent / "data" / "realization_r3_half_v1.json"


def v1_records():
    """The version-1 graph and its records as (name, map, stored inverse)."""
    doc = json.loads(V1_DOCUMENT.read_text())
    graph = Graph.from_json(doc["graph"])
    records = [
        (r["name"], GraphMap.from_json(graph, r["map"]), GraphMap.from_json(graph, r["inverse"]))
        for r in doc["mixing_factors"] + doc["legalizers"]
    ]
    return graph, records


def test_homotopy_equivalence_loop_turn_legalizer():
    """The d-loop legalizer against its listed inverse, and onto by the fold."""
    graph, records = v1_records()
    _, fwd, back = next(r for r in records if r[0] == "legalize[d,~d]")
    assert verify_homotopy_equivalence(fwd, back, build_marking(graph))
    assert is_homotopy_equivalence(fwd)


def test_all_factor_inverses_on_small_instance(odd_instance):
    graph, records = v1_records()
    marking = build_marking(graph)
    for name, fwd, back in records:
        assert verify_homotopy_equivalence(fwd, back, marking), name
        assert is_homotopy_equivalence(fwd), name
    # the listed maps are the ones realize builds today, except that its one
    # stamps record is the product of the listed per-turn stamps
    built = odd_instance.mixing_factors + odd_instance.legalizers
    stamps = [fwd for name, fwd, _ in records if name.startswith("stamp[")]
    assert len(stamps) > 1
    listed = [(name, fwd) for name, fwd, _ in records if not name.startswith("stamp[")]
    assert [(r.name, r.map) for r in built if r.name != "stamps"] == listed
    (merged,) = [r.map for r in built if r.name == "stamps"]
    assert MapChain(graph, stamps).materialize().factors == (merged,)


def test_pi1_respects_composition(rose2):
    marking = build_marking(rose2)
    rng = random.Random(13)
    for _ in range(25):
        f = random_self_map(rose2, rng)
        g = random_self_map(rose2, rng)
        endo_fg = pi1_automorphism(compose_maps(f, g), marking)
        endo_f = pi1_automorphism(f, marking)
        endo_g = pi1_automorphism(g, marking)

        def apply(endo, word):
            out = []
            for token in word:
                if token.startswith("~"):
                    out.extend(
                        "~" + t if not t.startswith("~") else t[1:]
                        for t in reversed(endo[token[1:]])
                    )
                else:
                    out.extend(endo[token])
            return tighten_word(tuple(out))

        for gen in endo_g:
            assert endo_fg[gen] == apply(endo_f, endo_g[gen])


def test_pi1_needs_fixed_basepoint():
    square = Graph(
        ["u", "v"],
        [("p", "u", "v"), ("q", "u", "v"), ("r", "u", "v")],
    )
    marking = build_marking(square)
    swap = GraphMap(
        square,
        {"p": ("~p",), "q": ("~q",), "r": ("~r",)},
        {"u": "v", "v": "u"},
    )
    with pytest.raises(MarkingError):
        pi1_automorphism(swap, marking)
