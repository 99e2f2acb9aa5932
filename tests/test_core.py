"""Graphs, paths, tightening, gates, legality."""

import pytest
from hypothesis import given, settings, strategies as st

from ttrealize.core import (
    GateStructure,
    Graph,
    GraphError,
    Path,
    canonical_index_list,
    format_index_entry,
    format_index_list,
    inverse,
    inverse_word,
    parse_index_list,
    tighten,
    validate_graph,
)
from reference import graph_path, is_legal_path, path_end, path_is_valid, singleton_gates


def test_inverse_involution():
    assert inverse("c1") == "~c1"
    assert inverse("~c1") == "c1"


def test_tighten_full_cancellation(odd_instance):
    graph = odd_instance.graph
    p = graph_path(graph, "v1", ("c1", "~c1"))
    out = tighten(p)
    assert out.edges == ()
    assert out.start == graph.init_of("c1")


def test_tighten_nested_cancellation(odd_instance):
    graph = odd_instance.graph
    p = graph_path(graph, "v1", ("a1", "c1", "~c1", "~a1", "d"))
    assert tighten(p).edges == ("d",)


def test_tighten_reduced_is_identity(even_graph):
    graph, _ = even_graph
    p = graph_path(graph, graph.init_of("b1"), ("b1", "c2"))
    assert tighten(p) == p


def _random_path_strategy(graph):
    """Random (possibly unreduced) paths built by walking the graph."""

    @st.composite
    def build(draw):
        length = draw(st.integers(min_value=0, max_value=12))
        at = draw(st.sampled_from(graph.vertices))
        start = at
        edges = []
        for _ in range(length):
            token = draw(st.sampled_from(graph.edges_at(at)))
            edges.append(token)
            at = graph.term_of(token)
        return Path(start, tuple(edges))

    return build()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tighten_idempotent_and_shrinking(even_graph, data):
    graph, _ = even_graph
    p = data.draw(_random_path_strategy(graph))
    once = tighten(p)
    assert tighten(once) == once
    assert len(once) <= len(p)
    assert path_is_valid(graph, once)
    assert path_end(graph, once) == path_end(graph, p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tighten_path_times_reverse_is_trivial(even_graph, data):
    graph, _ = even_graph
    p = data.draw(_random_path_strategy(graph))
    out_and_back = Path(p.start, p.edges + inverse_word(p.edges))
    assert tighten(out_and_back).edges == ()


def test_legal_path_even_case_gate_table(even_graph):
    graph, gates = even_graph
    assert is_legal_path(graph_path(graph, "v1", ("a1", "a2")), gates)
    assert not is_legal_path(graph_path(graph, "v1", ("~a1", "a2")), gates)
    for token in graph.directed_edges:
        assert is_legal_path(graph_path(graph, graph.init_of(token), (token,)), gates)
    assert is_legal_path(Path("v1", ()), gates)


def test_gate_structure_partition_checks(rose2):
    with pytest.raises(GraphError):
        GateStructure(rose2, [["a", "b"]])  # misses the reversed edges
    with pytest.raises(GraphError):
        GateStructure(rose2, [["a", "b"], ["~a", "~b"], ["a"]])  # duplicate
    gates = singleton_gates(rose2)
    assert gates.gate_count("v1") == 4


def test_validate_graph_on_construction(even_graph):
    graph, _ = even_graph
    diag = validate_graph(graph)
    assert diag.ok
    assert diag.rank == 7
    assert diag.valence_violations == ()


def test_validate_graph_flags_single_loop_rose():
    loop = Graph(["v"], [("a", "v", "v")])
    diag = validate_graph(loop)
    assert diag.rank == 1
    assert diag.valence_violations == (("v", 2),)


def test_validate_graph_flags_disconnection():
    two = Graph(["u", "v"], [("a", "u", "u"), ("b", "v", "v")])
    diag = validate_graph(two)
    assert not diag.connected
    assert not diag.ok


def test_graph_json_round_trip(even_graph):
    graph, gates = even_graph
    clone = Graph.from_json(graph.to_json())
    assert clone.to_json() == graph.to_json()
    gates_clone = GateStructure.from_json(clone, gates.to_json())
    assert gates_clone.to_json() == gates.to_json()


def test_graph_rejects_malformed_edges():
    with pytest.raises(GraphError):
        Graph(["v"], [("~a", "v", "v")])
    with pytest.raises(GraphError):
        Graph(["v"], [("a", "v", "w")])
    with pytest.raises(GraphError):
        Graph(["v"], [("a", "v", "v"), ("a", "v", "v")])


def test_index_list_parsing_and_formatting():
    assert parse_index_list("1/2,1,1/2,1,1") == (1, 2, 1, 2, 2)
    assert canonical_index_list((1, 2, 1, 2, 2)) == (2, 2, 2, 1, 1)
    assert format_index_entry(1) == "1/2"
    assert format_index_entry(2) == "1"
    assert format_index_list((2, 1)) == "[1, 1/2]"
    with pytest.raises(ValueError):
        parse_index_list("1/3")
    with pytest.raises(ValueError):
        parse_index_list("")
    # an empty entry is an error naming its position, never skipped
    for text, position in (("1/2,,1", 2), (",1", 1), ("1,", 2), ("1/2, ,", 2)):
        with pytest.raises(ValueError, match=f"empty index entry at position {position} "):
            parse_index_list(text)
    assert parse_index_list(" 1/2 , 1 ") == (1, 2)


def test_path_validity_checks(even_graph):
    graph, _ = even_graph
    assert path_is_valid(graph, Path("v1", ("c1", "c2")))
    assert not path_is_valid(graph, Path("v1", ("c2",)))
    with pytest.raises(GraphError):
        graph_path(graph, "v1", ("c2",))
