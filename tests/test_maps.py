"""Graph maps, composition, transition matrices, factored chains."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from ttrealize.core import Graph
from ttrealize.maps import (
    GraphMap,
    MapChain,
    MapError,
    compare_image_words,
    is_homotopy_equivalence,
    is_primitive,
    word_image_window,
    TransitionMatrix,
)
from reference import compose_maps, identity_map, is_positive_matrix, matrix_entry, transition_matrix


def fib_map(rose2):
    return GraphMap(rose2, {"a": ("a", "b"), "b": ("a",)})


def matrix(f: GraphMap) -> TransitionMatrix:
    """The transition matrix of one factor, read through its one-factor chain."""
    return transition_matrix(MapChain(f.graph, [f]))


def exact_columns(m: TransitionMatrix) -> tuple[int, ...]:
    """The sign pattern of an exact matrix, as column bitsets."""
    return tuple(
        sum(1 << i for i, row in enumerate(m.rows) if row[j])
        for j in range(len(m.labels))
    )


def test_compose_with_identity(rose2):
    f = fib_map(rose2)
    ident = identity_map(rose2)
    assert compose_maps(ident, f) == f
    assert compose_maps(f, ident) == f


def test_compose_expands_images(rose2):
    f = GraphMap(rose2, {"a": ("a", "b"), "b": ("b",)})
    ff = compose_maps(f, f)
    assert ff.image_edges("a") == ("a", "b", "b")
    assert ff.image_edges("b") == ("b",)
    m, mm = matrix(f), matrix(ff)
    assert (m @ m).rows == mm.rows


def test_transition_matrix_counts(rose2):
    f = fib_map(rose2)
    m = matrix(f)
    assert m.labels == ("a", "b")
    assert m.rows == ((1, 1), (1, 0))
    ident = identity_map(rose2)
    assert matrix(ident).rows == ((1, 0), (0, 1))


def test_transition_counts_are_orientation_blind(rose2):
    f = GraphMap(rose2, {"a": ("a", "b", "~a"), "b": ("b",)})
    m = matrix(f)
    assert matrix_entry(m, "a", "a") == 2
    assert matrix_entry(m, "b", "a") == 1


def test_reversed_image_is_reversed(rose2):
    f = fib_map(rose2)
    assert f.image_edges("~a") == ("~b", "~a")
    assert f.image_edges("~b") == ("~a",)


def _onto(graph, **images):
    updates = {e: tuple(word.split()) for e, word in images.items()}
    return is_homotopy_equivalence(GraphMap.from_updates(graph, updates))


def test_fold_decides_ontoness_on_a_rose(rose2):
    assert _onto(rose2, a="a b")
    assert _onto(rose2, a="b ~a ~b")
    assert not _onto(rose2, a="a a")
    assert not _onto(rose2, a="b")
    assert not _onto(rose2, a="b a b ~a")
    # each image crosses both edges, yet the image misses a
    assert not _onto(rose2, a="a b", b="b a")
    assert _onto(rose2)
    # an unreduced image folds back onto the rose
    assert _onto(rose2, a="a b ~b")


@pytest.mark.parametrize("u, v", [("u", "v"), (0, 1)])
def test_fold_decides_ontoness_across_a_bridge(u, v):
    """a at u, b at v, e from u to v.  e -> e b ~e a e has a unimodular
    abelianization but is not onto, so no crossing count can decide.  A
    document may name vertices by integers, which the fold's own vertices
    must not meet."""
    bridge = Graph([u, v], [("a", u, u), ("b", v, v), ("e", u, v)])
    assert _onto(bridge, e="a e b")
    assert not _onto(bridge, e="e b ~e a e")


def test_fold_rejects_a_map_that_moves_a_vertex():
    theta = Graph(["u", "v"], [("p", "u", "v"), ("q", "u", "v"), ("r", "u", "v")])
    swap = GraphMap(theta, {"p": ("~p",), "q": ("~q",), "r": ("~r",)}, {"u": "v", "v": "u"})
    assert not is_homotopy_equivalence(swap)


def test_is_primitive_examples():
    fib = TransitionMatrix(("a", "b"), ((1, 1), (1, 0)))
    assert is_primitive(exact_columns(fib)) == (True, 2)
    swap = TransitionMatrix(("a", "b"), ((0, 1), (1, 0)))
    assert is_primitive(exact_columns(swap)) == (False, None)
    single = TransitionMatrix(("a",), ((2,),))
    assert is_primitive(exact_columns(single)) == (True, 1)
    assert is_primitive(()) == (False, None)


def brute_force_primitive(m: TransitionMatrix) -> tuple[bool, int | None]:
    """Least t with M^t positive, by exact powers ``@`` with every entry
    clamped to 0 or 1, up to the Wielandt bound (n-1)^2 + 1.  Once a power
    repeats an earlier one, the powers cycle and none turns positive."""
    def signs(p: TransitionMatrix) -> TransitionMatrix:
        return TransitionMatrix(p.labels, tuple(tuple(min(x, 1) for x in row) for row in p.rows))

    base = power = signs(m)
    seen = set()
    for t in range(1, (len(m.labels) - 1) ** 2 + 2):
        if is_positive_matrix(power):
            return (True, t)
        if power.rows in seen:
            break
        seen.add(power.rows)
        power = signs(power @ base)
    return (False, None)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_primitivity_matches_brute_force(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    rows = tuple(
        tuple(data.draw(st.integers(min_value=0, max_value=2)) for _ in range(n))
        for _ in range(n)
    )
    labels = tuple(f"e{i}" for i in range(n))
    m = TransitionMatrix(labels, rows)
    assert is_primitive(exact_columns(m)) == brute_force_primitive(m)


_DRAWS = 10_000


def random_self_map(graph: Graph, rng: random.Random, max_len: int = 3) -> GraphMap:
    """Random graph map: images are random walks with matching endpoints.

    Raises ``ValueError`` when some edge's image has no walk of at most
    ``max_len`` edges between the vertex images, or when ``_DRAWS`` random
    walks for one edge all miss.
    """
    vertices = list(graph.vertices)
    vmap = {v: rng.choice(vertices) for v in vertices}
    images = {}
    for e in graph.positive_edges:
        start, want_end = vmap[graph.init_of(e)], vmap[graph.term_of(e)]
        if want_end not in _walk_ends(graph, start, max_len):
            raise ValueError(f"no walk of at most {max_len} edges from {start} to {want_end}")
        for _ in range(_DRAWS):
            at = start
            word = []
            for _ in range(rng.randint(1, max_len)):
                token = rng.choice(graph.edges_at(at))
                word.append(token)
                at = graph.term_of(token)
            if at == want_end:
                images[e] = tuple(word)
                break
        else:
            raise ValueError(f"{_DRAWS} random walks from {start} all missed {want_end}")
    return GraphMap(graph, images, vmap)


def _walk_ends(graph: Graph, start: str, max_len: int) -> set[str]:
    """The ends of the walks from ``start`` with 1 to ``max_len`` edges."""
    ends, frontier = set(), {start}
    for _ in range(max_len):
        frontier = {graph.term_of(t) for v in frontier for t in graph.edges_at(v)}
        ends |= frontier
    return ends


def random_graph(rng: random.Random) -> Graph:
    n_vertices = rng.randint(1, 3)
    vertices = [f"v{i}" for i in range(1, n_vertices + 1)]
    n_edges = rng.randint(n_vertices + 1, 8)  # keep it connected-ish and rich
    edges = []
    for i in range(1, n_edges + 1):
        frm = rng.choice(vertices)
        to = rng.choice(vertices)
        edges.append((f"e{i}", frm, to))
    # a spanning chain so every vertex is reachable
    for i, v in enumerate(vertices[1:], start=1):
        edges.append((f"t{i}", vertices[0], v))
    return Graph(vertices, edges)


def test_random_self_map_returns_or_raises_with_one_letter_images():
    """With ``max_len=1`` an edge's image must be one edge between the two
    vertex images; where none exists the draw raises instead of retrying."""
    rng = random.Random(4321)
    outcomes = []
    for _ in range(30):
        graph = random_graph(rng)
        start = time.monotonic()
        try:
            f = random_self_map(graph, rng, max_len=1)
        except ValueError as exc:
            assert "no walk of at most 1 edges" in str(exc)
            outcomes.append("raised")
        else:
            assert all(len(f.image_edges(e)) == 1 for e in graph.positive_edges)
            outcomes.append("returned")
        assert time.monotonic() - start < 1
    assert set(outcomes) == {"raised", "returned"}


def test_transition_multiplicativity_on_random_pairs():
    rng = random.Random(90125)
    for _ in range(200):
        graph = random_graph(rng)
        f = random_self_map(graph, rng)
        g = random_self_map(graph, rng)
        left = matrix(compose_maps(f, g))
        right = matrix(f) @ matrix(g)
        assert left.rows == right.rows


def test_chain_matches_materialized_composition(rose2):
    rng = random.Random(5)
    maps = [random_self_map(rose2, rng) for _ in range(4)]
    chain = MapChain(rose2, maps)
    dense = maps[0]
    for m in maps[1:]:
        dense = compose_maps(m, dense)
    for e in rose2.positive_edges:
        assert chain.image_length(e) == len(dense.image_edges(e))
        full = chain.image_window(e, 0, chain.image_length(e))
        assert tuple(full) == dense.image_edges(e)
        assert chain.image_window(e, 0, 5) == list(dense.image_edges(e)[:5])
        n = chain.image_length(e)
        assert chain.image_window(e, max(n - 4, 0), 4) == list(dense.image_edges(e)[-4:])
        mid = chain.image_window(e, 2, 3)
        assert mid == list(dense.image_edges(e)[2:5])
    assert transition_matrix(chain).rows == matrix(dense).rows
    assert chain.materialize().factors == (dense,)


def test_chain_window_and_compare_oracle():
    rng = random.Random(77)
    graph = Graph(["v1"], [("a", "v1", "v1"), ("b", "v1", "v1"), ("c", "v1", "v1")])
    for trial in range(30):
        maps = [random_self_map(graph, rng) for _ in range(rng.randint(2, 5))]
        chain = MapChain(graph, maps)
        dense = maps[0]
        for m in maps[1:]:
            dense = compose_maps(m, dense)
        words = [("a", "b"), ("b",), ("a", "~c", "b")]
        for wa in words:
            for wb in words:
                da, db = (tuple(x for t in w for x in dense.image_edges(t)) for w in (wa, wb))
                cut = 0
                while cut < min(len(da), len(db)) and da[cut] == db[cut]:
                    cut += 1
                outcome = compare_image_words(chain, wa, wb)
                if cut == min(len(da), len(db)):
                    side = "equal" if len(da) == len(db) else ("a" if len(da) < len(db) else "b")
                    assert outcome == ("contained", side, cut)
                else:
                    assert outcome == ("diverge", cut, da[cut], db[cut])
                window = word_image_window(chain, wa, 1, 4)
                assert window == list(da[1:5])


def test_map_validation_errors(rose2):
    """Every branch of the construction check raises ``MapError``, a
    token the graph does not have included."""
    two = Graph(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v")])
    fixed = {"u": "u", "v": "v"}
    cases = [
        ("missing image for edge 'b'", rose2, {"a": ("a",)}, None),
        ("contracted edge 'a'", rose2, {"a": (), "b": ("b",)}, None),
        ("image of 'a' crosses unknown edge 'zz'", rose2, {"a": ("zz",), "b": ("b",)}, None),
        ("image of 'a' crosses unknown edge 'zz'", rose2, {"a": ("a", "zz"), "b": ("b",)}, None),
        # a runs u -> v, and b does not start at v
        ("image of 'a' is not a path", two, {"a": ("a", "b"), "b": ("b",), "c": ("c",)}, None),
        # a ~b returns to u, but v is fixed
        ("image of 'a' ends at the wrong vertex", two,
         {"a": ("a", "~b"), "b": ("b",), "c": ("c",)}, fixed),
        ("vertex image 'w' not a vertex", rose2, {"a": ("a",), "b": ("b",)}, {"v1": "w"}),
        # identity images, but the given vertex map swaps u and v
        ("image of 'a' is not a path", two, {"a": ("a",), "b": ("b",), "c": ("c",)},
         {"u": "v", "v": "u"}),
        # a sends u to u, ~b sends it to v
        ("incoherent images at vertex 'u'", two, {"a": ("a",), "b": ("~b",), "c": ("c",)}, None),
        # every edge has its image, and one more key is not an edge of the graph
        ("image for 'zz', not a positive edge of the graph", rose2,
         {"a": ("a",), "b": ("b",), "zz": ("a",)}, None),
        ("image for '~a', not a positive edge of the graph", rose2,
         {"a": ("a",), "b": ("b",), "~a": ("~a",)}, None),
    ]
    for message, graph, images, vertex_image in cases:
        with pytest.raises(MapError) as caught:
            GraphMap(graph, images, vertex_image)
        assert str(caught.value) == message
    with pytest.raises(MapError, match="unknown edge 'zz'"):
        GraphMap.from_json(rose2, {"images": {"a": ["zz"], "b": ["b"]}})
    with pytest.raises(MapError, match="^image for 'zz', not a positive edge"):
        GraphMap.from_updates(rose2, {"zz": ("a", "a")})


def test_map_json_round_trip(rose2):
    f = fib_map(rose2)
    assert GraphMap.from_json(rose2, f.to_json()) == f


def test_chain_power_below_one_is_rejected(rose2):
    chain = MapChain(rose2, [fib_map(rose2)])
    for p in (0, -1):
        with pytest.raises(ValueError):
            chain.power(p)
