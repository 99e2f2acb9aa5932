"""Differential oracle: every chain query against the materialized map.

Chains are drawn three ways: sparse factors that move one or two edges of
a random graph (so most levels leave a token alone), the same mixed with
dense random self-maps, and positive rose chains from the experiment's
sampler.  Each chain and each of its powers is checked against the
composed ``GraphMap`` on lengths, directions, letter windows, word windows,
cursors seeking and spelling at random offsets, image comparison and the
strip step's windows, and on the sign algebra: the exact transition
matrix, the sign pattern, the primitivity verdict and witness (against
powers of the exact matrix), and the least expanding power.  The
references read the composed map's images letter by letter; a query that
only a chain answers gets the composed map as a one-factor chain.  Each
also meets its composed map on the vertex map, the turns its edge
images cross and the gate-Whitehead graphs.  So do chains joined from
pieces of a factor list with ``then``, their powers, and the shapes
``realize`` builds, whose passes repeat one table.  The classical train track verdict, the
intrinsic gates and the periodic vertices of chains, of composed maps and
of random single maps are checked against brute-force references that
walk orbits step by step.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ttrealize.certify import expanding_power
from ttrealize.core import GateStructure, Graph, Path, inverse, positive_label
from ttrealize.experiment import sample_positive_automorphism
from ttrealize.maps import (
    GraphMap,
    ImageCursor,
    MapChain,
    MapError,
    TransitionMatrix,
    compare_image_words,
    is_primitive,
    strip_windows,
    word_image_window,
)
from ttrealize.traintrack import (
    intrinsic_gate_structure,
    periodic_vertices,
    whitehead_graphs,
)
from test_maps import brute_force_primitive, exact_columns, random_graph, random_self_map
from reference import (
    compose_maps,
    crossed_turns,
    is_classical_train_track,
    singleton_gates,
    transition_matrix,
)

# composed powers are only materialized up to this many letters
LETTER_CAP = 20_000


def _closed_walk(graph: Graph, rng: random.Random, at: str) -> tuple[str, ...]:
    walk = []
    for _ in range(rng.randint(1, 2)):
        token = rng.choice(graph.edges_at(at))
        walk.append(token)
        at = graph.term_of(token)
    return tuple(walk) + tuple(inverse(t) for t in reversed(walk))


def sparse_factor(graph: Graph, rng: random.Random) -> GraphMap:
    """A vertex-fixing map that moves one or two edges and no others."""
    updates = {}
    for e in rng.sample(graph.positive_edges, min(len(graph.positive_edges), rng.randint(1, 2))):
        if rng.random() < 0.5:
            updates[e] = (e,) + _closed_walk(graph, rng, graph.term_of(e))
        else:
            updates[e] = _closed_walk(graph, rng, graph.init_of(e)) + (e,)
    return GraphMap.from_updates(graph, updates)


def draw_chain(kind: str, seed: int, length: int) -> MapChain:
    rng = random.Random(seed)
    if kind == "rose":
        return sample_positive_automorphism(3, length, seed)
    graph = random_graph(rng)
    factors = []
    for _ in range(length):
        if kind == "mixed" and rng.random() < 0.3:
            factors.append(random_self_map(graph, rng, max_len=2))
        else:
            factors.append(sparse_factor(graph, rng))
    return MapChain(graph, factors)


def materialized_powers(chain: MapChain, top: int) -> list[GraphMap]:
    """[f, f^2, ...] up to f^top, stopping before LETTER_CAP letters."""
    f = chain.factors[0]
    for m in chain.factors[1:]:
        f = compose_maps(m, f)
    out = [f]
    while len(out) < top:
        letters = sum(
            len(f.image_edges(t))
            for e in chain.graph.positive_edges
            for t in out[-1].image_edges(e)
        )
        if letters > LETTER_CAP:
            break
        out.append(compose_maps(f, out[-1]))
    return out


def same_letters(got, want) -> None:
    """Letter lists agree; a mismatch reports lengths and the first
    differing index, so no failing example makes pytest diff thousands of
    letters at every shrink step."""
    got, want = list(got), list(want)
    if got != want:
        first = next(
            (i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want))
        )
        raise AssertionError(
            f"letter lists differ: lengths {len(got)} and {len(want)}, first at index {first}"
        )


def image_of(f: GraphMap, word) -> tuple[str, ...]:
    return tuple(itertools.chain.from_iterable(map(f.image_edges, word)))


def common_prefix(a, b) -> int:
    """The length of the longest common prefix of two letter sequences, by
    halving the span still unknown with slice comparisons."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def image_turns(f: GraphMap, e: str) -> list[tuple[str, str]]:
    """The turns the image of ``e`` crosses, read off its letters."""
    word = f.image_edges(e)
    return list(crossed_turns(Path(f.graph.init_of(word[0]), word)))


def dense_matrix(f: GraphMap) -> TransitionMatrix:
    """Crossing counts of a composed map's images, counted letter by letter."""
    labels = tuple(f.graph.positive_edges)
    counts = {e: [positive_label(t) for t in f.image_edges(e)] for e in labels}
    return TransitionMatrix(labels, tuple(
        tuple(counts[source].count(crossed) for source in labels) for crossed in labels
    ))


def check_against(chain: MapChain, dense: GraphMap, rng: random.Random) -> None:
    tokens = list(chain.graph.directed_edges)
    for t in tokens:
        full = dense.image_edges(t)
        assert chain.image_length(t) == len(full)
        assert chain.direction(t) == full[0]
        same_letters(chain.image_window(t, 0, len(full)), full)
        for _ in range(3):
            start = rng.randrange(len(full) + 2)
            count = rng.randrange(0, 12)
            same_letters(chain.image_window(t, start, count), full[start:start + count])
    for _ in range(6):
        # words up to 12 letters cross the cursors' first chunks of roots
        word_a = tuple(rng.choice(tokens) for _ in range(rng.randint(1, 12)))
        cut = rng.randint(0, len(word_a))
        word_b = word_a[:cut] + tuple(rng.choice(tokens) for _ in range(rng.randint(0, 2)))
        if not word_b:
            word_b = (rng.choice(tokens),)
        da, db = image_of(dense, word_a), image_of(dense, word_b)
        assert sum(map(chain.image_length, word_a)) == len(da)
        start = rng.randrange(len(da) + 1)
        count = rng.randrange(1, 40)
        same_letters(word_image_window(chain, word_a, start, count), da[start:start + count])
        common = common_prefix(da, db)
        outcome = compare_image_words(chain, word_a, word_b)
        windows = strip_windows(chain, word_a, word_b, count)
        if common == min(len(da), len(db)):
            side = "equal" if len(da) == len(db) else ("a" if len(da) < len(db) else "b")
            assert outcome == windows == ("contained", side, common)
        else:
            assert outcome == ("diverge", common, da[common], db[common])
            end = common + count
            assert windows == ("diverge", common, list(da[common:end]), list(db[common:end]))


def check_cursor(chain: MapChain, dense: GraphMap, rng: random.Random) -> None:
    """seek and spell across word letters and passes: seek to a random
    letter, spell a window, seek further on and spell again."""
    tokens = list(chain.graph.directed_edges)
    for _ in range(6):
        word = tuple(rng.choice(tokens) for _ in range(rng.randint(1, 12)))
        full = image_of(dense, word)
        cursor = ImageCursor(chain, word)
        start = rng.randrange(len(full) + 2)
        for _ in range(2):
            cursor.seek(start)
            assert cursor.pos == start if start < len(full) else cursor.node is None
            count = rng.randrange(0, 3 * len(full) // len(word) + 2)
            same_letters(cursor.spell(count), full[start:start + count])
            start += count + rng.randrange(3)


def brute_expanding_power(m: TransitionMatrix, bound: int = 8):
    power = m
    for k in range(1, bound + 1):
        if all(sum(row[j] for row in power.rows) >= 2 for j in range(len(m.labels))):
            return k
        power = power @ m
    return None


def check_signs(chain: MapChain, dense: GraphMap) -> None:
    exact = dense_matrix(dense)
    assert transition_matrix(chain) == exact
    assert chain.sign_pattern == exact_columns(exact)
    assert is_primitive(chain.sign_pattern) == brute_force_primitive(exact)
    assert expanding_power(chain) == brute_expanding_power(exact)


def whitehead_or_error(f, gates):
    try:
        return whitehead_graphs(f, gates)
    except MapError as exc:
        return str(exc)


def reference_intrinsic_gates(f: GraphMap) -> GateStructure | None:
    """The intrinsic gates by walking each pair of directions: a pair of
    D directions moves in a set of D^2 pairs, so it collides within D^2
    steps or never.  None when some taken turn collides: the map is then
    not a classical train track map."""
    graph = f.graph
    df = {t: f.image_edges(t)[0] for t in graph.directed_edges}
    bound = len(df) ** 2

    def collide(x: str, y: str) -> bool:
        for _ in range(bound):
            if x == y:
                return True
            x, y = df[x], df[y]
        return False

    taken = {t for e in graph.positive_edges for t in image_turns(f, e)}
    if any(collide(x, y) for x, y in taken):
        return None
    parent = {t: t for t in graph.directed_edges}

    def find(t: str) -> str:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for v in graph.vertices:
        for a, b in itertools.combinations(graph.edges_at(v), 2):
            if collide(a, b):
                parent[find(b)] = find(a)
    groups: dict[str, list[str]] = {}
    for t in graph.directed_edges:
        groups.setdefault(find(t), []).append(t)
    return GateStructure(graph, groups.values())


def reference_periodic_vertices(f) -> set[str]:
    out = set()
    for v in f.graph.vertices:
        w = v
        for _ in range(len(f.graph.vertices)):
            w = f.vertex_image[w]
            if w == v:
                out.add(v)
                break
    return out


def check_intrinsic(f: MapChain, dense: GraphMap) -> GateStructure | None:
    """The classical train track test, the intrinsic gates and the periodic
    vertices of ``f`` against the references on its composed map; returns
    the reference gates."""
    gates = reference_intrinsic_gates(dense)
    assert is_classical_train_track(f) == (gates is not None)
    if gates is None:
        with pytest.raises(MapError):
            intrinsic_gate_structure(f)
    else:
        assert intrinsic_gate_structure(f) == gates
    assert periodic_vertices(f) == reference_periodic_vertices(dense)
    return gates


def check_turns(chain: MapChain, dense: GraphMap) -> None:
    """Crossed turns, classical verdict and Whitehead graphs; the Whitehead
    graphs use the intrinsic gates when the map is classical, else
    singleton gates, and a map moving a vertex must fail alike."""
    graph = chain.graph
    turns = {t for e in graph.positive_edges for t in image_turns(dense, e)}
    assert chain.crossed_turns == turns
    one = MapChain(graph, [dense])
    check_intrinsic(one, dense)
    gates = check_intrinsic(chain, dense)
    if gates is None:
        gates = singleton_gates(graph)
    assert whitehead_or_error(chain, gates) == whitehead_or_error(one, gates)


def check_every_query(chain: MapChain, dense: GraphMap, rng: random.Random) -> None:
    assert chain.vertex_image == dense.vertex_image
    check_against(chain, dense, rng)
    check_cursor(chain, dense, rng)
    check_signs(chain, dense)
    check_turns(chain, dense)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["sparse", "mixed", "rose"]),
    seed=st.integers(min_value=0, max_value=2**32),
    length=st.integers(min_value=2, max_value=12),
)
def test_chain_and_powers_match_materialized_maps(kind, seed, length):
    chain = draw_chain(kind, seed, length)
    rng = random.Random(seed + 1)
    for p, dense in enumerate(materialized_powers(chain, 4), start=1):
        check_every_query(chain.power(p), dense, rng)


def cut_into_pieces(chain: MapChain, rng: random.Random) -> list[MapChain]:
    """The chain's factor list cut at one to three random points."""
    n = len(chain.factors)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(1, 3))))
    return [
        MapChain(chain.graph, chain.factors[i:j])
        for i, j in zip([0] + cuts, cuts + [n])
    ]


def materialized_or_none(chain: MapChain) -> GraphMap | None:
    """The composite of the chain's factors, unless it exceeds LETTER_CAP letters."""
    if sum(chain.image_length(e) for e in chain.graph.positive_edges) > LETTER_CAP:
        return None
    return materialized_powers(chain, 1)[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["sparse", "mixed", "rose"]),
    seed=st.integers(min_value=0, max_value=2**32),
    length=st.integers(min_value=2, max_value=12),
)
def test_compositions_match_materialized_maps(kind, seed, length):
    """Pieces of a chain joined by ``then``, and the powers of the join,
    answer every query as the materialized composite does; so do the
    shapes ``realize`` builds from two pieces x and y, h = x x, g = h y h
    and g h, whose passes repeat the pieces' tables."""
    chain = draw_chain(kind, seed, length)
    rng = random.Random(seed + 2)
    pieces = cut_into_pieces(chain, rng)
    joined = pieces[0]
    for piece in pieces[1:]:
        joined = joined.then(piece)
    assert joined.factors == chain.factors
    assert len(joined._passes) == len(pieces)
    for p, dense in enumerate(materialized_powers(chain, 3), start=1):
        check_every_query(joined.power(p), dense, rng)
    h = pieces[0].power(2)
    g = h.then(pieces[-1]).then(h)
    final = g.then(h)
    assert final._passes[-2:] == h._passes and g._passes[-2:] == h._passes
    for composite in (h, g, final):
        dense = materialized_or_none(composite)
        if dense is not None:
            check_every_query(composite, dense, rng)


def test_intrinsic_gates_match_pair_walks_on_random_maps():
    """Single random maps, most of them not classical, many moving or
    permuting vertices, and chains of them."""
    rng = random.Random(4321)
    seen = {"classical": 0, "merged": 0, "moves": 0, "permutes": 0}
    for _ in range(300):
        graph = random_graph(rng)
        f = random_self_map(graph, rng, max_len=rng.randint(2, 3))
        gates = check_intrinsic(MapChain(graph, [f]), f)
        if rng.random() < 0.3:
            chain = MapChain(graph, [f, random_self_map(graph, rng, max_len=2)])
            check_intrinsic(chain, materialized_powers(chain, 1)[0])
        vmap = f.vertex_image
        seen["classical"] += gates is not None
        seen["merged"] += gates is not None and len(gates.gates) < len(graph.directed_edges)
        seen["moves"] += any(vmap[v] != v for v in vmap)
        seen["permutes"] += len(set(vmap.values())) == len(vmap) and any(vmap[v] != v for v in vmap)
    assert min(seen.values()) >= 10, seen


def test_eventual_directions_reach_the_last_collision(rose2):
    """f(a) = b, f(b) = ~a b: Df runs a -> b -> ~a -> ~b -> ~b through all
    D = 4 directions, so the taken turn (a, b) first collides at step
    D - 1, and f^4(b) is the first unreduced iterate."""
    f = GraphMap(rose2, {"a": ("b",), "b": ("~a", "b")})
    assert [f.image_edges(t)[0] for t in ("a", "b", "~a", "~b")] == ["b", "~a", "~b", "~b"]
    assert image_turns(f, "b") == [("a", "b")]
    word, reduced = ("b",), []
    for _ in range(4):
        word = image_of(f, word)
        reduced.append(all(y != inverse(x) for x, y in zip(word, word[1:])))
    assert reduced == [True, True, True, False]
    assert reference_intrinsic_gates(f) is None
    check_intrinsic(MapChain(rose2, [f]), f)
