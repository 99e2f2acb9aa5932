"""Differential oracle: every chain query against the materialized map.

Chains are drawn three ways: sparse factors that move one or two edges of
a random graph (so most levels leave a token alone), the same mixed with
dense random self-maps, and positive rose chains from the experiment's
sampler.  Each chain and each of its powers is checked against the
composed ``GraphMap`` on lengths, directions, letter windows, word windows,
cursors seeking and spelling at random offsets, image comparison and the
strip step's windows, and on the sign algebra: the sign pattern, the
primitivity verdict and witness, and the least expanding power.  Each
chain also meets its composed map on the turns its edge images cross,
the classical train track verdict and the gate-Whitehead graphs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ttrealize.certify import expanding_power
from ttrealize.core import GateStructure, Graph, crossed_turns, inverse
from ttrealize.experiment import sample_positive_automorphism
from ttrealize.maps import (
    GraphMap,
    ImageCursor,
    MapChain,
    MapError,
    TransitionMatrix,
    compare_image_words,
    compose_maps,
    is_primitive,
    strip_windows,
    transition_matrix,
    word_image_window,
)
from ttrealize.traintrack import (
    intrinsic_gate_structure,
    is_classical_train_track,
    whitehead_graphs,
)
from test_maps import random_graph, random_self_map

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


def image_of(f: GraphMap, word) -> tuple[str, ...]:
    return tuple(t for token in word for t in f.image_edges(token))


def check_against(chain: MapChain, dense: GraphMap, rng: random.Random) -> None:
    tokens = list(chain.graph.directed_edges)
    for t in tokens:
        full = dense.image_edges(t)
        assert chain.image_length(t) == len(full)
        assert chain.direction(t) == full[0]
        assert chain.image_window(t, 0, len(full)) == list(full)
        for _ in range(3):
            start = rng.randrange(len(full) + 2)
            count = rng.randrange(0, 12)
            assert chain.image_window(t, start, count) == list(full[start:start + count])
    for _ in range(6):
        word_a = tuple(rng.choice(tokens) for _ in range(rng.randint(1, 3)))
        cut = rng.randint(0, len(word_a))
        word_b = word_a[:cut] + tuple(rng.choice(tokens) for _ in range(rng.randint(0, 2)))
        if not word_b:
            word_b = (rng.choice(tokens),)
        da, db = image_of(dense, word_a), image_of(dense, word_b)
        assert chain.word_image_length(word_a) == len(da)
        start = rng.randrange(len(da) + 1)
        count = rng.randrange(1, 40)
        assert word_image_window(chain, word_a, start, count) == list(da[start:start + count])
        common = 0
        while common < min(len(da), len(db)) and da[common] == db[common]:
            common += 1
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
        word = tuple(rng.choice(tokens) for _ in range(rng.randint(1, 4)))
        full = image_of(dense, word)
        cursor = ImageCursor(chain, word)
        start = rng.randrange(len(full) + 2)
        for _ in range(2):
            cursor.seek(start)
            assert cursor.pos == start if start < len(full) else cursor.node is None
            count = rng.randrange(0, 3 * len(full) // len(word) + 2)
            assert cursor.spell(count) == list(full[start:start + count])
            start += count + rng.randrange(3)


def exact_columns(m: TransitionMatrix) -> tuple[int, ...]:
    return tuple(
        sum(1 << i for i, row in enumerate(m.rows) if row[j])
        for j in range(len(m.labels))
    )


def brute_expanding_power(m: TransitionMatrix, bound: int = 8):
    power = m
    for k in range(1, bound + 1):
        if all(sum(row[j] for row in power.rows) >= 2 for j in range(len(m.labels))):
            return k
        power = power @ m
    return None


def check_signs(chain: MapChain, dense: GraphMap) -> None:
    exact = transition_matrix(dense)
    assert chain.sign_pattern == exact_columns(exact)
    assert is_primitive(chain.sign_pattern) == is_primitive(exact)
    assert expanding_power(chain) == brute_expanding_power(exact)


def whitehead_or_error(f, gates):
    try:
        return whitehead_graphs(f, gates)
    except MapError as exc:
        return str(exc)


def check_turns(chain: MapChain, dense: GraphMap) -> None:
    """Crossed turns, classical verdict and Whitehead graphs of one pass;
    the Whitehead graphs use the intrinsic gates when the map is classical,
    else singleton gates, and a map moving a vertex must fail alike."""
    graph = chain.graph
    turns = {t for e in graph.positive_edges for t in crossed_turns(dense.image(e))}
    assert chain.crossed_turns == turns
    classical = is_classical_train_track(dense)
    assert is_classical_train_track(chain) == classical
    if classical:
        gates = intrinsic_gate_structure(dense)
        assert intrinsic_gate_structure(chain) == gates
    else:
        gates = GateStructure.singletons(graph)
    assert whitehead_or_error(chain, gates) == whitehead_or_error(dense, gates)
    with pytest.raises(MapError):
        chain.power(2).crossed_turns


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["sparse", "mixed", "rose"]),
    seed=st.integers(min_value=0, max_value=2**32),
    length=st.integers(min_value=2, max_value=12),
)
def test_chain_and_powers_match_materialized_maps(kind, seed, length):
    chain = draw_chain(kind, seed, length)
    rng = random.Random(seed + 1)
    dense_powers = materialized_powers(chain, 4)
    check_turns(chain, dense_powers[0])
    for p, dense in enumerate(dense_powers, start=1):
        view = chain.power(p)
        assert view.vertex_image == dense.vertex_image
        check_against(view, dense, rng)
        check_cursor(view, dense, rng)
        check_signs(view, dense)
