"""Brute-force references that the tests check the package against.

The package answers every query through chains, exact lengths and tables;
these references spell paths and maps out letter by letter, enumerate what
the package counts, or re-check what it builds from the definitions.  No
code in ``src/`` calls them.  Grouped by the package module they check:
paths and gates (``core``), composition and exact transition matrices
(``maps``), long turns and the classical train track test
(``traintrack``), a bounded conjugacy-class survey (``certify``), the
selector clauses (``realize``) and homotopy inverses on pi_1 (``marking``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from ttrealize.core import (
    GateStructure,
    Graph,
    GraphError,
    Path,
    inverse,
    inverse_word,
    is_legal_word,
    positive_label,
    tighten_word,
    token_key,
)
from ttrealize.maps import GraphMap, MapChain, MapError, TransitionMatrix
from ttrealize.marking import Pi1Marking, pi1_automorphism
from ttrealize.realize import _verify_rows, selector_clauses
from ttrealize.traintrack import Turn, WhiteheadGraph, direction_map

LONG_TURN_IMAGE_BUDGET = 1_000_000  # letters long_turn_image spells per branch


# -- paths and gates -------------------------------------------------------------


def path_is_valid(graph: Graph, path: Path) -> bool:
    """Whether each edge of ``path`` starts where the one before ends."""
    if path.start not in graph.vertices:
        return False
    at = path.start
    for token in path.edges:
        if graph.inits.get(token) != at:
            return False
        at = graph.terms[token]
    return True


def graph_path(graph: Graph, start: str, edges: Iterable[str] = ()) -> Path:
    p = Path(start, tuple(edges))
    if not path_is_valid(graph, p):
        raise GraphError(f"invalid path {p.edges!r} from {start!r}")
    return p


def path_end(graph: Graph, path: Path) -> str:
    return graph.term_of(path.edges[-1]) if path.edges else path.start


def is_legal_path(path: Path, gates: GateStructure) -> bool:
    """True iff every crossed turn lands in two distinct gates; empty and
    single-edge paths are legal by convention."""
    return is_legal_word(path.edges, gates)


def crossed_turns(path: Path) -> Iterator[tuple[str, str]]:
    """The turns a path crosses, as ordered pairs (reversed edge in, edge out)."""
    edges = path.edges
    inverses = {t: inverse(t) for t in set(edges)}
    return zip(map(inverses.__getitem__, edges), edges[1:])


def singleton_gates(graph: Graph) -> GateStructure:
    """Every direction a gate of its own."""
    return GateStructure(graph, [[t] for t in graph.directed_edges])


# -- composition and transition matrices -------------------------------------------


def identity_map(graph: Graph) -> GraphMap:
    return GraphMap.from_updates(graph, {})


def compose_maps(f: GraphMap, g: GraphMap) -> GraphMap:
    """The composition f∘g (g applied first), never tightened.

    Crossing counts multiply exactly only without cancellation, which is
    what keeps M(f∘g) = M(f)M(g) an identity rather than an inequality.
    """
    if f.graph is not g.graph and f.graph.to_json() != g.graph.to_json():
        raise MapError("compose_maps needs maps on the same graph")
    images = {
        e: tuple(t for token in g.image_edges(e) for t in f.image_edges(token))
        for e in g.graph.positive_edges
    }
    vmap = {v: f.vertex_image[g.vertex_image[v]] for v in g.graph.vertices}
    return GraphMap(g.graph, images, vmap)


def transition_matrix(chain: MapChain) -> TransitionMatrix:
    """Exact transition matrix of a chain: the product over its factors of
    each factor's orientation-blind crossing counts."""
    labels = tuple(chain.graph.positive_edges)
    result = TransitionMatrix(labels, tuple(
        tuple(int(i == j) for j in range(len(labels))) for i in range(len(labels))
    ))
    for factor in chain.factors:
        crossed = [[positive_label(t) for t in factor.image_edges(e)] for e in labels]
        counts = tuple(tuple(column.count(row) for column in crossed) for row in labels)
        result = TransitionMatrix(labels, counts) @ result
    return result


def matrix_entry(m: TransitionMatrix, crossed: str, source: str) -> int:
    """How often the image of ``source`` crosses ``crossed``."""
    return m.rows[m.labels.index(crossed)][m.labels.index(source)]


def is_positive_matrix(m: TransitionMatrix) -> bool:
    return all(x > 0 for row in m.rows for x in row)


# -- long turns and train tracks ----------------------------------------------------


@dataclass(frozen=True)
class LongTurn:
    """Two legal paths from one vertex with distinct initial edges."""

    branch_a: Path
    branch_b: Path

    def __post_init__(self):
        if not (self.branch_a.edges and self.branch_b.edges):
            raise GraphError("long turn branches must be non-trivial")
        if self.branch_a.start != self.branch_b.start:
            raise GraphError("long turn branches must share their start")
        if self.branch_a.edges[0] == self.branch_b.edges[0]:
            raise GraphError("long turn branches must have distinct initial edges")

    @property
    def starting_turn(self) -> Turn:
        return Turn(self.branch_a.edges[0], self.branch_b.edges[0])

    def is_legal(self, gates: GateStructure) -> bool:
        return self.starting_turn.is_legal(gates)


def legal_paths_from(graph: Graph, gates: GateStructure, first: str, length: int) -> Iterator[tuple[str, ...]]:
    """All legal paths of the given length starting with the edge ``first``."""
    def extend(prefix: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
        if len(prefix) == length:
            yield prefix
            return
        for nxt in gates.legal_continuations(prefix[-1]):
            yield from extend(prefix + (nxt,))

    yield from extend((first,))


def enumerate_long_turns(graph: Graph, gates: GateStructure, length: int) -> Iterator[LongTurn]:
    """Every long turn with both branches of the given length, once each."""
    if length < 1:
        raise GraphError("branch length must be at least 1")
    for v in graph.vertices:
        edges = graph.edges_at(v)
        by_edge = {
            e: [Path(v, p) for p in legal_paths_from(graph, gates, e, length)]
            for e in edges
        }
        for i, e in enumerate(edges):
            for e2 in edges[i + 1:]:
                for pa in by_edge[e]:
                    for pb in by_edge[e2]:
                        yield LongTurn(pa, pb)


def long_turn_image(g: GraphMap, lt: LongTurn) -> LongTurn | None:
    """The image long turn after erasing the common initial subpath.

    Returns None when one branch image is a subpath of the other (the long
    turn is not g-long).  Branch lengths of the image may differ.  ``g`` is
    one factor, whose images spell the branches out.
    """
    branches = (lt.branch_a.edges, lt.branch_b.edges)
    if max(sum(len(g.image_edges(t)) for t in b) for b in branches) > LONG_TURN_IMAGE_BUDGET:
        raise MapError("long turn image exceeds materialization budget")
    wa, wb = (tuple(x for t in b for x in g.image_edges(t)) for b in branches)
    cut = 0
    limit = min(len(wa), len(wb))
    while cut < limit and wa[cut] == wb[cut]:
        cut += 1
    if cut == limit:
        return None
    start = g.graph.init_of(wa[cut])
    return LongTurn(Path(start, tuple(wa[cut:])), Path(start, tuple(wb[cut:])))


def is_classical_train_track(f: MapChain) -> bool:
    """No iterated edge image is unreduced: no turn that a single edge image
    crosses ever has equal eventual directions.  The directions' n-th images
    under the direction map, n the number of directions, are eventual."""
    df = direction_map(f)
    eventual = df
    for _ in range(len(df) - 1):
        eventual = {t: df[x] for t, x in eventual.items()}
    return all(eventual[x] != eventual[y] for x, y in f.crossed_turns)


def is_complete(wh: WhiteheadGraph) -> bool:
    """Every two gates at the vertex joined."""
    return len(wh.edges) == len(wh.nodes) * (len(wh.nodes) - 1) // 2


# -- bounded periodic-conjugacy-class survey ----------------------------------------


def cyclic_tighten(word: tuple[str, ...]) -> tuple[str, ...]:
    word = tighten_word(word)
    while len(word) >= 2 and word[0] == inverse(word[-1]):
        word = word[1:-1]
    return word


def cyclically_equal(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    a, b = cyclic_tighten(a), cyclic_tighten(b)
    if len(a) != len(b):
        return False
    if not a:
        return True
    return any(b[k:] + b[:k] == a for k in range(len(b)))


def periodic_class_status(
    f: MapChain, word: tuple[str, ...], t_max: int = 6, budget: int = 100_000
) -> tuple[str, int | None]:
    """Does some f^t-image of the conjugacy class return to it, t <= t_max?

    Applies the map factor by factor, cyclically reducing between factors
    (conjugacy classes are preserved either way).  Returns one of
    ("recurrent", t), ("no_recurrence", None) or ("escaped", t): escaped
    means the class length left the budget, after which recurrence within
    the remaining exponents is not decidable at this scale.
    """
    base = cyclic_tighten(word)
    current = base
    for t in range(1, t_max + 1):
        for factor in f.factors:
            expanded: list[str] = []
            for token in current:
                expanded.extend(factor.image_edges(token))
                if len(expanded) > budget:
                    return ("escaped", t)
            current = cyclic_tighten(tuple(expanded))
        if cyclically_equal(current, base):
            return ("recurrent", t)
    return ("no_recurrence", None)


def random_cyclic_words(graph: Graph, count: int, max_len: int, seed: int) -> list[tuple[str, ...]]:
    """Deterministic sample of nonempty reduced cyclic words on the graph."""
    rng = random.Random(seed)
    words = []
    tokens = list(graph.directed_edges)
    attempts = 0
    while len(words) < count and attempts < 100 * count:
        attempts += 1
        length = rng.randint(1, max_len)
        start = rng.choice([t for t in tokens if graph.init_of(t) == graph.init_of(tokens[0])] or tokens)
        word = [start]
        ok = True
        for _ in range(length - 1):
            options = [
                t
                for t in graph.edges_at(graph.term_of(word[-1]))
                if t != inverse(word[-1])
            ]
            if not options:
                ok = False
                break
            word.append(rng.choice(options))
        if not ok:
            continue
        # keep only closed words so the cyclic class is meaningful
        if graph.term_of(word[-1]) != graph.init_of(word[0]):
            continue
        reduced = cyclic_tighten(tuple(word))
        if reduced:
            words.append(reduced)
    return words


def periodic_class_survey(f: MapChain, count: int = 50, max_len: int = 6, t_max: int = 6, seed: int = 20240901) -> dict:
    """Survey random short conjugacy classes for early recurrence."""
    words = random_cyclic_words(f.graph, count, max_len, seed)
    statuses = [periodic_class_status(f, w, t_max=t_max) for w in words]
    return {
        "words": len(words),
        "recurrent": sum(1 for s, _ in statuses if s == "recurrent"),
        "escaped": sum(1 for s, _ in statuses if s == "escaped"),
        "no_recurrence": sum(1 for s, _ in statuses if s == "no_recurrence"),
    }


# -- selectors ------------------------------------------------------------------------


def verify_selectors(graph, gates, bp, sel) -> None:
    """Re-check every selection against its row of the clause table, as
    ``select_paths`` does before it returns; raises ``SelectorError``
    naming each violated clause."""
    _verify_rows(graph, gates, selector_clauses(graph, gates, bp), sel)


# -- homotopy inverses on pi_1 ---------------------------------------------------------


def is_inner_endomorphism(endo: dict[str, tuple[str, ...]]) -> bool:
    """True iff the endomorphism is conjugation by a single word.

    The conjugator, if any, is a prefix of any moved generator's image,
    so scanning prefixes is a complete search.
    """
    gens = sorted(endo, key=token_key)
    moved = [g for g in gens if endo[g] != (g,)]
    if not moved:
        return True
    candidate_source = endo[moved[0]]
    for k in range(len(candidate_source) + 1):
        w = candidate_source[:k]
        w_inv = inverse_word(w)
        if all(tighten_word(w + (g,) + w_inv) == endo[g] for g in gens):
            return True
    return False


def verify_homotopy_equivalence(f: GraphMap, f_inv: GraphMap, marking: Pi1Marking) -> bool:
    """Check that ``f_inv`` inverts ``f`` up to inner automorphisms.

    Both composition orders are required to induce conjugations, which
    pins down a genuine homotopy inverse rather than a one-sided retract.
    """
    for left, right in ((f_inv, f), (f, f_inv)):
        endo = pi1_automorphism(compose_maps(left, right), marking)
        if not is_inner_endomorphism(endo):
            return False
    return True
