"""Gate-aware analysis of graph self-maps.

Covers direction maps, train track validation, intrinsic gate structures,
gate-Whitehead graphs, long-turn counts with the legalizing verifier,
bounded periodic Nielsen path search, and gate index lists.  The intrinsic
gates, and their check that the map is a classical train track map, read
one table of eventual directions, ``Df^D`` for ``D`` the number of
directions; the periodic vertices are the image of the same power of the
vertex map.

Every map is a ``MapChain``, a single map a one-factor chain.  Only the
train track morphism test reads factors (``GraphMap``) one at a time.  The
verifiers work through exact lengths, lazy letter windows and the chain
tables' crossed turns, so nothing here ever materializes a composed edge
image.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (
    GateStructure,
    Graph,
    canonical_index_list,
    is_legal_word,
    token_key,
)
from .maps import (
    ComparisonBudgetError,
    GraphMap,
    MapChain,
    MapError,
    compare_image_words,
    strip_windows,
)

NONE_FOUND = "none_found"
FOUND = "found"
LEGALIZING = "legalizing"
FAILED = "failed"

INP_PERIOD_BOUND = 8  # largest period the Nielsen path search tries
INP_LENGTH_BOUND = 200  # letters kept of each branch after a strip step
INP_MAX_STEPS = 48  # strip steps taken from one turn at one period
LEGALIZING_FAMILY_BUDGET = 500_000  # long-turn families verify_legalizing resolves


class VerificationBudgetError(RuntimeError):
    """Raised when image agreement outlasts every comparison budget."""


# -- turns -------------------------------------------------------------------


@dataclass(frozen=True)
class Turn:
    """An unordered pair of directed edges with a common initial vertex."""

    a: str
    b: str

    def __post_init__(self):
        a, b = sorted((self.a, self.b), key=token_key)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def is_legal(self, gates: GateStructure) -> bool:
        return gates.is_legal_turn(self.a, self.b)

    def tokens(self) -> tuple[str, str]:
        return (self.a, self.b)


def turns_at(graph: Graph, vertex: str) -> Iterator[Turn]:
    """Non-degenerate turns based at a vertex, each unordered pair once."""
    edges = graph.edges_at(vertex)
    for a, b in itertools.combinations(edges, 2):
        yield Turn(a, b)


def all_turns(graph: Graph) -> Iterator[Turn]:
    for v in graph.vertices:
        yield from turns_at(graph, v)


def illegal_turns(graph: Graph, gates: GateStructure) -> list[Turn]:
    return [t for t in all_turns(graph) if not t.is_legal(gates)]


# -- direction maps ------------------------------------------------------------


def direction_map(f: MapChain) -> dict[str, str]:
    """Initial-edge map on all directed edges (defined: no contracted edges)."""
    return {t: f.direction(t) for t in f.graph.directed_edges}


def gate_direction_map(f: MapChain, gates: GateStructure) -> dict[int, int] | None:
    """The induced map on gates, or None if some gate's directions split."""
    out: dict[int, int] = {}
    for gid, members in enumerate(gates.gates):
        images = {gates.gate_of(f.direction(t)) for t in members}
        if len(images) != 1:
            return None
        out[gid] = images.pop()
    return out


def fixes_all_gates(f: MapChain, gates: GateStructure) -> bool:
    """Whether every gate maps to itself, that is every direction lands in
    its own gate."""
    gate_of = gates.gate_of
    return all(gate_of(f.direction(t)) == gate_of(t) for t in f.graph.directed_edges)


# -- train track validation ------------------------------------------------


@dataclass(frozen=True)
class TrainTrackDiagnostics:
    illegal_images: tuple[str, ...]
    illegal_turn_images: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not (self.illegal_images or self.illegal_turn_images)


def check_train_track_morphism(f: MapChain, gates: GateStructure) -> TrainTrackDiagnostics:
    """Verify the train track morphism conditions with respect to ``gates``.

    Every distinct factor is checked directly, once and in chain order,
    from its own images, never through a chain.  A chain of train track
    morphisms is again one, so nothing is checked on the composite itself:
    its images are nonempty, legal edge images stay legal through maps that
    send legal paths to legal paths, and its direction map, the composite
    of the factors' direction maps, sends legal turns to legal turns.  No edge
    image is ever empty: ``GraphMap`` rejects contracted edges.  A factor
    is read only where it moves: an edge it fixes has a legal one-letter
    image.
    """
    edges = f.graph.positive_edges
    for factor in {id(factor): factor for factor in f.factors}.values():
        moved = factor.touched_tokens
        diag = TrainTrackDiagnostics(
            tuple(e for e in edges if e in moved and not is_legal_word(factor.image_edges(e), gates)),
            tuple(_illegal_legal_turn_images(factor, gates)),
        )
        if not diag.ok:
            return diag
    return TrainTrackDiagnostics((), ())


def _illegal_legal_turn_images(f: GraphMap, gates: GateStructure) -> list[tuple[str, str]]:
    """The legal turns that ``f`` maps to illegal or degenerate ones, in
    the order of ``turns_at``.  Only the pairs with a moved direction are
    read: a turn whose directions both stay put maps to itself."""
    image = f.image_edges
    moved = {t for t in f.touched_tokens if image(t)[0] != t}
    bad = []
    for v in f.graph.vertices:
        edges = f.graph.edges_at(v)
        if moved.isdisjoint(edges):
            continue
        # the pairs of turns_at, made into Turns only when reported
        for a, b in itertools.combinations(edges, 2):
            if (a in moved or b in moved) and gates.is_legal_turn(a, b):
                da, db = image(a)[0], image(b)[0]
                if da == db or not gates.is_legal_turn(da, db):
                    bad.append(Turn(a, b).tokens())
    return bad


# -- intrinsic gate structure --------------------------------------------------


def _settled(step: dict[str, str]) -> dict[str, str]:
    """``step^n`` for a self-map ``step`` of an ``n``-element set.

    Every orbit is periodic after at most ``n - 1`` steps, and ``step``
    permutes the periodic points, so two points ever collide iff their
    ``n``-th images agree, and those images are the periodic points.
    """
    out = step
    for _ in range(len(step) - 1):
        out = {t: step[x] for t, x in out.items()}
    return out


def intrinsic_gate_structure(f: MapChain) -> GateStructure:
    """Gates by eventual direction collision: Df^t(e) = Df^t(e') for some t.

    Directions share a gate when they share their initial vertex and their
    eventual direction.  Raises ``MapError`` unless ``f`` is a classical
    train track map: the taken turns, those crossed by single edge images,
    are closed under the direction map, and some ``f^t(e)`` is unreduced
    iff some taken turn has equal eventual directions.
    """
    eventual = _settled(direction_map(f))
    if any(eventual[x] == eventual[y] for x, y in f.crossed_turns):
        raise MapError("map is not a classical train track map")
    graph = f.graph
    groups: dict[tuple[str, str], list[str]] = {}
    for t in graph.directed_edges:
        groups.setdefault((graph.init_of(t), eventual[t]), []).append(t)
    return GateStructure(graph, groups.values())


# -- gate-Whitehead graphs -----------------------------------------------------


@dataclass(frozen=True)
class WhiteheadGraph:
    """Gates at one vertex, joined when some iterated image crosses the pair."""

    vertex: str
    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def is_connected(self) -> bool:
        if len(self.nodes) <= 1:
            return True
        adj: dict[int, set[int]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            for m in adj[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return len(seen) == len(self.nodes)


def whitehead_graphs(f: MapChain, gates: GateStructure) -> dict[str, WhiteheadGraph]:
    """Gate-Whitehead graphs at every vertex, by crossing-set transfer.

    The crossed gate pairs of all iterated images are the closure of the
    single-image pairs under the induced gate map; the set is monotone and
    bounded by the number of gate pairs, so the iteration stabilizes.
    """
    graph = f.graph
    if not f.fixes_all_vertices():
        raise MapError("Whitehead graphs need a map fixing every vertex")
    gmap = gate_direction_map(f, gates)
    if gmap is None:
        raise MapError("map is not a train track morphism for these gates")
    pairs = set()
    for (x, y) in f.crossed_turns:
        ga, gb = gates.gate_of(x), gates.gate_of(y)
        pairs.add((ga, gb) if ga <= gb else (gb, ga))
    while True:
        extra = {
            (min(gmap[a], gmap[b]), max(gmap[a], gmap[b])) for (a, b) in pairs
        } - pairs
        if not extra:
            break
        pairs |= extra
    out = {}
    for v in graph.vertices:
        nodes = gates.gates_at(v)
        node_set = set(nodes)
        edges = frozenset(
            (a, b) for (a, b) in pairs if a in node_set and b in node_set and a != b
        )
        out[v] = WhiteheadGraph(v, nodes, edges)
    return out


# -- long turns ---------------------------------------------------------------


def count_long_turns(graph: Graph, gates: GateStructure, length: int) -> int:
    """|LT_C| by dynamic programming, without enumeration."""
    counts = {t: 1 for t in graph.directed_edges}
    for _ in range(length - 1):
        counts = {
            t: sum(counts[x] for x in gates.legal_continuations(t))
            for t in graph.directed_edges
        }
    total = 0
    for v in graph.vertices:
        per_edge = [counts[e] for e in graph.edges_at(v)]
        s = sum(per_edge)
        total += (s * s - sum(c * c for c in per_edge)) // 2
    return total


# -- the legalizing verifier ---------------------------------------------------


@dataclass(frozen=True)
class LegalizingCertificate:
    branch_length: int
    checked: int
    families: int
    verdict: str
    witness: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    witness_reason: str | None = None
    witness_image_turn: tuple[str, str] | None = None

    @property
    def ok(self) -> bool:
        return self.verdict == LEGALIZING

    def to_json(self) -> dict:
        data = {
            "C": self.branch_length,
            "checked": self.checked,
            "families": self.families,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            data["witness"] = [list(self.witness[0]), list(self.witness[1])]
            data["witness_reason"] = self.witness_reason
            if self.witness_image_turn:
                data["witness_image_turn"] = list(self.witness_image_turn)
        return data


class _Failure(Exception):
    def __init__(self, branch_a, branch_b, reason, image_turn=None):
        self.branch_a = branch_a
        self.branch_b = branch_b
        self.reason = reason
        self.image_turn = image_turn


def verify_legalizing(g: MapChain, gates: GateStructure, branch_length: int) -> LegalizingCertificate:
    """Decide whether every long turn in LT_C is g-long with legal image.

    Long turns are resolved family-wise: once the branch images diverge,
    every completion of the two branch prefixes shares the divergence, so
    the whole family is settled at once.  Branches are only extended while
    one image remains an initial subpath of the other, which is exactly
    the case enumeration cannot shortcut.  Passing at C implies passing at
    every C' >= C, since longer long turns contain checked ones as
    subturns and images only extend.
    """
    graph = g.graph
    families = 0

    def resolve(br_a: tuple[str, ...], br_b: tuple[str, ...]):
        nonlocal families
        families += 1
        if families > LEGALIZING_FAMILY_BUDGET:
            raise VerificationBudgetError(
                f"legalizing verification exceeded {LEGALIZING_FAMILY_BUDGET} families"
            )
        outcome = compare_image_words(g, br_a, br_b)
        if outcome[0] == "diverge":
            _, _, la, lb = outcome
            if gates.is_legal_turn(la, lb):
                return
            raise _Failure(br_a, br_b, "illegal image turn", (la, lb))
        side = outcome[1]
        extend_a = side in ("a", "equal")
        extend_b = side in ("b", "equal")
        if (extend_a and len(br_a) >= branch_length) or (
            extend_b and len(br_b) >= branch_length
        ):
            raise _Failure(br_a, br_b, "not g-long")
        if extend_a and extend_b:
            for x in gates.legal_continuations(br_a[-1]):
                for y in gates.legal_continuations(br_b[-1]):
                    resolve(br_a + (x,), br_b + (y,))
        elif extend_a:
            for x in gates.legal_continuations(br_a[-1]):
                resolve(br_a + (x,), br_b)
        else:
            for y in gates.legal_continuations(br_b[-1]):
                resolve(br_a, br_b + (y,))

    checked = count_long_turns(graph, gates, branch_length)
    try:
        for v in graph.vertices:
            edges = graph.edges_at(v)
            for i, e in enumerate(edges):
                for e2 in edges[i + 1:]:
                    resolve((e,), (e2,))
    except _Failure as fail:
        wa = _complete_branch(gates, fail.branch_a, branch_length)
        wb = _complete_branch(gates, fail.branch_b, branch_length)
        return LegalizingCertificate(
            branch_length,
            checked,
            families,
            FAILED,
            witness=(wa, wb),
            witness_reason=fail.reason,
            witness_image_turn=fail.image_turn,
        )
    return LegalizingCertificate(branch_length, checked, families, LEGALIZING)


def _complete_branch(gates: GateStructure, branch: tuple[str, ...], length: int) -> tuple[str, ...]:
    out = list(branch)
    while len(out) < length:
        out.append(gates.legal_continuations(out[-1])[0])
    return tuple(out[:length]) if len(out) > length else tuple(out)


# -- periodic Nielsen path search ---------------------------------------------


@dataclass(frozen=True)
class InpSearchResult:
    period_bound: int
    length_bound: int
    found: tuple[tuple[Turn, int, tuple[tuple[str, ...], tuple[str, ...]]], ...]
    verdict: str
    notes: tuple[str, ...] = ()


def find_periodic_inps(f: MapChain, gates: GateStructure) -> InpSearchResult:
    """Bounded search for periodic Nielsen paths with vertex endpoints.

    For each illegal turn (e, e') and period p up to INP_PERIOD_BOUND, a
    fixed branch pair (x, y) with f^p(x) = w.x and f^p(y) = w.y is hunted
    by iterating the strip step (cancel the common image prefix, keep
    INP_LENGTH_BOUND letters of each branch) at most INP_MAX_STEPS times.
    The first letters of such a pair satisfy Df^p(e) = Df^p(e'), so turns
    whose direction pair never degenerates are skipped outright.  A found
    pair is verified against the exact fixed-state equations; the reduced
    path x-bar.y is then a periodic Nielsen path crossing the turn.

    Each power p keeps one ``StripSteps`` table, shared by every turn
    searched at p, so no strip step that stays within the comparison
    budget is taken twice at one power: the states of one search settle
    into a fixed state or a swapped 2-cycle (x, y) -> (y, x) -> (x, y),
    and searches from different turns meet.  Images are never tightened,
    so f^p = f^q after f^(p-q) letter by letter, and ``f.power(p)`` ends
    in the passes of every lower power q: where a strip step at p meets
    two different letters a and b at the top of power q, it reads the
    step of the single-letter state ((a,), (b,)) from q's table, made
    and filled there on first use (Bestvina-Handel 1992, section 5).

    Absence is bounded-complete for vertex-endpoint candidates only;
    Nielsen paths with endpoints inside edges are out of scope here.

    ``certify`` never runs the search on a realization: its two grades
    rest on the hypotheses of Theorem 6.2, which conclude there are no
    periodic Nielsen paths.  Its intrinsic grader, behind
    ``stable_index_list`` and the experiment, always runs it.
    """
    graph = f.graph
    for e in graph.positive_edges:
        if f.image_length(e) < 2:
            raise MapError(f"expansion required: |f({e})| < 2")
    # direction orbits up to the period bound
    df = direction_map(f)
    dirs = {t: [t] for t in graph.directed_edges}
    for _ in range(INP_PERIOD_BOUND):
        for t in graph.directed_edges:
            dirs[t].append(df[dirs[t][-1]])
    found = []
    notes: list[str] = []
    tables: dict[int, StripSteps] = {}

    def table(p: int) -> StripSteps:
        if p not in tables:
            lower = {f.power(q): (lambda a, b, q=q: table(q).lookup(a, b)) for q in range(1, p)}
            tables[p] = StripSteps(f.power(p), notes, lower)
        return tables[p]

    for turn in illegal_turns(graph, gates):
        e, e2 = turn.tokens()
        for p in range(1, INP_PERIOD_BOUND + 1):
            if dirs[e][p] != dirs[e2][p]:
                continue
            hit = _iterate_strip_states(table(p), turn)
            if hit is not None:
                found.append((turn, p, hit))
    verdict = FOUND if found else NONE_FOUND
    return InpSearchResult(INP_PERIOD_BOUND, INP_LENGTH_BOUND, tuple(found), verdict, tuple(notes))


def _iterate_strip_states(steps: StripSteps, turn: Turn):
    fp = steps.fp
    x: tuple[str, ...] = (turn.a,)
    y: tuple[str, ...] = (turn.b,)
    seen = {(x, y)}
    for _ in range(INP_MAX_STEPS):
        step = steps.step(x, y)
        if step is None:
            return None
        cut, nx, ny = step
        if (nx, ny) == (x, y):
            # exact fixed-state equations: remainder lengths must equal the
            # branch lengths, and the remainders must equal the branches.
            if _image_length_is(fp, x, cut + len(x)) and _image_length_is(fp, y, cut + len(y)):
                return (x, y)
            return None
        if (nx, ny) in seen:
            return None
        seen.add((nx, ny))
        x, y = nx, ny
    steps.notes.append(
        f"state iteration for turn {turn.tokens()} hit the step bound"
    )
    return None


def _image_length_is(fp: MapChain, word: tuple[str, ...], n: int) -> bool:
    """Whether the image of ``word`` has exactly ``n`` letters, summing the
    letters' image lengths only until they pass ``n``: a fixed-state check
    mostly fails on the first letter or two of a 200-letter window."""
    total = 0
    for t in word:
        total += fp.image_length(t)
        if total > n:
            return False
    return total == n


class StripSteps:
    """The strip steps taken at one power ``fp``, keyed by state (x, y).

    ``step(x, y)`` strips the common prefix of fp(x) and fp(y) and returns
    (cut, x', y'): the prefix length and the next ``INP_LENGTH_BOUND``
    letters of each image from there.  It returns None when one image
    contains the other (no vertex Nielsen path this way) or when the
    comparison runs out of budget.  A state whose swap (y, x) was already taken reads that
    step with the two windows exchanged, since the divergence of two
    images is symmetric, and a containment is None either way.  ``taken``
    holds the step returned for every state asked, except a step that ran
    out of budget: that one appends a note to ``notes`` and is taken
    afresh each time, so every note is still written.

    ``lower`` is the ``lookup`` argument of ``strip_windows``: it maps the
    lower powers whose passes end ``fp`` to their tables' ``lookup``.
    ``lookup(a, b)`` is the step of the state ((a,), (b,)) asked by a
    higher power: it fills ``taken`` as ``step`` does, but out of budget
    it is a miss that writes no note and stores nothing.
    """

    def __init__(self, fp: MapChain, notes: list[str], lower: dict | None = None):
        self.fp = fp
        self.notes = notes
        self.lower = lower
        self.taken: dict[tuple, tuple | None] = {}

    def step(self, x: tuple[str, ...], y: tuple[str, ...]):
        try:
            return self._take(x, y)
        except ComparisonBudgetError:
            self.notes.append("strip step exceeded the comparison budget")
            return None

    def lookup(self, a: str, b: str):
        try:
            return self._take((a,), (b,))
        except ComparisonBudgetError:
            return None

    def _take(self, x: tuple[str, ...], y: tuple[str, ...]):
        taken = self.taken
        if (x, y) in taken:
            return taken[(x, y)]
        if (y, x) in taken:
            swap = taken[(y, x)]
            result = None if swap is None else (swap[0], swap[2], swap[1])
        else:
            outcome = strip_windows(self.fp, x, y, INP_LENGTH_BOUND, self.lower)
            if outcome[0] == "contained":
                result = None
            else:
                _, cut, nx, ny = outcome
                result = (cut, tuple(nx), tuple(ny))
        taken[(x, y)] = result
        return result


# -- index lists ----------------------------------------------------------------


def gate_index_list(
    graph: Graph, gates: GateStructure, periodic: Iterable[str]
) -> tuple[int, ...]:
    """Doubled gate indices (gates(v) - 2) at periodic vertices with >= 3 gates."""
    doubled = [
        gates.gate_count(v) - 2
        for v in periodic
        if gates.gate_count(v) >= 3
    ]
    return canonical_index_list(doubled)


def periodic_vertices(f: MapChain) -> frozenset[str]:
    """The vertices on cycles of the vertex map."""
    return frozenset(_settled(f.vertex_image).values())
