"""Gate-aware analysis of graph self-maps.

Covers direction maps, train track validation, intrinsic gate structures,
gate-Whitehead graphs, long turns with the legalizing verifier, bounded
periodic Nielsen path search, and gate index lists.  The classical train
track test and the intrinsic gates both read one table of eventual
directions, ``Df^D`` for ``D`` the number of directions; the periodic
vertices are the image of the same power of the vertex map.

Maps may be materialized (``GraphMap``) or factored (``MapChain``),
except in ``long_turn_image``, which spells its branches out.  The
verifiers work through exact lengths, lazy letter windows and the chain
table's crossed turns, so nothing here ever materializes a composed edge
image.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (
    GateStructure,
    Graph,
    GraphError,
    Path,
    canonical_index_list,
    is_legal_word,
    token_key,
)
from .maps import (
    ComparisonBudgetError,
    MapChain,
    MapError,
    as_chain,
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
LONG_TURN_IMAGE_BUDGET = 1_000_000  # letters long_turn_image spells per branch


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


def direction_map(f) -> dict[str, str]:
    """Initial-edge map on all directed edges (defined: no contracted edges)."""
    return {t: f.direction(t) for t in f.graph.directed_edges}


def gate_direction_map(f, gates: GateStructure) -> dict[int, int] | None:
    """The induced map on gates, or None if some gate's directions split."""
    out: dict[int, int] = {}
    for gid, members in enumerate(gates.gates):
        images = {gates.gate_of(f.direction(t)) for t in members}
        if len(images) != 1:
            return None
        out[gid] = images.pop()
    return out


def fixes_all_gates(f, gates: GateStructure) -> bool:
    gmap = gate_direction_map(f, gates)
    return gmap is not None and all(k == v for k, v in gmap.items())


# -- train track validation ------------------------------------------------


@dataclass(frozen=True)
class TrainTrackDiagnostics:
    illegal_images: tuple[str, ...]
    illegal_turn_images: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not (self.illegal_images or self.illegal_turn_images)


def check_train_track_morphism(f, gates: GateStructure) -> TrainTrackDiagnostics:
    """Verify the train track morphism conditions with respect to ``gates``.

    Every distinct factor is checked directly, once and in chain order, and
    a single map is its own one factor.  A chain of train track morphisms
    is again one, so nothing is checked on the composite itself: its images
    are nonempty, legal edge images stay legal through maps that send legal
    paths to legal paths, and its direction map, the composite of the
    factors' direction maps, sends legal turns to legal turns.  No edge
    image is ever empty: ``GraphMap`` rejects contracted edges.
    """
    edges = f.graph.positive_edges
    for factor in dict.fromkeys(f.factors):
        diag = TrainTrackDiagnostics(
            tuple(e for e in edges if not is_legal_word(factor.image_edges(e), gates)),
            tuple(_illegal_legal_turn_images(factor, gates)),
        )
        if not diag.ok:
            return diag
    return TrainTrackDiagnostics((), ())


def _illegal_legal_turn_images(f, gates: GateStructure) -> list[tuple[str, str]]:
    bad = []
    df = direction_map(f)
    for v in f.graph.vertices:
        # the pairs of turns_at, made into Turns only when reported; a
        # turn whose directions both stay put maps to itself
        for a, b in itertools.combinations(f.graph.edges_at(v), 2):
            da, db = df[a], df[b]
            if (da != a or db != b) and gates.is_legal_turn(a, b):
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


def is_classical_train_track(f) -> bool:
    """All iterated edge images reduced: no taken turn ever degenerates.

    The taken turns are those crossed by single edge images, read exactly
    from the chain table for a map and a chain alike; they are closed
    under the direction map, and some ``f^t(e)`` is unreduced iff some
    taken turn has equal eventual directions.
    """
    return _keeps_taken_turns(f, _settled(direction_map(f)))


def _keeps_taken_turns(f, eventual: dict[str, str]) -> bool:
    return all(eventual[x] != eventual[y] for x, y in as_chain(f).crossed_turns)


def intrinsic_gate_structure(f) -> GateStructure:
    """Gates by eventual direction collision: Df^t(e) = Df^t(e') for some t.

    Directions share a gate when they share their initial vertex and their
    eventual direction.  Raises ``MapError`` unless ``f`` is a classical
    train track map.
    """
    eventual = _settled(direction_map(f))
    if not _keeps_taken_turns(f, eventual):
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

    def is_complete(self) -> bool:
        want = len(self.nodes) * (len(self.nodes) - 1) // 2
        return len(self.edges) == want


def whitehead_graphs(f, gates: GateStructure) -> dict[str, WhiteheadGraph]:
    """Gate-Whitehead graphs at every vertex, by crossing-set transfer.

    The crossed gate pairs of all iterated images are the closure of the
    single-image pairs under the induced gate map; the set is monotone and
    bounded by the number of gate pairs, so the iteration stabilizes.
    """
    graph = f.graph
    if not all(f.vertex_image[v] == v for v in graph.vertices):
        raise MapError("Whitehead graphs need a map fixing every vertex")
    gmap = gate_direction_map(f, gates)
    if gmap is None:
        raise MapError("map is not a train track morphism for these gates")
    pairs = set()
    for (x, y) in as_chain(f).crossed_turns:
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


@dataclass(frozen=True)
class LongTurn:
    """Two legal paths from one vertex with distinct initial edges."""

    branch_a: Path
    branch_b: Path

    def __post_init__(self):
        if self.branch_a.is_empty or self.branch_b.is_empty:
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


def long_turn_image(g, lt: LongTurn) -> LongTurn | None:
    """The image long turn after erasing the common initial subpath.

    Returns None when one branch image is a subpath of the other (the long
    turn is not g-long).  Branch lengths of the image may differ; truncate
    to the shorter one when a fixed branch length is needed downstream.
    ``g`` is a materialized map, whose ``apply_path`` spells the branches.
    """
    la = g.word_image_length(lt.branch_a.edges)
    lb = g.word_image_length(lt.branch_b.edges)
    if max(la, lb) > LONG_TURN_IMAGE_BUDGET:
        raise MapError("long turn image exceeds materialization budget")
    wa = g.apply_path(lt.branch_a).edges
    wb = g.apply_path(lt.branch_b).edges
    cut = 0
    limit = min(len(wa), len(wb))
    while cut < limit and wa[cut] == wb[cut]:
        cut += 1
    if cut == limit:
        return None
    graph = g.graph
    start = graph.init_of(wa[cut])
    return LongTurn(Path(start, tuple(wa[cut:])), Path(start, tuple(wb[cut:])))


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


def verify_legalizing(g, gates: GateStructure, branch_length: int) -> LegalizingCertificate:
    """Decide whether every long turn in LT_C is g-long with legal image.

    Long turns are resolved family-wise: once the branch images diverge,
    every completion of the two branch prefixes shares the divergence, so
    the whole family is settled at once.  Branches are only extended while
    one image remains an initial subpath of the other, which is exactly
    the case enumeration cannot shortcut.  Passing at C implies passing at
    every C' >= C, since longer long turns contain checked ones as
    subturns and images only extend.
    """
    chain = as_chain(g)
    graph = g.graph
    families = 0

    def resolve(br_a: tuple[str, ...], br_b: tuple[str, ...]):
        nonlocal families
        families += 1
        if families > LEGALIZING_FAMILY_BUDGET:
            raise VerificationBudgetError(
                f"legalizing verification exceeded {LEGALIZING_FAMILY_BUDGET} families"
            )
        outcome = compare_image_words(chain, br_a, br_b)
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

    def to_json(self) -> dict:
        return {
            "periodBound": self.period_bound,
            "lengthBound": self.length_bound,
            "verdict": self.verdict,
            "found": [
                {
                    "turn": list(turn.tokens()),
                    "period": p,
                    "branches": [list(x), list(y)],
                }
                for (turn, p, (x, y)) in self.found
            ],
            "notes": list(self.notes),
        }


def find_periodic_inps(f, gates: GateStructure) -> InpSearchResult:
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
    and searches from different turns meet.

    Absence is bounded-complete for vertex-endpoint candidates only;
    Nielsen paths with endpoints inside edges are out of scope here.
    """
    graph = f.graph
    for e in graph.positive_edges:
        if f.image_length(e) < 2:
            raise MapError(f"expansion required: |f({e})| < 2")
    base = as_chain(f)
    # direction orbits up to the period bound
    df = direction_map(f)
    dirs = {t: [t] for t in graph.directed_edges}
    for _ in range(INP_PERIOD_BOUND):
        for t in graph.directed_edges:
            dirs[t].append(df[dirs[t][-1]])
    found = []
    notes: list[str] = []
    tables: dict[int, StripSteps] = {}
    for turn in illegal_turns(graph, gates):
        e, e2 = turn.tokens()
        for p in range(1, INP_PERIOD_BOUND + 1):
            if dirs[e][p] != dirs[e2][p]:
                continue
            if p not in tables:
                tables[p] = StripSteps(base.power(p), notes)
            hit = _iterate_strip_states(tables[p], turn)
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
            if fp.word_image_length(x) - cut == len(x) and fp.word_image_length(y) - cut == len(y):
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
    """

    def __init__(self, fp: MapChain, notes: list[str]):
        self.fp = fp
        self.notes = notes
        self.taken: dict[tuple, tuple | None] = {}

    def step(self, x: tuple[str, ...], y: tuple[str, ...]):
        taken = self.taken
        if (x, y) in taken:
            return taken[(x, y)]
        if (y, x) in taken:
            swap = taken[(y, x)]
            result = None if swap is None else (swap[0], swap[2], swap[1])
        else:
            try:
                outcome = strip_windows(self.fp, x, y, INP_LENGTH_BOUND)
            except ComparisonBudgetError:
                self.notes.append("strip step exceeded the comparison budget")
                return None
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


def periodic_vertices(f) -> frozenset[str]:
    """The vertices on cycles of the vertex map."""
    return frozenset(_settled(f.vertex_image).values())
