"""The realization pipeline.

Validates an index list, builds the gated circle-with-loops graph whose
gate counts realize it, selects the legal carrier/witness/split paths
(one dict keyed by clause kind and key), and builds the two record
lists: the mixing factors H and the turn legalizers L.  A realization is
its records: ``realization_chains`` builds the one shape h = H∘H,
g = h∘L∘h and final = g∘h from them, and ``stored_chains`` spells that
shape in the document.  ``realize`` finds the least C of a doubling
ladder at which g legalizes and grades the records with the one grader
that ``certify`` also uses.  The document stores only what the decoder
reads: the selected paths live on in the factors built from them, and
the legalizing block is only C.  The decoder rejects a document whose
stored chains are not the ones its records make.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .core import (
    GateStructure,
    Graph,
    canonical_index_list,
    inverse,
    token_key,
    validate_graph,
)
from .certify import CertificationReport, grade_realization
from .maps import GraphMap, MapChain
from .traintrack import LegalizingCertificate, Turn, illegal_turns, verify_legalizing

CASE_EVEN = "even"
CASE_ODD = "odd"
CASE_MAX_ODD = "max_odd"

ODD_LOOP_COUNT_NOTE = (
    "odd case uses s = N - r - 2 loop edges: the extra loop is accounted to the"
    " d-edge, keeping the graph rank equal to the requested rank"
)

SELECT_MAX_LEN = 128  # longest word the selector search tries


class InvalidIndexList(ValueError):
    """Raised for index lists outside the admissible range."""


class SelectorError(RuntimeError):
    """Raised when a selected path fails its defining clause (a pipeline bug)."""


class LegalizingSearchError(RuntimeError):
    """Raised when h∘L∘h is not legalizing at any C up to the cap."""


# -- blueprints ----------------------------------------------------------------


@dataclass(frozen=True)
class RealizationBlueprint:
    rank: int
    entries: tuple[int, ...]  # doubled indices, input order; drives v_1..v_l
    case: str
    gate_counts: tuple[int, ...]  # i_k at vertex v_k
    r: int
    s: int
    has_d: bool
    germ_pairing: tuple[tuple[str, str], ...]
    notes: tuple[str, ...] = ()

    @property
    def index_list(self) -> tuple[int, ...]:
        return canonical_index_list(self.entries)

    @property
    def circle_length(self) -> int:
        return len(self.entries)

    @property
    def long_turn_length(self) -> int:
        return self.circle_length + 1 if self.case == CASE_MAX_ODD else 1

    @property
    def c_max(self) -> int:
        """The cap on the legalizing ladder's C, and on a document's stored C."""
        return 64 * self.long_turn_length


def validate_and_classify(rank: int, entries: Sequence[int]) -> RealizationBlueprint:
    """Classify a doubled index list and derive all construction counts.

    Raises InvalidIndexList for rank < 3, non-positive entries, or a sum
    outside [1/2, rank - 3/2] (all arithmetic on doubled values).
    """
    entries = tuple(int(d) for d in entries)
    if rank < 3:
        raise InvalidIndexList(f"rank must be at least 3, got {rank}")
    if not entries:
        raise InvalidIndexList("empty index list")
    if any(d < 1 for d in entries):
        raise InvalidIndexList("every index entry must be at least 1/2")
    total = sum(entries)
    if total > 2 * rank - 3:
        raise InvalidIndexList(
            f"index sum {total}/2 exceeds the admissible maximum {2 * rank - 3}/2"
        )
    gate_counts = tuple(d + 2 for d in entries)
    if total % 2 == 0:
        case = CASE_EVEN
    elif total == 2 * rank - 3:
        case = CASE_MAX_ODD
    else:
        case = CASE_ODD
    r = total // 2
    notes: list[str] = []
    if case == CASE_EVEN:
        s, has_d = rank - r - 1, False
    elif case == CASE_ODD:
        s, has_d = rank - r - 2, True
        notes.append(ODD_LOOP_COUNT_NOTE)
    else:
        s, has_d = 1, False
    assert s >= 1, "internal: loop count dropped below 1"
    assert (r == 0) == (entries == (1,)), "internal: r = 0 only for the list [1/2]"
    # germ slots, vertex by vertex; the removed slot is the last one at v_1
    slots: list[str] = []
    for k, i_k in enumerate(gate_counts):
        count = i_k - 2 - (1 if (k == 0 and case != CASE_EVEN) else 0)
        slots.extend([f"v{k + 1}"] * count)
    assert len(slots) == 2 * r, "internal: germ count mismatch"
    pairing = tuple((slots[2 * i], slots[2 * i + 1]) for i in range(r))
    return RealizationBlueprint(
        rank=rank,
        entries=entries,
        case=case,
        gate_counts=gate_counts,
        r=r,
        s=s,
        has_d=has_d,
        germ_pairing=pairing,
        notes=tuple(notes),
    )


def enumerate_admissible(rank: int) -> list[tuple[int, ...]]:
    """Every admissible doubled index list for the rank, canonically ordered.

    These are the partitions of each total in [1, 2*rank - 3] into positive
    parts, listed as non-increasing tuples.
    """
    if rank < 3:
        raise ValueError("rank must be at least 3")
    out: list[tuple[int, ...]] = []
    for total in range(1, 2 * rank - 2):
        out.extend(_partitions(total))
    return out


def _partitions(total: int, largest: int | None = None) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    if largest is None:
        largest = total
    result = []
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            result.append((first,) + rest)
    return result


# -- the graph and its gates ---------------------------------------------------


def build_graph(bp: RealizationBlueprint) -> tuple[Graph, GateStructure]:
    """The subdivided circle with paired chords, loops at v1, and its gates."""
    l = bp.circle_length
    vertices = [f"v{k}" for k in range(1, l + 1)]
    edges: list[tuple[str, str, str]] = []
    for k in range(1, l + 1):
        edges.append((f"c{k}", f"v{k}", f"v{k % l + 1}"))
    for i, (frm, to) in enumerate(bp.germ_pairing, start=1):
        edges.append((f"b{i}", frm, to))
    for i in range(1, bp.s + 1):
        edges.append((f"a{i}", "v1", "v1"))
    if bp.has_d:
        edges.append(("d", "v1", "v1"))
    graph = Graph(vertices, edges)
    a_labels = [f"a{i}" for i in range(1, bp.s + 1)]
    merged: list[list[str]] = []
    if bp.case == CASE_MAX_ODD:
        merged.append(["c1", "a1"])
    else:
        merged.append(["c1"] + a_labels)
        merged.append([inverse(f"c{l}")] + [inverse(a) for a in a_labels])
        if bp.has_d:
            merged.append(["d", "~d"])
    taken = {t for gate in merged for t in gate}
    gates = GateStructure(
        graph, merged + [[t] for t in graph.directed_edges if t not in taken]
    )
    diag = validate_graph(graph)
    if not diag.ok or graph.rank != bp.rank:
        raise InvalidIndexList(
            f"constructed graph fails validation: rank {graph.rank}, {diag}"
        )
    for k, v in enumerate(vertices):
        if gates.gate_count(v) != bp.gate_counts[k]:
            raise SelectorError(
                f"gate count at {v} is {gates.gate_count(v)}, wanted {bp.gate_counts[k]}"
            )
    return graph, gates


# -- path selectors --------------------------------------------------------------

# Every selected path by (clause kind, clause key): the one form the factor
# builders read.  A carrier is its whole loop u e u'.
SelectedPaths = dict[tuple[str, object], tuple[str, ...]]


@dataclass(frozen=True)
class Clause:
    """One row of the selector table: the defining clause of one selected path.

    A word w satisfies the clause when ``lead + w + trail`` is a legal path
    from v1 whose first token passes ``start`` and whose last token passes
    ``end`` (by default any token does), when w itself avoids ``banned``,
    and when w crosses the edge ``once`` exactly once or the gate turn
    ``turn`` (two distinct gates at one vertex) at least once, if either is
    set.  Only a clause with a lead or a trail token can be met by the
    empty word.
    """

    kind: str
    key: str | tuple[int, int]
    banned: frozenset[str]
    start: Callable[[str], bool] = lambda t: True
    end: Callable[[str], bool] = lambda t: True
    lead: tuple[str, ...] = ()
    trail: tuple[str, ...] = ()
    once: str | None = None
    turn: frozenset[int] | None = None

    @property
    def name(self) -> str:
        return f"witness{self.key}" if self.kind == "witness" else f"{self.kind}({self.key})"

    @property
    def initial(self) -> bool:
        """The crossing state of the empty word: met when nothing is required."""
        return self.once is None and self.turn is None

    def cross(self, gates: GateStructure, state: bool, prev: str | None, nxt: str):
        """The crossing state after appending ``nxt``: None once ``once`` is crossed twice."""
        if nxt == self.once:
            return None if state else True
        if self.turn is not None and prev is not None:
            if {gates.gate_of(gates.graph.inverses[prev]), gates.gate_of(nxt)} == self.turn:
                return True
        return state


def selector_clauses(graph: Graph, gates: GateStructure, bp: RealizationBlueprint):
    """The clause table: one row per selected path, in selection order.

    Carriers and witnesses are loops at v1 leaving through gate 1 and
    avoiding a1.  Outside the maximal odd case every e in gate 1 also gets
    an exit extension (e alpha ends in gate 2) and a detour loop, and every
    e whose reverse lies in gate 2 an entry extension (alpha e starts in
    gate 1) and a return loop, all four avoiding the a-loops, e and ~e.
    A path ends "in" a gate when its last edge arrives at v1 through it.
    """
    v1 = graph.vertices[0]
    gate1 = gates.gate_of("c1")

    def starts_in(*ids):
        return lambda t: gates.gate_of(t) in ids

    def starts_outside(*ids):
        return lambda t: gates.gate_of(t) not in ids

    def ends_in(*ids):
        return lambda t: graph.terms[t] == v1 and gates.gate_of(graph.inverses[t]) in ids

    def ends_outside(*ids):
        return lambda t: graph.terms[t] == v1 and gates.gate_of(graph.inverses[t]) not in ids

    anchor = frozenset({"a1", "~a1"})
    # carriers and witnesses share one start and one end, so that
    # ``_select_witnesses`` can tell that the witness rows share them
    leave, back = starts_in(gate1), ends_outside(gate1)
    rows = [
        Clause("carrier", e, anchor | {inverse(e)}, leave, back, once=e)
        for e in graph.positive_edges
        if e != "a1"
    ]
    rows += [
        Clause("witness", pair, anchor, leave, back, turn=frozenset(pair))
        for pair in eligible_gate_turns(graph, gates, bp)
    ]
    if bp.case == CASE_MAX_ODD:
        return rows
    gate2 = gates.gate_of(inverse(f"c{bp.circle_length}"))
    loops = frozenset(t for i in range(1, bp.s + 1) for t in (f"a{i}", f"~a{i}"))
    for e in gates.gate_tokens(gate1):
        banned = loops | {e, inverse(e)}
        rows.append(Clause("exit", e, banned, end=ends_in(gate2), lead=(e,)))
        rows.append(Clause("detour", e, banned, starts_outside(gate1, gate2), ends_outside(gate1)))
    for t in gates.gate_tokens(gate2):
        e = inverse(t)
        banned = loops | {e, t}
        rows.append(Clause("entry", e, banned, starts_in(gate1), trail=(e,)))
        rows.append(Clause("return", e, banned, starts_outside(gate2), ends_outside(gate1, gate2)))
    return rows


def clause_violations(
    graph: Graph, gates: GateStructure, clause: Clause, word: Sequence[str]
) -> list[str]:
    """How ``word`` fails ``clause``; empty when it satisfies it.

    One pass over ``lead + word + trail`` makes every check: the path from
    v1, its turns, and, over the word alone, the banned edges and the
    crossing state.
    """
    lead, trail = clause.lead, clause.trail
    if not word and not (lead or trail):
        return ["empty"]
    edges = (*lead, *word, *trail)
    inits, terms, inverses, gate_of = graph.inits, graph.terms, graph.inverses, gates.gate_of
    banned, once, turn = clause.banned, clause.once, clause.turn
    first, stop = len(lead), len(lead) + len(word)
    at, back = graph.vertices[0], None  # back: the gate the last edge arrived through
    unknown, valid, legal, clean, state = [], True, True, True, clause.initial
    for i, t in enumerate(edges):
        if t not in inits:
            unknown.append(t)
            continue
        if inits[t] != at:
            valid = False
        ahead = gate_of(t)
        if ahead == back:
            legal = False
        if first <= i < stop:
            if t in banned:
                clean = False
            if t == once:
                state = True if state is False else None  # None: crossed twice, for good
            elif turn is not None and i > first and back != ahead and back in turn and ahead in turn:
                state = True
        at, back = terms[t], gate_of(inverses[t])
    if unknown:
        return [f"unknown edges {sorted(set(unknown))}"]
    problems = []
    if not valid:
        problems.append("not a path from v1")
    if not legal:
        problems.append("illegal")
    if not clause.start(edges[0]):
        problems.append(f"starts with {edges[0]}, outside its start gate")
    if not clause.end(edges[-1]):
        problems.append(f"ends with {edges[-1]}, outside its end condition")
    if not clean:
        problems.append("crosses a banned edge")
    if once is not None:
        if state is None:
            problems.append(f"crosses {once} more than once")
        if state is False:
            problems.append(f"does not cross {once}")
    if turn is not None and not state:
        problems.append("does not cross its turn")
    return problems


def _walk(links: dict, node) -> list:
    """``node`` and the nodes its pointers in ``links`` lead to, up to None."""
    out = []
    while node is not None:
        out.append(node)
        node = links[node]
    return out


def _select(graph: Graph, gates: GateStructure, clause: Clause) -> tuple[str, ...]:
    """The shortest word satisfying ``clause``, lexicographically least.

    A breadth-first search over legal extensions that avoid the banned
    set, one level at a time, with a parent pointer per (token, state)
    node.  The goal depends only on the last token and the crossing state,
    so pruning visited nodes keeps the shortest solutions, and visiting
    each level's nodes in order, their extensions in token order, keeps
    the least of them.
    """
    if (clause.lead or clause.trail) and not clause_violations(graph, gates, clause, ()):
        return ()
    banned, end, trail = clause.banned, clause.end, clause.trail
    continuations = gates.legal_continuations

    def done(last: str, state) -> bool:
        if trail:
            if trail[0] not in continuations(last):
                return False
            last = trail[-1]
        return bool(state) and end(last)

    if clause.lead:
        firsts = continuations(clause.lead[-1])
    else:
        firsts = [t for t in graph.edges_at(graph.vertices[0]) if clause.start(t)]
    parent: dict[tuple[str, object], tuple[str, object] | None] = {}
    level = []
    for t in firsts:
        node = (t, clause.cross(gates, clause.initial, None, t))
        if t not in banned and node not in parent:
            parent[node] = None
            level.append(node)
    for length in range(1, SELECT_MAX_LEN + 1):
        below = []
        for node in level:
            last, state = node
            if done(last, state):
                return tuple(t for t, _ in reversed(_walk(parent, node)))
            if length == SELECT_MAX_LEN:
                continue
            for nxt in continuations(last):
                if nxt in banned:
                    continue
                child = (nxt, clause.cross(gates, state, last, nxt))
                if child[1] is not None and child not in parent:
                    parent[child] = node
                    below.append(child)
        level = below
    raise SelectorError(f"no path satisfies {clause.name}")


def _select_witnesses(
    graph: Graph, gates: GateStructure, clauses: Sequence[Clause]
) -> dict[object, tuple[str, ...]]:
    """Every witness row's word, keyed by row, from two searches in all.

    The rows share their banned set, start and end, and differ only in the
    gate turn they must cross.  A forward breadth-first tree from v1 gives
    each token u the least shortest prefix P[u] ending in u, and a backward
    one gives each token n the least shortest completion S[n] after it.  A
    row's word is the least of the shortest words P[u] + n + S[n] over the
    steps u -> n that cross its turn.  This is the word ``_select`` finds:
    cut that word at any crossing, and the part up to u is P[u] and the
    part from n is n + S[n], or putting those in its place would give a
    shorter or smaller word that still crosses.
    """
    if not clauses:
        return {}
    banned, start, end = clauses[0].banned, clauses[0].start, clauses[0].end
    assert all(
        (c.banned, c.start, c.end, c.lead, c.trail, c.once) == (banned, start, end, (), (), None)
        and c.turn is not None
        for c in clauses
    ), "internal: witness rows differ in more than their turn"
    continuations, gate_of, inverses = gates.legal_continuations, gates.gate_of, graph.inverses
    # forward: the first discovery of each token is its least shortest prefix
    parent: dict[str, str | None] = {}
    depth: dict[str, int] = {}
    queue = deque()
    for t in graph.edges_at(graph.vertices[0]):
        if start(t) and t not in banned:
            parent[t], depth[t] = None, 1
            queue.append(t)
    while queue:
        u = queue.popleft()
        for n in continuations(u):
            if n not in banned and n not in parent:
                parent[n], depth[n] = u, depth[u] + 1
                queue.append(n)
    # backward: distance to a last token that meets ``end``; the least
    # shortest completion takes the first continuation one step closer
    allowed = [t for t in graph.directed_edges if t not in banned]
    preceding: dict[str, list[str]] = {t: [] for t in allowed}
    for t in allowed:
        for n in continuations(t):
            if n not in banned:
                preceding[n].append(t)
    dist = {t: 0 for t in allowed if end(t)}
    queue = deque(dist)
    while queue:
        n = queue.popleft()
        for t in preceding[n]:
            if t not in dist:
                dist[t] = dist[n] + 1
                queue.append(t)
    onward: dict[str, str | None] = {
        n: None if d == 0 else next(x for x in continuations(n) if dist.get(x) == d - 1)
        for n, d in dist.items()
    }
    # the steps into and out of each gate that both searches reach
    arriving: dict[int, list[str]] = {}
    leaving: dict[int, list[str]] = {}
    for u in parent:
        arriving.setdefault(gate_of(inverses[u]), []).append(u)
    for n in dist:
        leaving.setdefault(gate_of(n), []).append(n)
    rank = {t: i for i, t in enumerate(sorted(graph.directed_edges, key=token_key))}
    out = {}
    for clause in clauses:
        a, b = clause.turn
        steps = [
            (depth[u] + 1 + dist[n], u, n)
            for x, y in ((a, b), (b, a))
            for u in arriving.get(x, ())
            for n in leaving.get(y, ())
        ]
        shortest = min((length for length, _, _ in steps), default=SELECT_MAX_LEN + 1)
        if shortest > SELECT_MAX_LEN:
            raise SelectorError(f"no path satisfies {clause.name}")
        words = [
            (*reversed(_walk(parent, u)), *_walk(onward, n))
            for length, u, n in steps
            if length == shortest
        ]
        out[clause.key] = min(words, key=lambda w: [rank[t] for t in w])
    return out


def select_paths(graph: Graph, gates: GateStructure, bp: RealizationBlueprint) -> SelectedPaths:
    """Every path of the clause table, searched for and then re-verified:
    the witness rows by one shared search, every other row by its own."""
    clauses = selector_clauses(graph, gates, bp)
    witnesses = _select_witnesses(graph, gates, [c for c in clauses if c.turn is not None])
    sel = {
        (c.kind, c.key): witnesses[c.key] if c.turn is not None else _select(graph, gates, c)
        for c in clauses
    }
    _verify_rows(graph, gates, clauses, sel)
    return sel


def eligible_gate_turns(graph, gates, bp) -> list[tuple[int, int]]:
    """All gate turns, minus those involving the reversed-loop gate in the
    maximal odd case (no witness loop exists for them there)."""
    skip: set[int] = set()
    if bp.case == CASE_MAX_ODD:
        skip.add(gates.gate_of("~a1"))
    out: list[tuple[int, int]] = []
    for v in graph.vertices:
        ids = gates.gates_at(v)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if a in skip or b in skip:
                    continue
                out.append((a, b))
    return out


def verify_selectors(graph, gates, bp, sel: SelectedPaths) -> None:
    """Re-check every selection against its row of the clause table; raises on failure."""
    _verify_rows(graph, gates, selector_clauses(graph, gates, bp), sel)


def _verify_rows(graph, gates, clauses: list[Clause], sel: SelectedPaths) -> None:
    words = dict(sel)
    problems: list[str] = []
    for clause in clauses:
        word = words.pop((clause.kind, clause.key), None)
        if word is None:
            problems.append(f"{clause.name}: missing")
            continue
        problems += [f"{clause.name}: {p}" for p in clause_violations(graph, gates, clause, word)]
    problems += [f"{kind} {key}: not a row of the clause table" for kind, key in words]
    if problems:
        raise SelectorError("selector verification failed:\n" + "\n".join(problems))


# -- factor maps ---------------------------------------------------------------


@dataclass(frozen=True)
class FactorRecord:
    """One elementary factor by name; certify checks that it is a homotopy
    equivalence, and the decoder ignores older documents' ``inverse``."""

    name: str
    map: GraphMap

    def to_json(self, memo: dict | None = None) -> dict:
        return {"name": self.name, "map": self.map.to_json(memo)}

    @classmethod
    def from_json(cls, graph: Graph, data: dict, memo: dict | None = None) -> "FactorRecord":
        return cls(data["name"], GraphMap.from_json(graph, data["map"], memo))


def build_edge_link_map(graph, sel: SelectedPaths, e: str) -> FactorRecord:
    """Threads edge e and the anchor loop a1 through each other."""
    loop = sel["carrier", e]  # u e u', cut at its one crossing of e
    k = loop.index(e)
    u, up = loop[:k], loop[k + 1:]
    images = {"a1": loop + ("a1",), e: (e,) + up + ("a1",) + u + (e,)}
    return FactorRecord(f"link[{e}]", GraphMap.from_updates(graph, images))


def build_turn_legalizer(
    graph, gates, bp: RealizationBlueprint, sel: SelectedPaths, turn: Turn
) -> FactorRecord:
    """The train track morphism whose long-turn image legalizes ``turn``."""
    l = bp.circle_length
    circle = tuple(f"c{k}" for k in range(1, l + 1))
    a, b = turn.tokens()
    name = f"legalize[{a},{b}]"
    if bp.case == CASE_MAX_ODD:
        if {a, b} != {"a1", "c1"}:
            raise SelectorError(f"unexpected illegal turn {turn} in the maximal odd case")
        frm, to = bp.germ_pairing[0]
        k = int(frm[1:])
        k2 = int(to[1:])
        c_head = circle if k == 1 else circle[: k - 1]
        c_tail = () if k2 == 1 else circle[k2 - 1:]
        core = circle + c_head + ("b1",) + c_tail + ("a1",)
        images = {
            "a1": core,
            "c1": core + ("c1",),
            "b1": ("b1",) + c_tail + ("a1",) + c_head + ("b1",),
        }
    elif {a, b} == {"d", "~d"}:
        images = {"a1": ("a1", "~d") + circle, "d": ("d", "a1", "~d")}
    elif gates.gate_of(a) == gates.gate_of("c1"):
        # within gate 1: components are a_i and e with e = c1 or a_j
        a_i, e = sorted(turn.tokens(), key=token_key)  # a-labels before c1
        extension, detour = sel["exit", e], sel["detour", e]
        images = {a_i: (a_i, e) + extension, e: (a_i,) + detour + (a_i, e)}
    else:
        # within gate 2: components are ~a_i and ~e with e = c_l or a_j
        a_i, e = sorted((inverse(t) for t in turn.tokens()), key=token_key)
        extension, ret = sel["entry", e], sel["return", e]
        images = {a_i: extension + (e, a_i), e: (e, a_i) + ret + (a_i,)}
    return FactorRecord(name, GraphMap.from_updates(graph, images))


def build_mixing_factors(graph, gates, bp, sel) -> list[FactorRecord]:
    """The link maps (canonical edge order), then one record ``stamps``:
    a1 -> v_1 ... v_m a1 over the eligible gate turns' witnesses v_k, the
    product of the per-turn stamps a1 -> v_k a1."""
    records = [
        build_edge_link_map(graph, sel, e)
        for e in graph.positive_edges
        if e != "a1"
    ]
    turns = eligible_gate_turns(graph, gates, bp)
    if turns:
        stamped = tuple(t for pair in turns for t in sel["witness", pair]) + ("a1",)
        records.append(FactorRecord("stamps", GraphMap.from_updates(graph, {"a1": stamped})))
    return records


def build_turn_legalizers(graph, gates, bp, sel) -> list[FactorRecord]:
    return [
        build_turn_legalizer(graph, gates, bp, sel, turn)
        for turn in illegal_turns(graph, gates)
    ]


def realization_chains(
    graph: Graph, mixing: list[FactorRecord], legalizers: list[FactorRecord]
) -> tuple[MapChain, MapChain, MapChain]:
    """The one shape of a realization: h = H∘H, g = h∘L∘h and final = g∘h,
    H the mixing records' maps and L the legalizers', each one block.  g and
    final read h's tables, so each distinct block builds one table."""
    h = MapChain(graph, [rec.map for rec in mixing]).power(2)
    g = h.then(MapChain(graph, [rec.map for rec in legalizers])).then(h)
    return h, g, g.then(h)


def stored_chains(mixing: list[dict], legalizers: list[dict]) -> dict:
    """``map_h``, ``map_g`` and ``map_final`` as a document stores them,
    from its two lists of encoded records: the factor lists of
    ``realization_chains``, spelled by the records' own map dicts."""
    h = [r["map"] for r in mixing] * 2
    g = h + [r["map"] for r in legalizers] + h
    return {"map_h": {"factors": h}, "map_g": {"factors": g}, "map_final": {"factors": g + h}}


def build_legalizing_map(
    gates, bp: RealizationBlueprint, g: MapChain
) -> tuple[MapChain, LegalizingCertificate, list[str]]:
    """Certify the legalizing map g = h∘L∘h on a doubling ladder of C.

    Checks C = long_turn_length, 2C, 4C, ... up to ``bp.c_max`` while the
    witness is only not g-long, and returns g with the certificate at the
    first C that passes and a one-entry log.  Any other failure, or
    reaching the cap, raises ``LegalizingSearchError``.
    """
    C = bp.long_turn_length
    while True:
        cert = verify_legalizing(g, gates, C)
        if cert.ok:
            return g, cert, [f"h∘L∘h legalizing at C={C}"]
        if cert.witness_reason != "not g-long" or 2 * C > bp.c_max:
            raise LegalizingSearchError(
                f"h∘L∘h is not legalizing at C={C} (cap {bp.c_max}): {cert.to_json()}"
            )
        C *= 2


# -- the full pipeline -----------------------------------------------------------


def _is_integer(value) -> bool:
    """An integer as JSON writes one: ``true`` and ``1.0`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class RealizationResult:
    """A realization is its records: ``h``, ``g`` and ``final`` are views
    over one ``realization_chains`` call on them."""

    blueprint: RealizationBlueprint
    graph: Graph
    gates: GateStructure
    mixing_factors: list[FactorRecord]
    legalizers: list[FactorRecord]
    C: int | None = None  # the C at which g is graded as legalizing
    report: CertificationReport | None = None

    @cached_property
    def _chains(self) -> tuple[MapChain, MapChain, MapChain]:
        return realization_chains(self.graph, self.mixing_factors, self.legalizers)

    h = cached_property(lambda self: self._chains[0])
    g = cached_property(lambda self: self._chains[1])
    final = cached_property(lambda self: self._chains[2])

    def to_json(self) -> dict:
        """The document: only what ``from_json`` reads, plus the report,
        which ``certify`` recomputes and never reads back.  The blueprint is
        its rank and doubled entries, from which the decoder re-derives the
        rest.  Each factor instance is encoded once per call: a factor that
        recurs (in the records, ``map_h``, ``map_g`` and ``map_final``) is one
        shared dict within a single document, and no two calls share any
        object."""
        memo: dict = {}
        mixing = [r.to_json(memo) for r in self.mixing_factors]
        legalizers = [r.to_json(memo) for r in self.legalizers]
        data = {
            "blueprint": {"rank": self.blueprint.rank, "entries_doubled": list(self.blueprint.entries)},
            "graph": self.graph.to_json(),
            "gates": self.gates.to_json(),
            "mixing_factors": mixing,
            "legalizers": legalizers,
            **stored_chains(mixing, legalizers),
            "legalizing": {"C": self.C},
        }
        if self.report is not None:
            data["report"] = self.report.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RealizationResult":
        """Decode a document.  Its version, if any, must be 1, its rank,
        doubled entries and C integers, C in [1, c_max], its record lists
        nonempty and its stored chains the ones its records make; otherwise
        it raises ``ValueError``.  Of the ``legalizing`` block only C is
        read: ``certify`` re-derives whether g legalizes there."""
        version = data.get("version", 1)
        if not _is_integer(version) or version != 1:
            raise ValueError(f"unsupported document version {version!r}")
        bp_data = data["blueprint"]
        rank, entries = bp_data["rank"], bp_data["entries_doubled"]
        if not (isinstance(entries, list) and all(map(_is_integer, [rank, *entries]))):
            raise ValueError(
                f"blueprint rank must be an integer and entries_doubled a list of them,"
                f" got {rank!r} and {entries!r}"
            )
        bp = validate_and_classify(rank, entries)
        graph = Graph.from_json(data["graph"])
        gates = GateStructure.from_json(graph, data["gates"])
        for key in ("mixing_factors", "legalizers"):
            if not data[key]:
                raise ValueError(f"{key} is empty")
        # one decode, and one validation, per distinct factor
        memo: dict = {}
        mixing = [FactorRecord.from_json(graph, r, memo) for r in data["mixing_factors"]]
        legalizers = [FactorRecord.from_json(graph, r, memo) for r in data["legalizers"]]
        for key, chain in stored_chains(data["mixing_factors"], data["legalizers"]).items():
            if data[key]["factors"] != chain["factors"]:
                raise ValueError(f"{key} is not the chain its records make")
        C = data["legalizing"]["C"]
        if not _is_integer(C):
            raise ValueError(f"legalizing C must be an integer, got {C!r}")
        if not 1 <= C <= bp.c_max:
            raise ValueError(f"legalizing C = {C} is outside [1, {bp.c_max}]")
        return cls(bp, graph, gates, mixing, legalizers, C)


def realize(rank: int, entries: Sequence[int]) -> RealizationResult:
    """Full pipeline: blueprint, graph, selectors, records, certified g, h∘g.

    The result carries the report of ``certify.grade_realization``, given
    the verdict of the legalizing ladder; a faulty record grades below
    the full tier, with a note naming it.
    """
    bp = validate_and_classify(rank, entries)
    graph, gates = build_graph(bp)
    sel = select_paths(graph, gates, bp)
    mixing = build_mixing_factors(graph, gates, bp, sel)
    legalizers = build_turn_legalizers(graph, gates, bp, sel)
    result = RealizationResult(bp, graph, gates, mixing, legalizers)
    _, cert, _ = build_legalizing_map(gates, bp, result.g)
    result.C = cert.branch_length
    result.report = grade_realization(result, cert.ok)
    return result
