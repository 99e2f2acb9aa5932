"""The realization pipeline.

Validates an index list, builds the gated circle-with-loops graph whose
gate counts realize it, selects the legal carrier/witness/split paths,
assembles the positively-mixing map h and the turn legalizers g_t,
searches for a certified legalizing composition g, and returns h∘g with
its certificate bundle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    GateStructure,
    Graph,
    Path,
    canonical_index_list,
    format_index_list,
    inverse,
    inverse_word,
    is_legal_path,
    token_key,
    validate_graph,
)
from .maps import GraphMap, MapChain, is_positive_pattern
from .marking import Pi1Marking, build_marking
from .traintrack import (
    LegalizingCertificate,
    Turn,
    check_train_track_morphism,
    fixes_all_gates,
    illegal_turns,
    verify_legalizing,
)

CASE_EVEN = "even"
CASE_ODD = "odd"
CASE_MAX_ODD = "max_odd"

ODD_LOOP_COUNT_NOTE = (
    "odd case uses s = N - r - 2 loop edges: the extra loop is accounted to the"
    " d-edge, keeping the graph rank equal to the requested rank"
)

SELECT_MAX_LEN = 128  # longest word the selector search tries
LEGALIZING_MAX_ROUNDS = 32  # most legalizers the legalizing search appends


class InvalidIndexList(ValueError):
    """Raised for index lists outside the admissible range."""


class SelectorError(RuntimeError):
    """Raised when a selected path fails its defining clause (a pipeline bug)."""


class LegalizingSearchError(RuntimeError):
    """Raised when the certified legalizing search exhausts its bounds."""


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
        """The cap on the legalizing search's C, and on a document's stored C."""
        return 64 * self.long_turn_length

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "entries_doubled": list(self.entries),
            "index_list": format_index_list(self.index_list),
            "case": self.case,
            "gate_counts": list(self.gate_counts),
            "r": self.r,
            "s": self.s,
            "has_d": self.has_d,
            "germ_pairing": [list(p) for p in self.germ_pairing],
            "notes": list(self.notes),
        }


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


@dataclass(frozen=True)
class PathSelectors:
    """Legal paths feeding the factor maps, all re-verified after selection.

    carrier[e] = (u, u'): u e u' is a legal loop at v1 crossing e once.
    turn_loops[(ga, gb)]: legal loop at v1 crossing that gate turn.
    outgoing[e] = (alpha, beta) for e in gate 1; incoming[e] = (alpha', beta')
    for e with reversed edge in gate 2 (even and odd cases only).
    """

    carrier: dict[str, tuple[tuple[str, ...], tuple[str, ...]]]
    turn_loops: dict[tuple[int, int], tuple[str, ...]]
    outgoing: dict[str, tuple[tuple[str, ...], tuple[str, ...]]]
    incoming: dict[str, tuple[tuple[str, ...], tuple[str, ...]]]

    def to_json(self) -> dict:
        return {
            "carrier": {e: [list(u), list(up)] for e, (u, up) in self.carrier.items()},
            "turn_loops": {
                f"{a},{b}": list(w) for (a, b), w in self.turn_loops.items()
            },
            "outgoing": {e: [list(a), list(b)] for e, (a, b) in self.outgoing.items()},
            "incoming": {e: [list(a), list(b)] for e, (a, b) in self.incoming.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "PathSelectors":
        return cls(
            carrier={e: (tuple(u), tuple(up)) for e, (u, up) in data["carrier"].items()},
            turn_loops={
                tuple(int(x) for x in key.split(",")): tuple(w)
                for key, w in data["turn_loops"].items()
            },
            outgoing={e: (tuple(a), tuple(b)) for e, (a, b) in data["outgoing"].items()},
            incoming={e: (tuple(a), tuple(b)) for e, (a, b) in data["incoming"].items()},
        )

    def words(self) -> dict[tuple[str, object], tuple[str, ...]]:
        """Every selected path by (clause kind, key); a carrier as its whole loop."""
        out: dict[tuple[str, object], tuple[str, ...]] = {
            ("carrier", e): u + (e,) + up for e, (u, up) in self.carrier.items()
        }
        out.update((("witness", pair), w) for pair, w in self.turn_loops.items())
        for e, (alpha, beta) in self.outgoing.items():
            out["exit", e], out["detour", e] = alpha, beta
        for e, (alpha, beta) in self.incoming.items():
            out["entry", e], out["return", e] = alpha, beta
        return out

    @classmethod
    def from_words(cls, words: dict[tuple[str, object], tuple[str, ...]]) -> "PathSelectors":
        """The inverse of ``words``: a carrier loop is cut at its edge."""

        def of(kind: str) -> dict:
            return {key: w for (k, key), w in words.items() if k == kind}

        detour, ret = of("detour"), of("return")
        return cls(
            carrier={e: (w[: w.index(e)], w[w.index(e) + 1:]) for e, w in of("carrier").items()},
            turn_loops=of("witness"),
            outgoing={e: (w, detour[e]) for e, w in of("exit").items()},
            incoming={e: (w, ret[e]) for e, w in of("entry").items()},
        )


@dataclass(frozen=True)
class Clause:
    """One row of the selector table: the defining clause of one selected path.

    A word w satisfies the clause when ``lead + w + trail`` is a legal path
    from v1 whose first token passes ``start`` and whose last token passes
    ``end`` (by default any token does), when w itself avoids ``banned``,
    and when w crosses the edge ``once`` exactly once or the gate turn
    ``turn`` at least once, if either is set.  Only a clause with a lead or
    a trail token can be met by the empty word.
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
    rows = [
        Clause("carrier", e, anchor | {inverse(e)}, starts_in(gate1), ends_outside(gate1), once=e)
        for e in graph.positive_edges
        if e != "a1"
    ]
    rows += [
        Clause("witness", pair, anchor, starts_in(gate1), ends_outside(gate1), turn=frozenset(pair))
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
    """How ``word`` fails ``clause``; empty when it satisfies it."""
    word = tuple(word)
    edges = clause.lead + word + clause.trail
    if not word and not (clause.lead or clause.trail):
        return ["empty"]
    unknown = set(edges) - set(graph.directed_edges)
    if unknown:
        return [f"unknown edges {sorted(unknown)}"]
    path = Path(graph.vertices[0], edges)
    checks = [
        (graph.path_is_valid(path), "not a path from v1"),
        (is_legal_path(path, gates), "illegal"),
        (clause.start(edges[0]), f"starts with {edges[0]}, outside its start gate"),
        (clause.end(edges[-1]), f"ends with {edges[-1]}, outside its end condition"),
        (not set(word) & clause.banned, "crosses a banned edge"),
    ]
    state, prev = clause.initial, None
    for t in word:
        state, prev = clause.cross(gates, state, prev, t), t
        if state is None:
            break
    if clause.once is not None:
        checks.append((state is not None, f"crosses {clause.once} more than once"))
        checks.append((state is not False, f"does not cross {clause.once}"))
    if clause.turn is not None:
        checks.append((state, "does not cross its turn"))
    return [message for ok, message in checks if not ok]


def _select(graph: Graph, gates: GateStructure, clause: Clause):
    """The shortest word satisfying ``clause``, lexicographically least.

    A breadth-first search over legal extensions that avoid the banned
    set.  The goal depends only on the last token and the crossing state,
    so pruning visited (token, state) pairs keeps the shortest solutions.
    """
    if not clause_violations(graph, gates, clause, ()):
        return ()

    def done(last: str, state) -> bool:
        if clause.trail:
            if clause.trail[0] not in gates.legal_continuations(last):
                return False
            last = clause.trail[-1]
        return bool(state) and clause.end(last)

    if clause.lead:
        firsts = gates.legal_continuations(clause.lead[-1])
    else:
        firsts = [t for t in graph.edges_at(graph.vertices[0]) if clause.start(t)]
    queue = deque()
    seen = set()
    for t in firsts:
        state = clause.cross(gates, clause.initial, None, t)
        if t not in clause.banned and (t, state) not in seen:
            seen.add((t, state))
            queue.append(((t,), state))
    while queue:
        word, state = queue.popleft()
        last = word[-1]
        if done(last, state):
            return word
        if len(word) >= SELECT_MAX_LEN:
            continue
        for nxt in gates.legal_continuations(last):
            if nxt in clause.banned:
                continue
            state2 = clause.cross(gates, state, last, nxt)
            key = (nxt, state2)
            if state2 is not None and key not in seen:
                seen.add(key)
                queue.append((word + (nxt,), state2))
    raise SelectorError(f"no path satisfies {clause.name}")


def select_paths(graph: Graph, gates: GateStructure, bp: RealizationBlueprint) -> PathSelectors:
    """Every path of the clause table, searched for and then re-verified."""
    rows = selector_clauses(graph, gates, bp)
    selectors = PathSelectors.from_words({(c.kind, c.key): _select(graph, gates, c) for c in rows})
    verify_selectors(graph, gates, bp, selectors)
    return selectors


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


def verify_selectors(graph, gates, bp, sel: PathSelectors) -> None:
    """Re-check every selection against its row of the clause table; raises on failure."""
    words = sel.words()
    problems: list[str] = []
    for clause in selector_clauses(graph, gates, bp):
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
    """One elementary factor with its explicit homotopy inverse."""

    name: str
    map: GraphMap
    inverse: GraphMap
    turn: Turn | None = None

    def to_json(self, memo: dict | None = None) -> dict:
        return {"name": self.name, "map": self.map.to_json(memo), "inverse": self.inverse.to_json(memo)}

    @classmethod
    def from_json(cls, graph: Graph, data: dict, memo: dict | None = None) -> "FactorRecord":
        return cls(
            data["name"],
            GraphMap.from_json(graph, data["map"], memo),
            GraphMap.from_json(graph, data["inverse"], memo),
        )


def build_edge_link_map(graph, sel: PathSelectors, e: str) -> FactorRecord:
    """Threads edge e and the anchor loop a1 through each other."""
    u, up = sel.carrier[e]
    fwd = GraphMap.from_updates(
        graph,
        {
            "a1": u + (e,) + up + ("a1",),
            e: (e,) + up + ("a1",) + u + (e,),
        },
    )
    back = GraphMap.from_updates(
        graph,
        {
            "a1": inverse_word(up) + (inverse(e),) + inverse_word(u) + ("a1", "a1"),
            e: inverse_word(u) + ("~a1",) + u + (e,),
        },
    )
    return FactorRecord(f"link[{e}]", fwd, back)


def build_turn_stamp_map(graph, sel: PathSelectors, pair: tuple[int, int]) -> FactorRecord:
    """Stamps one gate turn into the anchor loop's image."""
    v = sel.turn_loops[pair]
    fwd = GraphMap.from_updates(graph, {"a1": v + ("a1",)})
    back = GraphMap.from_updates(graph, {"a1": inverse_word(v) + ("a1",)})
    return FactorRecord(f"stamp[{pair[0]},{pair[1]}]", fwd, back)


def build_turn_legalizer(
    graph, gates, bp: RealizationBlueprint, sel: PathSelectors, turn: Turn
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
        fwd = GraphMap.from_updates(
            graph,
            {
                "a1": core,
                "c1": core + ("c1",),
                "b1": ("b1",) + c_tail + ("a1",) + c_head + ("b1",),
            },
        )
        back = GraphMap.from_updates(
            graph,
            {
                "a1": inverse_word(c_tail)
                + ("~b1",)
                + inverse_word(c_head)
                + ("a1",)
                + inverse_word(circle)
                + ("a1", "a1")
                + inverse_word(circle)
                + ("a1", "a1"),
                "c1": ("~a1", "c1"),
                "b1": inverse_word(c_head)
                + ("~a1",)
                + circle
                + ("~a1",)
                + c_head
                + ("b1",),
            },
        )
        return FactorRecord(name, fwd, back, turn)
    if {a, b} == {"d", "~d"}:
        fwd = GraphMap.from_updates(
            graph,
            {"a1": ("a1", "~d") + circle, "d": ("d", "a1", "~d")},
        )
        back = GraphMap.from_updates(
            graph,
            {
                "a1": ("a1",) + inverse_word(circle) + ("d",) + circle + ("~a1",),
                "d": ("d",) + circle + ("~a1",),
            },
        )
        return FactorRecord(name, fwd, back, turn)
    gate1 = gates.gate_of("c1")
    if gates.gate_of(a) == gate1:
        # within gate 1: components are a_i and e with e = c1 or a_j
        a_i, e = sorted(turn.tokens(), key=token_key)  # a-labels before c1
        extension, detour = sel.outgoing[e]
        fwd = GraphMap.from_updates(
            graph,
            {a_i: (a_i, e) + extension, e: (a_i,) + detour + (a_i, e)},
        )
        back = GraphMap.from_updates(
            graph,
            {
                a_i: (e,) + extension + (inverse(a_i),) + inverse_word(detour),
                e: detour
                + (a_i,)
                + inverse_word(extension)
                + (inverse(e), a_i)
                + inverse_word(extension),
            },
        )
        return FactorRecord(name, fwd, back, turn)
    # within gate 2: components are ~a_i and ~e with e = c_l or a_j
    a_i, e = sorted((inverse(t) for t in turn.tokens()), key=token_key)
    extension, ret = sel.incoming[e]
    fwd = GraphMap.from_updates(
        graph,
        {a_i: extension + (e, a_i), e: (e, a_i) + ret + (a_i,)},
    )
    back = GraphMap.from_updates(
        graph,
        {
            a_i: inverse_word(ret) + (inverse(a_i),) + extension + (e,),
            e: inverse_word(extension)
            + (a_i, inverse(e))
            + inverse_word(extension)
            + (a_i,)
            + ret,
        },
    )
    return FactorRecord(name, fwd, back, turn)


def build_mixing_factors(graph, gates, bp, sel) -> list[FactorRecord]:
    """The link maps (canonical edge order) followed by the turn stamps."""
    records = [
        build_edge_link_map(graph, sel, e)
        for e in graph.positive_edges
        if e != "a1"
    ]
    records.extend(
        build_turn_stamp_map(graph, sel, pair)
        for pair in eligible_gate_turns(graph, gates, bp)
    )
    return records


def build_mixing_map(graph, factors: list[FactorRecord]) -> MapChain:
    """h = h'∘h' where h' composes all link and stamp factors."""
    half = [rec.map for rec in factors]
    return MapChain(graph, half + half)


def build_turn_legalizers(graph, gates, bp, sel) -> list[FactorRecord]:
    return [
        build_turn_legalizer(graph, gates, bp, sel, turn)
        for turn in illegal_turns(graph, gates)
    ]


def build_legalizing_map(
    graph,
    gates,
    bp: RealizationBlueprint,
    h: MapChain,
    legalizers: list[FactorRecord],
) -> tuple[MapChain, LegalizingCertificate, list[str]]:
    """Certified legalizing composition of h and the turn legalizers.

    Starts from h ∘ (all legalizers) ∘ h, ladders the checked branch
    length upward while witnesses are merely not-g-long, and prepends the
    matching legalizer whenever a witness family has an illegal image
    turn, for C up to ``bp.c_max`` and ``LEGALIZING_MAX_ROUNDS`` rounds.
    Existence of some legalizing composition is guaranteed, so an
    exhausted search signals a bug rather than a hard instance.
    """
    by_turn = {frozenset(rec.turn.tokens()): rec for rec in legalizers if rec.turn}
    factors = list(h.factors) + [rec.map for rec in legalizers] + list(h.factors)
    log: list[str] = []
    for round_no in range(LEGALIZING_MAX_ROUNDS + 1):
        chain = MapChain(graph, factors)
        C = bp.long_turn_length
        while C <= bp.c_max:
            cert = verify_legalizing(chain, gates, C)
            if cert.ok:
                log.append(f"round {round_no}: legalizing at C={C}")
                return chain, cert, log
            if cert.witness_reason == "not g-long":
                C *= 2
                continue
            break
        if cert.witness_image_turn is None:
            raise LegalizingSearchError(
                "legalizing search stuck on a not-g-long witness: "
                f"{cert.to_json()} after rounds {log!r}"
            )
        key = frozenset(cert.witness_image_turn)
        rec = by_turn.get(key)
        if rec is None:
            raise LegalizingSearchError(
                f"no legalizer available for witness turn {cert.witness_image_turn!r}"
            )
        factors.append(rec.map)
        log.append(
            f"round {round_no}: witness {cert.witness_image_turn} at C={cert.branch_length};"
            f" appended {rec.name}"
        )
    raise LegalizingSearchError(f"legalizing search exceeded {LEGALIZING_MAX_ROUNDS} rounds: {log!r}")


# -- the full pipeline -----------------------------------------------------------


@dataclass
class RealizationResult:
    blueprint: RealizationBlueprint
    graph: Graph
    gates: GateStructure
    selectors: PathSelectors
    mixing_factors: list[FactorRecord]
    legalizers: list[FactorRecord]
    h: MapChain
    g: MapChain
    final: MapChain
    legalizing_cert: LegalizingCertificate
    marking: Pi1Marking
    search_log: list[str]
    report: "object | None" = None

    def to_json(self) -> dict:
        """The document.  Each factor instance is encoded once per call: a
        factor that recurs (in the records, ``h``, ``g`` and ``final``) is
        one shared dict within a single document, and no two calls share
        any object."""
        memo: dict = {}
        data = {
            "blueprint": self.blueprint.to_json(),
            "graph": self.graph.to_json(),
            "gates": self.gates.to_json(),
            "selectors": self.selectors.to_json(),
            "mixing_factors": [r.to_json(memo) for r in self.mixing_factors],
            "legalizers": [r.to_json(memo) for r in self.legalizers],
            "map_h": self.h.to_json(memo),
            "map_g": self.g.to_json(memo),
            "map_final": self.final.to_json(memo),
            "legalizing": self.legalizing_cert.to_json(),
            "search_log": list(self.search_log),
            "marking": {
                "basepoint": self.marking.basepoint,
                "tree": sorted(self.marking.tree_edges),
                "basis": dict(self.marking.basis),
            },
        }
        if self.report is not None:
            data["report"] = self.report.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RealizationResult":
        bp_data = data["blueprint"]
        bp = validate_and_classify(bp_data["rank"], bp_data["entries_doubled"])
        graph = Graph.from_json(data["graph"])
        gates = GateStructure.from_json(graph, data["gates"])
        selectors = PathSelectors.from_json(data["selectors"])
        # one decode, and one validation, per distinct factor
        memo: dict = {}
        mixing = [FactorRecord.from_json(graph, r, memo) for r in data["mixing_factors"]]
        legalizers = [FactorRecord.from_json(graph, r, memo) for r in data["legalizers"]]
        h = MapChain.from_json(graph, data["map_h"], memo)
        g = MapChain.from_json(graph, data["map_g"], memo)
        final = MapChain.from_json(graph, data["map_final"], memo)
        cert_data = data["legalizing"]
        if not isinstance(cert_data["C"], int):
            raise TypeError(f"legalizing C must be an integer, got {cert_data['C']!r}")
        if cert_data["C"] > bp.c_max:
            raise ValueError(f"legalizing C = {cert_data['C']} exceeds its cap {bp.c_max}")
        cert = LegalizingCertificate(
            branch_length=cert_data["C"],
            checked=cert_data["checked"],
            families=cert_data["families"],
            verdict=cert_data["verdict"],
        )
        marking = build_marking(graph)
        return cls(
            blueprint=bp,
            graph=graph,
            gates=gates,
            selectors=selectors,
            mixing_factors=mixing,
            legalizers=legalizers,
            h=h,
            g=g,
            final=final,
            legalizing_cert=cert,
            marking=marking,
            search_log=list(data.get("search_log", [])),
        )


def realize(rank: int, entries: Sequence[int]) -> RealizationResult:
    """Full pipeline: blueprint, graph, selectors, h, certified g, h∘g.

    The returned result carries the certification report produced by the
    certify module, including the realized index list.
    """
    bp = validate_and_classify(rank, entries)
    graph, gates = build_graph(bp)
    sel = select_paths(graph, gates, bp)
    mixing = build_mixing_factors(graph, gates, bp, sel)
    legalizers = build_turn_legalizers(graph, gates, bp, sel)
    for rec in mixing + legalizers:
        diag = check_train_track_morphism(rec.map, gates)
        if not diag.ok:
            raise SelectorError(f"factor {rec.name} is not a train track morphism: {diag}")
        if not rec.map.fixes_all_vertices() or not fixes_all_gates(rec.map, gates):
            raise SelectorError(f"factor {rec.name} moves a vertex or a gate")
    h = build_mixing_map(graph, mixing)
    if not is_positive_pattern(h.sign_pattern):
        raise SelectorError("mixing map transition matrix is not positive")
    if any(h.image_length(e) < 2 for e in graph.positive_edges):
        raise SelectorError("mixing map fails the length-2 expansion requirement")
    g, cert, log = build_legalizing_map(graph, gates, bp, h, legalizers)
    final = MapChain(graph, g.factors + h.factors)
    marking = build_marking(graph)
    result = RealizationResult(
        blueprint=bp,
        graph=graph,
        gates=gates,
        selectors=sel,
        mixing_factors=mixing,
        legalizers=legalizers,
        h=h,
        g=g,
        final=final,
        legalizing_cert=cert,
        marking=marking,
        search_log=log,
    )
    from . import certify as _certify

    # build_legalizing_map has just verified g at C, and every factor of
    # final is one of the records checked above: neither is checked again
    result.report = _certify._grade(result, cert.ok, True)
    return result
