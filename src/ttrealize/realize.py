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
    Path,
    canonical_index_list,
    inverse,
    is_legal_path,
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


def select_paths(graph: Graph, gates: GateStructure, bp: RealizationBlueprint) -> SelectedPaths:
    """Every path of the clause table, searched for and then re-verified."""
    sel = {(c.kind, c.key): _select(graph, gates, c) for c in selector_clauses(graph, gates, bp)}
    verify_selectors(graph, gates, bp, sel)
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
    words = dict(sel)
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


def build_turn_stamp_map(graph, sel: SelectedPaths, pair: tuple[int, int]) -> FactorRecord:
    """Stamps one gate turn into the anchor loop's image."""
    v = sel["witness", pair]
    stamp = GraphMap.from_updates(graph, {"a1": v + ("a1",)})
    return FactorRecord(f"stamp[{pair[0]},{pair[1]}]", stamp)


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
        """Decode a document.  Its rank, doubled entries and C must be
        integers, C in [1, c_max], its record lists nonempty and its stored
        chains the ones its records make; otherwise it raises
        ``ValueError``.  Of the ``legalizing`` block only C is read:
        ``certify`` re-derives whether g legalizes there."""
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
