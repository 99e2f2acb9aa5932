"""Graphs with oriented edge pairs, edge paths, and gate structures.

Directed edges are string tokens: a positive edge carries a plain label
such as ``"c1"``, and its reversal is ``"~c1"``.  The involution is the
token pairing itself, so there is no separate table that could drift.
All values in this module are immutable after construction.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Raised for structurally invalid graphs, gates or paths."""


_LABEL_RE = re.compile(r"^([A-Za-z]+)(\d*)$")


def inverse(token: str) -> str:
    """Reversal of a directed edge token: ``c1 <-> ~c1``."""
    return token[1:] if token.startswith("~") else "~" + token


def inverse_word(word: Sequence[str]) -> tuple[str, ...]:
    """The tokens of the reversed path: inverses in reverse order."""
    return tuple(inverse(t) for t in reversed(word))


def is_positive(token: str) -> bool:
    return not token.startswith("~")


def positive_label(token: str) -> str:
    """The positive edge label underlying a directed edge token."""
    return token[1:] if token.startswith("~") else token


def token_key(token: str):
    """Natural sort key: ``c2`` before ``c10``, positives before reversals."""
    label = positive_label(token)
    m = _LABEL_RE.match(label)
    if m is None:
        return (1, label, 0, not is_positive(token))
    prefix, digits = m.groups()
    return (0, prefix, int(digits) if digits else -1, not is_positive(token))


@dataclass(frozen=True)
class Path:
    """A finite edge path; an empty path still remembers its start vertex."""

    start: str
    edges: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[str]:
        return iter(self.edges)

    @property
    def is_empty(self) -> bool:
        return not self.edges


class Graph:
    """A finite connected-or-not graph with fixed-point-free edge involution.

    ``positive_edges`` holds one token per edge pair; the reversed tokens
    are implied.  Vertex and edge orders are preserved from construction,
    which keeps every derived enumeration deterministic.  ``inits``,
    ``terms`` and ``inverses`` map every directed edge to its initial
    vertex, its terminal vertex and its reversal.
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("duplicate vertex ids")
        vertex_set = set(self.vertices)
        init: dict[str, str] = {}
        labels: list[str] = []
        for label, frm, to in edges:
            if label.startswith("~") or not _LABEL_RE.match(label):
                raise GraphError(f"bad edge label {label!r}")
            if label in init:
                raise GraphError(f"duplicate edge label {label!r}")
            if frm not in vertex_set or to not in vertex_set:
                raise GraphError(f"edge {label!r} touches unknown vertex")
            init[label] = frm
            init[inverse(label)] = to
            labels.append(label)
        self.positive_edges: tuple[str, ...] = tuple(labels)
        self.directed_edges: tuple[str, ...] = tuple(labels) + tuple(
            inverse(e) for e in labels
        )
        self.inits: dict[str, str] = init
        self.inverses: dict[str, str] = {t: inverse(t) for t in self.directed_edges}
        self.terms: dict[str, str] = {t: init[self.inverses[t]] for t in self.directed_edges}
        at: dict[str, list[str]] = {v: [] for v in self.vertices}
        for token in self.directed_edges:
            at[init[token]].append(token)
        self._edges_at = {v: tuple(sorted(at[v], key=token_key)) for v in self.vertices}

    def init_of(self, token: str) -> str:
        return self.inits[token]

    def term_of(self, token: str) -> str:
        return self.terms[token]

    def edges_at(self, vertex: str) -> tuple[str, ...]:
        """Directed edges leaving ``vertex``, in token order."""
        return self._edges_at[vertex]

    def valence(self, vertex: str) -> int:
        return len(self._edges_at[vertex])

    @property
    def rank(self) -> int:
        return len(self.positive_edges) - len(self.vertices) + 1

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for token in self._edges_at[v]:
                w = self.term_of(token)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(self.vertices)

    # -- paths ---------------------------------------------------------

    def path_is_valid(self, path: Path) -> bool:
        if path.start not in self._edges_at:
            return False
        at = path.start
        for token in path.edges:
            if self.inits.get(token) != at:
                return False
            at = self.terms[token]
        return True

    def path(self, start: str, edges: Iterable[str] = ()) -> Path:
        p = Path(start, tuple(edges))
        if not self.path_is_valid(p):
            raise GraphError(f"invalid path {p.edges!r} from {start!r}")
        return p

    def path_end(self, path: Path) -> str:
        return self.term_of(path.edges[-1]) if path.edges else path.start

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"label": e, "from": self.init_of(e), "to": self.term_of(e)}
                for e in self.positive_edges
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Graph":
        return cls(
            data["vertices"],
            [(e["label"], e["from"], e["to"]) for e in data["edges"]],
        )

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.positive_edges)} edges, rank {self.rank})"


def tighten(path: Path) -> Path:
    """The reduced path homotopic to ``path`` relative to its endpoints.

    Cancels adjacent ``e ~e`` pairs until none remain; the start vertex is
    preserved (full cancellation leaves the empty path at ``path.start``).
    """
    return Path(path.start, tighten_word(path.edges))


def tighten_word(edges: Sequence[str]) -> tuple[str, ...]:
    """Free reduction of a token word without endpoint bookkeeping."""
    stack: list[str] = []
    for token in edges:
        if stack and stack[-1] == inverse(token):
            stack.pop()
        else:
            stack.append(token)
    return tuple(stack)


class GateStructure:
    """A partition of the directed edges into gates sharing initial vertices.

    Gate ids are dense integers in a canonical order (base vertex first,
    then smallest member token), so structures built from the same data
    compare equal and serialize identically.
    """

    def __init__(self, graph: Graph, gates: Iterable[Iterable[str]]):
        self.graph = graph
        cleaned: list[tuple[str, ...]] = []
        seen: dict[str, int] = {}
        for gate in gates:
            members = tuple(sorted(set(gate), key=token_key))
            if not members:
                raise GraphError("empty gate")
            base = graph.init_of(members[0])
            for token in members:
                if token in seen:
                    raise GraphError(f"edge {token!r} in two gates")
                if graph.init_of(token) != base:
                    raise GraphError(f"gate {members!r} mixes initial vertices")
                seen[token] = 1
            cleaned.append(members)
        missing = [t for t in graph.directed_edges if t not in seen]
        if missing:
            raise GraphError(f"edges not covered by gates: {missing!r}")
        order = {v: k for k, v in enumerate(graph.vertices)}
        cleaned.sort(key=lambda g: (order[graph.init_of(g[0])], token_key(g[0])))
        self.gates: tuple[tuple[str, ...], ...] = tuple(cleaned)
        self._gate_of: dict[str, int] = {}
        for gid, members in enumerate(self.gates):
            for token in members:
                self._gate_of[token] = gid
        at: dict[str, list[int]] = {v: [] for v in graph.vertices}
        for gid, members in enumerate(self.gates):
            at[graph.init_of(members[0])].append(gid)
        self._gates_at = {v: tuple(ids) for v, ids in at.items()}
        gate_of = self._gate_of
        self._continuations = {
            token: tuple(
                t for t in graph.edges_at(graph.terms[token])
                if gate_of[t] != gate_of[graph.inverses[token]]
            )
            for token in graph.directed_edges
        }

    @classmethod
    def singletons(cls, graph: Graph) -> "GateStructure":
        return cls(graph, [[t] for t in graph.directed_edges])

    def gate_of(self, token: str) -> int:
        return self._gate_of[token]

    def gate_tokens(self, gid: int) -> tuple[str, ...]:
        return self.gates[gid]

    def gates_at(self, vertex: str) -> tuple[int, ...]:
        return self._gates_at[vertex]

    def gate_count(self, vertex: str) -> int:
        return len(self._gates_at[vertex])

    def is_legal_turn(self, e: str, e2: str) -> bool:
        return self._gate_of[e] != self._gate_of[e2]

    def legal_continuations(self, token: str) -> tuple[str, ...]:
        """Directed edges that legally extend a path ending with ``token``,
        in token order; one table, built with the structure."""
        return self._continuations[token]

    def __eq__(self, other) -> bool:
        return isinstance(other, GateStructure) and self.gates == other.gates

    def __hash__(self) -> int:
        return hash(self.gates)

    def to_json(self) -> dict:
        return {"gates": [list(g) for g in self.gates]}

    @classmethod
    def from_json(cls, graph: Graph, data: dict) -> "GateStructure":
        return cls(graph, data["gates"])

    def __repr__(self) -> str:
        return f"GateStructure({len(self.gates)} gates)"


def is_legal_path(path: Path, gates: GateStructure) -> bool:
    """True iff every crossed turn lands in two distinct gates.

    Empty and single-edge paths are legal by convention.
    """
    return is_legal_word(path.edges, gates)


def is_legal_word(edges: Sequence[str], gates: GateStructure) -> bool:
    """``is_legal_path`` for a bare token word."""
    inverses, gate_of = gates.graph.inverses, gates._gate_of
    return all(
        gate_of[inverses[x]] != gate_of[y] for x, y in zip(edges, edges[1:])
    )


def crossed_turns(path: Path) -> Iterator[tuple[str, str]]:
    """The (unordered, reported as ordered pairs) turns a path crosses."""
    edges = path.edges
    for k in range(len(edges) - 1):
        yield (inverse(edges[k]), edges[k + 1])


@dataclass(frozen=True)
class GraphDiagnostics:
    connected: bool
    valence_violations: tuple[tuple[str, int], ...]
    rank: int

    @property
    def ok(self) -> bool:
        return self.connected and not self.valence_violations


def validate_graph(graph: Graph) -> GraphDiagnostics:
    """Connectivity, valence >= 3 at every vertex, and the rank.

    A loop contributes two germs to its base vertex, so a single-loop rose
    is flagged as a valence-2 vertex.  The token pairing makes involution
    defects unrepresentable, so there is nothing to check for them.
    """
    violations = tuple(
        (v, graph.valence(v)) for v in graph.vertices if graph.valence(v) <= 2
    )
    return GraphDiagnostics(
        connected=graph.is_connected(),
        valence_violations=violations,
        rank=graph.rank,
    )


# -- index lists ---------------------------------------------------------
#
# An index list is stored as a tuple of doubled entries (2*j_k), so all
# arithmetic stays integral; rendering turns 1 into "1/2" and 2 into "1".


def canonical_index_list(doubled: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(doubled, reverse=True))


def format_index_entry(doubled: int) -> str:
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"


def format_index_list(doubled: Iterable[int]) -> str:
    return "[" + ", ".join(format_index_entry(d) for d in doubled) + "]"


def parse_index_entry(text: str) -> int:
    text = text.strip()
    m = re.fullmatch(r"(\d+)\s*/\s*2", text)
    if m:
        return int(m.group(1))
    if re.fullmatch(r"\d+", text):
        return 2 * int(text)
    raise ValueError(f"bad index entry {text!r}: expected 'k' or 'k/2'")


def parse_index_list(text: str) -> tuple[int, ...]:
    """Parse ``"1/2,1,1/2"`` into doubled entries ``(1, 2, 1)`` (input order
    kept).  An empty entry is an error that names its 1-based position."""
    if not text.strip():
        raise ValueError("empty index list")
    parts = text.split(",")
    for position, part in enumerate(parts, start=1):
        if not part.strip():
            raise ValueError(f"empty index entry at position {position} of {text!r}")
    return tuple(parse_index_entry(part) for part in parts)
