"""Fundamental-group markings: spanning tree, basis loops, induced endomorphisms.

The marking identifies pi_1 of a graph with the free group on abstract
generators ``x1..xN`` via a spanning tree; a graph self-map fixing the
basepoint then induces an endomorphism, read off by collapsing the tree.
It reads one factor's images.  No production code calls it: ``certify``
and ``realize`` check invertibility with ``maps.is_homotopy_equivalence``.
It stays in the package because ``bench/tracing.py`` patches
``build_marking`` and ``pi1_automorphism``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, Path, inverse, inverse_word, tighten, tighten_word, token_key
from .maps import GraphMap


class MarkingError(ValueError):
    """Raised for malformed markings or basepoint violations."""


@dataclass(frozen=True)
class Pi1Marking:
    graph: Graph
    basepoint: str
    tree_edges: frozenset[str]
    basis: dict[str, str]  # non-tree positive edge -> generator token "x1".."xN"


def build_marking(graph: Graph) -> Pi1Marking:
    """Deterministic marking: breadth-first tree from the first vertex,
    which is the basepoint.

    Tree edges are chosen preferring ``c``-labelled edges in index order,
    so the circle subdivision graphs built in this package always get the
    tree ``c1..c_(l-1)``.  Basis letters follow the positive edge order.
    """
    basepoint = graph.vertices[0]
    preference = sorted(
        graph.positive_edges,
        key=lambda e: (0 if e.startswith("c") else 1, token_key(e)),
    )
    visited = {basepoint}
    tree: list[str] = []
    grew = True
    while grew and len(visited) < len(graph.vertices):
        grew = False
        for e in preference:
            a, b = graph.init_of(e), graph.term_of(e)
            if (a in visited) != (b in visited):
                tree.append(e)
                visited.update((a, b))
                grew = True
                break
    if len(visited) != len(graph.vertices):
        raise MarkingError("graph is not connected; no spanning tree")
    basis = {}
    n = 0
    for e in graph.positive_edges:
        if e not in tree:
            n += 1
            basis[e] = f"x{n}"
    return Pi1Marking(graph, basepoint, frozenset(tree), basis)


def _tree_paths(marking: Pi1Marking) -> dict[str, tuple[str, ...]]:
    """Edge path from the basepoint to each vertex inside the tree."""
    graph = marking.graph
    paths: dict[str, tuple[str, ...]] = {marking.basepoint: ()}
    frontier = [marking.basepoint]
    while frontier:
        nxt: list[str] = []
        for v in frontier:
            for e in sorted(marking.tree_edges, key=token_key):
                for token in (e, inverse(e)):
                    if graph.init_of(token) == v:
                        w = graph.term_of(token)
                        if w not in paths:
                            paths[w] = paths[v] + (token,)
                            nxt.append(w)
        frontier = nxt
    return paths


def basis_loop(marking: Pi1Marking, edge: str) -> Path:
    """The based loop representing the generator attached to ``edge``."""
    if edge not in marking.basis:
        raise MarkingError(f"{edge!r} is not a basis edge")
    tp = _tree_paths(marking)
    graph = marking.graph
    up = tp[graph.init_of(edge)]
    down = tp[graph.term_of(edge)]
    edges = up + (edge,) + inverse_word(down)
    return Path(marking.basepoint, edges)


def path_to_word(marking: Pi1Marking, path: Path) -> tuple[str, ...]:
    """Read a based loop as a reduced word in the marking's generators."""
    word: list[str] = []
    for token in tighten(path).edges:
        label = token if not token.startswith("~") else token[1:]
        gen = marking.basis.get(label)
        if gen is not None:
            word.append(gen if not token.startswith("~") else inverse(gen))
    return tighten_word(word)


def pi1_automorphism(f: GraphMap, marking: Pi1Marking) -> dict[str, tuple[str, ...]]:
    """The endomorphism induced on pi_1 by a basepoint-fixing map.

    Returns generator token -> reduced word of generator tokens, read off
    the images of the basis loops, spelled out letter by letter.
    """
    base = marking.basepoint
    if f.vertex_image[base] != base:
        raise MarkingError("map does not fix the basepoint")
    out: dict[str, tuple[str, ...]] = {}
    for e in marking.graph.positive_edges:
        if e not in marking.basis:
            continue
        loop = basis_loop(marking, e).edges
        image = Path(base, tuple(x for t in loop for x in f.image_edges(t)))
        out[marking.basis[e]] = path_to_word(marking, image)
    return out

