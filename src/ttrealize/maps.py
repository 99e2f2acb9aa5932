"""Graph self-maps: validated factors, factored compositions, sign patterns.

The package asks only sign questions of transition matrices (positivity,
primitivity), and integer bitsets answer them without exact entries.

A ``GraphMap`` is one factor: edge images and a vertex map, validated on
construction, with the token tables that the chain tables, the sign
algebra and the fold read.  It answers no queries.  A ``MapChain``
answers every query about a map, a single map being a one-factor chain.
It represents a composition of factors by its factor list only:
compositions built in this package routinely have edge images with
billions of letters, so a chain never materializes them.  Instead the
list is a sequence of passes over blocks of factors, and one table per
block holds the expansion tree restricted to the factors that move each
token.  ``power`` and ``then`` build chains whose passes repeat blocks,
so h = H H, g = h L h and h∘g read two tables; each pass caches what
depends on the passes after it (exact big-integer lengths among them),
and chains that end alike share those passes.  Windows, directions,
image comparisons and crossed turns read the tables through the passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .core import Graph, is_positive


class MapError(ValueError):
    """Raised for maps violating the graph-map contract."""


class GraphMap:
    """One factor: vertices to vertices, edges to nonempty edge paths.

    The image of a reversed edge is the reversed image of the edge, by
    construction.  Construction checks the images in one pass through the
    graph's token tables.  Instances are immutable after creation.  Queries
    go through a chain: ``MapChain(graph, [f])`` for a single map.
    """

    def __init__(
        self,
        graph: Graph,
        edge_images: dict[str, Sequence[str]],
        vertex_image: dict[str, str] | None = None,
    ):
        self.graph = graph
        inits, terms, inverses = graph.inits, graph.terms, graph.inverses
        images: dict[str, tuple[str, ...]] = {}
        touched: list[str] = []
        # per moved positive edge: the vertex its image starts at, whether
        # its letters join up into a path, and the vertex it ends at; an
        # identity image is a path from the edge's own ends
        spans: dict[str, tuple[str, bool, str]] = {}
        for label in graph.positive_edges:
            if label not in edge_images:
                raise MapError(f"missing image for edge {label!r}")
            word = tuple(edge_images[label])
            if len(word) == 1 and word[0] == label:
                images[label] = word
                images[inverses[label]] = (inverses[label],)
                continue
            if not word:
                raise MapError(f"contracted edge {label!r}")
            try:
                back = tuple([inverses[t] for t in reversed(word)])
            except KeyError as exc:
                raise MapError(f"image of {label!r} crosses unknown edge {exc.args[0]!r}") from None
            start = at = inits[word[0]]
            joined = True
            for t in word:
                if inits[t] != at:
                    joined = False
                    break
                at = terms[t]
            spans[label] = (start, joined, terms[word[-1]])
            images[label] = word
            images[inverses[label]] = back
            touched += (label, inverses[label])
        if len(edge_images) != len(graph.positive_edges):
            # every positive edge has its image, so some key is not one
            extra = next(k for k in edge_images if k not in images or not is_positive(k))
            raise MapError(f"image for {extra!r}, not a positive edge of the graph")
        derived = vertex_image is None
        if derived:
            # only the ends of moved edges can be sent elsewhere; there every
            # edge, moved or not, must agree, in edge order
            ends = {v for label in spans for v in (inits[label], terms[label])}
            vertex_image = {}
            for label in graph.positive_edges:
                v, w = inits[label], terms[label]
                start, _, end = spans.get(label, (v, True, w))
                if v in ends and vertex_image.setdefault(v, start) != start:
                    raise MapError(f"incoherent images at vertex {v!r}")
                if w in ends and vertex_image.setdefault(w, end) != end:
                    raise MapError(f"incoherent images at vertex {w!r}")
            for v in graph.vertices:
                vertex_image.setdefault(v, v)
        self.vertex_image: dict[str, str] = dict(vertex_image)
        for w in self.vertex_image.values():
            if w not in graph.vertices:
                raise MapError(f"vertex image {w!r} not a vertex")
        # a derived vertex map agrees with every identity image by construction
        for label in spans if derived else graph.positive_edges:
            start, joined, end = spans.get(label) or (inits[label], True, terms[label])
            if not joined or start != self.vertex_image[inits[label]]:
                raise MapError(f"image of {label!r} is not a path")
            if end != self.vertex_image[terms[label]]:
                raise MapError(f"image of {label!r} ends at the wrong vertex")
        self._images = images
        self.touched_tokens = frozenset(touched)

    @cached_property
    def sign_columns(self) -> tuple[int, dict[int, int]]:
        """(mask, columns): the moved columns of the sign pattern, as bitsets.

        Bit i stands for ``graph.positive_edges[i]``; ``columns[1 << j]``
        holds the edges that the image of a moved edge j crosses, and
        ``mask`` the moved edges.  Every other column is the identity's.
        """
        bit, inverses = {}, self.graph.inverses
        for i, e in enumerate(self.graph.positive_edges):
            bit[e] = bit[inverses[e]] = 1 << i
        columns = {
            bit[e]: sum({bit[t] for t in self._images[e]})
            for e in self.graph.positive_edges
            if e in self.touched_tokens
        }
        return (sum(columns), columns)

    def image_edges(self, token: str) -> tuple[str, ...]:
        return self._images[token]

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_updates(cls, graph: Graph, updates: dict[str, Sequence[str]]) -> "GraphMap":
        """Map sending every edge outside ``updates`` identically to itself."""
        images = {e: (e,) for e in graph.positive_edges}
        for label, word in updates.items():
            if not is_positive(label):
                raise MapError("updates must be keyed by positive edges")
            images[label] = tuple(word)
        return cls(graph, images)

    # -- serialization -----------------------------------------------------

    def to_json(self, memo: dict | None = None) -> dict:
        """Encode the map; with ``memo``, keyed by instance, each instance is
        encoded once and its later uses share that dict."""
        if memo is None:
            return {"images": {e: list(self._images[e]) for e in self.graph.positive_edges}}
        if id(self) not in memo:
            memo[id(self)] = self.to_json()
        return memo[id(self)]

    @classmethod
    def from_json(cls, graph: Graph, data: dict, memo: dict | None = None) -> "GraphMap":
        """Decode a map; with ``memo``, equal image dicts (same edges in the
        same order, same images) decode to one instance."""
        images = data["images"]
        if not isinstance(images, dict):
            raise MapError(f"images must map edges to words, got {type(images).__name__}")
        key = (tuple(images), tuple(map(tuple, images.values())))
        memo = {} if memo is None else memo
        if key not in memo:
            memo[key] = cls(graph, dict(zip(*key)))
        return memo[key]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GraphMap)
            and self.vertex_image == other.vertex_image
            and self._images == other._images
        )

    def __hash__(self):
        return hash(tuple(sorted(self._images.items())))

    def __repr__(self) -> str:
        longest = max(len(w) for w in self._images.values())
        return f"GraphMap({len(self.graph.positive_edges)} edges, longest image {longest})"


def is_homotopy_equivalence(f: GraphMap) -> bool:
    """Whether ``f`` fixes every vertex and is onto on pi_1, which makes it
    a homotopy equivalence, free groups being Hopfian.

    One Stallings fold: each moved edge's image is walked from the edge's
    initial vertex through the graph without the moved edges, read from
    its token tables, with a fresh vertex only where the walk leaves them,
    and closed at the edge's terminal vertex; a union-find merges the ends
    of equal edges at one vertex.  The folded graph immerses in the graph,
    so ``f`` is onto exactly when no fresh vertex survives and every moved
    edge is present, once by construction.
    """
    if any(w != v for v, w in f.vertex_image.items()):
        return False
    inits, terms, inverses, moved = f.graph.inits, f.graph.terms, f.graph.inverses, f.touched_tokens
    vertices, parent, out, merges, fresh = set(f.graph.vertices), {}, {}, [], []

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    def target(x, t):  # the end of the edge t at the root x, if any
        return terms[t] if x in vertices and t not in moved else out.get(x, {}).get(t)

    def add(x, t, y):  # the edge t from the root x to y, folded there
        z = target(x, t)
        if z is None:
            out.setdefault(x, {})[t] = y
        elif find(z) != find(y):
            merges.append((z, y))

    for e in f.graph.positive_edges:
        if e not in moved:
            continue
        word, x = f.image_edges(e), inits[e]
        for t in word[:-1]:
            x = find(x)
            y = target(x, t)
            if y is None:
                y = object()  # equal to no vertex of any graph
                fresh.append(y)
                out.setdefault(x, {})[t] = y
                out[y] = {inverses[t]: x}
            x = y
        x, t = find(x), word[-1]
        add(x, t, terms[e])
        add(terms[e], inverses[t], x)
        while merges:
            a, b = map(find, merges.pop())
            if a != b:
                # a is fresh: graph vertices, each over itself, never meet
                a, b = (b, a) if a in vertices else (a, b)
                parent[a] = b
                for t, z in out.pop(a, {}).items():
                    add(b, t, z)
    return (all(find(x) in vertices for x in fresh)
            and all(target(inits[t], t) is not None for t in moved))


# -- transition matrices ---------------------------------------------------


@dataclass(frozen=True)
class TransitionMatrix:
    """Non-negative integer matrix of orientation-blind crossing counts.

    ``rows[i][j]`` counts crossings of edge ``labels[i]`` (or its reverse)
    in the image of edge ``labels[j]``.  Entries are exact Python ints.
    Nothing in the package multiplies two: ``bench/tracing.py`` patches
    the product as its ``maps.matmul`` probe, and the tests' exact
    references build and multiply these matrices.
    """

    labels: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def __matmul__(self, other: "TransitionMatrix") -> "TransitionMatrix":
        if self.labels != other.labels:
            raise MapError("matrix label mismatch")
        cols = list(zip(*other.rows))
        rows = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows
        )
        return TransitionMatrix(self.labels, rows)


def is_positive_pattern(columns: Sequence[int]) -> bool:
    """Every entry of a sign pattern (column bitsets) is set."""
    full = (1 << len(columns)) - 1
    return all(col == full for col in columns)


def is_primitive(m: Sequence[int]) -> tuple[bool, int | None]:
    """Least t with M^t entrywise positive, over the boolean semiring.

    ``m`` is a sign pattern as column bitsets (``MapChain.sign_pattern``).
    The Wielandt bound (n-1)^2 + 1 makes the search complete: a primitive
    n x n matrix always has a positive power within it.
    """
    n = len(m)
    if n == 0:
        return (False, None)
    bound = (n - 1) ** 2 + 1
    current = m
    for t in range(1, bound + 1):
        if t > 1:
            current = _bool_mul(current, m)
        if is_positive_pattern(current):
            return (True, t)
    return (False, None)


def _bool_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Entry j is the union of b[i] over the bits i of a[j]."""
    out = []
    for bits in a:
        row = 0
        while bits:
            low = bits & -bits
            row |= b[low.bit_length() - 1]
            bits ^= low
        out.append(row)
    return out


# -- factored compositions ---------------------------------------------------


# subtrees of at most this many letters are spelled out once per pass
_SPELLED = 64
_FIRST_ROOTS = 4  # word letters a cursor maps to table roots before it reads on
MATERIALIZE_BUDGET = 2_000_000  # letters MapChain.materialize spells in all
COMPARISON_STEP_BUDGET = 20_000_000  # cursor steps of one image comparison


class _ChainTable:
    """The expansion tree of one pass through one block of factors.

    Node ids below ``len(tokens)`` are boundaries: the token ``tokens[n]``
    leaving the block's last factor.  Every higher id stands for a token
    at a level j whose factor moves it; ``kids[n]`` holds, for each letter
    y of f_j(token), the node of y at the next level that moves y, else
    y's boundary.  Levels that leave a token alone are never visited.
    ``root[n]`` is the node of ``tokens[n]`` at the first level that moves
    it, and ``root_of`` maps each token to that node.  What depends only
    on the block is cached here (first and last letters, sign pattern,
    vertex map, crossed seams); what depends on the passes after it lives
    on ``_Pass``.
    """

    def __init__(self, graph: Graph, factors: tuple[GraphMap, ...]):
        self.graph = graph
        self.factors = factors
        self.depth = len(factors)
        self.kids: list[tuple[int, ...]] | None = None
        self._crossed: dict[frozenset[int], tuple[set, frozenset[int]]] = {}

    def build(self) -> None:
        if self.kids is not None:
            return
        self.tokens = tuple(self.graph.directed_edges)
        self.index = index = {t: n for n, t in enumerate(self.tokens)}
        self.level = [self.depth] * len(self.tokens)
        self.kids = [()] * len(self.tokens)
        nearest = list(range(len(self.tokens)))
        for j in range(self.depth - 1, -1, -1):
            f = self.factors[j]
            moved = [
                (index[t], tuple(nearest[index[y]] for y in f.image_edges(t)))
                for t in f.touched_tokens
            ]
            for n, kids in moved:
                nearest[n] = len(self.kids)
                self.kids.append(kids)
                self.level.append(j)
        self.root = nearest
        self.root_of = dict(zip(self.tokens, nearest))

    @cached_property
    def vertex_image(self) -> dict[str, str]:
        vmap = {v: v for v in self.graph.vertices}
        for f in self.factors:
            vmap = {v: f.vertex_image[w] for v, w in vmap.items()}
        return vmap

    @cached_property
    def sign_pattern(self) -> tuple[int, ...]:
        """One pass's sign pattern, composed factor by factor: a factor
        rewrites only the columns that cross an edge it moves, dropping
        those edges and taking in their images."""
        columns = [1 << j for j in range(len(self.graph.positive_edges))]
        for f in self.factors:
            mask, moved = f.sign_columns
            for j, col in enumerate(columns):
                hit = col & mask
                if hit:
                    col &= ~mask
                    while hit:
                        low = hit & -hit
                        col |= moved[low]
                        hit ^= low
                    columns[j] = col
        return tuple(columns)

    @cached_property
    def ends(self) -> tuple[list[int], list[int]]:
        """(first, last): the token ids of the first and last letters of one
        pass's image below each node, in one bottom-up pass."""
        self.build()
        first = list(range(len(self.tokens)))
        last = first[:]
        for ks in self.kids[len(first):]:
            first.append(first[ks[0]])
            last.append(last[ks[-1]])
        return first, last

    def crossed(self, entering: frozenset[int]) -> tuple[set, frozenset[int]]:
        """(seams, leaving) for one pass whose input crosses the token ids
        ``entering``: the pairs (x, y) of consecutive output letters that
        meet at a seam between two children of a node the input reaches,
        read as the last letter below the one and the first below the
        next, and the output tokens reached.  Memoized by ``entering``."""
        if entering not in self._crossed:
            first, last = self.ends
            kids = self.kids
            reached = [False] * len(kids)
            for t in entering:
                reached[self.root[t]] = True
            seams = set()
            for n in range(len(kids) - 1, len(self.tokens) - 1, -1):
                if reached[n]:
                    ks = kids[n]
                    for a, b in zip(ks, ks[1:]):
                        seams.add((last[a], first[b]))
                    for k in ks:
                        reached[k] = True
            leaving = frozenset(t for t in range(len(self.tokens)) if reached[t])
            self._crossed[entering] = (seams, leaving)
        return self._crossed[entering]


class _Pass:
    """One pass through a block table, followed by the passes ``next``.

    A chain is a list of passes; what depends on the passes after one is
    kept on it, so chains that end alike share it, as ``then`` reuses its
    argument's passes and ``power`` each lower power's.  ``height`` is the
    number of levels from this pass's first down to the actual letters,
    so ``height - table.level[n]`` levels are left below node n.  Made
    with the pass: the composite's ``vertex_image`` and ``sign_pattern``,
    and per token id the ids of the ``first`` and ``last`` letters of its
    image.  Per node n of the table, filled in by ``measure`` and
    ``spell`` once the next pass has been: ``lengths[n]`` is the image
    length below n, ``rows[n]`` the image below n spelled out when it has
    at most ``_SPELLED`` letters, else None.
    """

    __slots__ = ("table", "next", "height", "vertex_image", "sign_pattern",
                 "first", "last", "lengths", "rows")

    def __init__(self, table: _ChainTable, rest: "_Pass | None"):
        first, last = table.ends
        self.table, self.next = table, rest
        self.first = [first[n] for n in table.root]
        self.last = [last[n] for n in table.root]
        if rest is None:
            self.height = table.depth
            self.vertex_image, self.sign_pattern = table.vertex_image, table.sign_pattern
        else:
            self.height = table.depth + rest.height
            self.vertex_image = {v: rest.vertex_image[w] for v, w in table.vertex_image.items()}
            self.sign_pattern = tuple(_bool_mul(table.sign_pattern, rest.sign_pattern))
            self.first = [rest.first[t] for t in self.first]
            self.last = [rest.last[t] for t in self.last]
        self.lengths = self.rows = None

    def measure(self) -> None:
        table, rest = self.table, self.next
        vec = [1] * len(table.tokens) if rest is None else [rest.lengths[n] for n in rest.table.root]
        for kids in table.kids[len(vec):]:
            total = 0
            for k in kids:
                total += vec[k]
            vec.append(total)
        self.lengths = vec

    def spell(self) -> None:
        table, rest, vec = self.table, self.next, self.lengths
        row = [[t] for t in table.tokens] if rest is None else [rest.rows[n] for n in rest.table.root]
        for n in range(len(row), len(table.kids)):
            small = vec[n] <= _SPELLED
            row.append([x for k in table.kids[n] for x in row[k]] if small else None)
        self.rows = row


class MapChain:
    """A composition of factors, stored as a list of passes over blocks.

    The only map type that answers queries; a single map is a one-factor
    chain.  ``factors`` is the whole factor list, ``factors[0]`` applied first.
    It is cut into blocks (``blocks``), each with one ``_ChainTable``: a
    chain made by ``MapChain(graph, factors)`` is one block, and ``power``
    and ``then`` make chains whose blocks repeat, so a chain such as
    h∘L∘h reads two tables, not one table of five blocks.  Edge images
    are never materialized: exact lengths, letter windows and directions
    read the tables through the chain's passes (``_Pass``), whose descent
    skips every level that leaves a token alone.
    """

    def __init__(self, graph: Graph, factors: Sequence[GraphMap]):
        if not factors:
            raise MapError("empty chain")
        for f in factors:
            if f.graph is not graph:
                raise MapError("chain factors must share one graph instance")
        self._join(graph, (_ChainTable(graph, tuple(factors)),), None)

    def _join(self, graph: Graph, blocks: tuple[_ChainTable, ...], rest: "MapChain | None") -> None:
        """Set up as ``blocks`` followed by ``rest``, whose passes it reuses."""
        self.graph = graph
        self.blocks = blocks + (() if rest is None else rest.blocks)
        passes = [] if rest is None else list(rest._passes)
        for table in reversed(blocks):
            passes.insert(0, _Pass(table, passes[0] if passes else None))
        self._passes = tuple(passes)
        self._suffix_lengths: list[list[int]] | None = None
        self._rows_ready = False
        self._powers: dict[int, MapChain] = {}

    @cached_property
    def factors(self) -> tuple[GraphMap, ...]:
        return tuple(f for table in self.blocks for f in table.factors)

    @property
    def vertex_image(self) -> dict[str, str]:
        return self._passes[0].vertex_image

    @property
    def sign_pattern(self) -> tuple[int, ...]:
        """The sign pattern of the transition matrix as column bitsets, never
        forming exact entries: bit i of entry j is set when the image of
        ``graph.positive_edges[j]`` crosses edge i."""
        return self._passes[0].sign_pattern

    def then(self, other: "MapChain") -> "MapChain":
        """This chain followed by ``other`` (``other`` applied last), sharing
        both chains' tables and ``other``'s passes."""
        if other.graph is not self.graph:
            raise MapError("chain factors must share one graph instance")
        chain = MapChain.__new__(MapChain)
        chain._join(self.graph, self.blocks, other)
        return chain

    def power(self, p: int) -> "MapChain":
        """The chain run ``p`` times over: each power is this chain followed
        by the power below, kept, so all powers share their passes."""
        if p < 1:
            raise ValueError(f"chain power must be at least 1, got {p}")
        lower = self
        for q in range(2, p + 1):
            if q not in self._powers:
                self._powers[q] = self.then(lower)
            lower = self._powers[q]
        return lower

    @cached_property
    def crossed_turns(self) -> frozenset[tuple[str, str]]:
        """The turns (inverse of a letter, next letter) crossed by the
        composite's positive edge images, exactly those of the spelled-out
        images: each pass's seams, read through the passes after it."""
        passes = self._passes
        table = passes[0].table
        entering = frozenset(table.index[e] for e in self.graph.positive_edges)
        seams = set()
        for p, later in zip(passes, passes[1:] + (None,)):
            local, entering = p.table.crossed(entering)
            if later is None:
                seams |= local
            else:
                seams.update((later.last[x], later.first[y]) for x, y in local)
        tokens, inverses = table.tokens, self.graph.inverses
        return frozenset((inverses[tokens[x]], tokens[y]) for x, y in seams)

    def fixes_all_vertices(self) -> bool:
        return all(self.vertex_image[v] == v for v in self.graph.vertices)

    # -- the tables ----------------------------------------------------------

    def _lengths(self) -> list[list[int]]:
        """The passes' length vectors, first pass first, built from the last."""
        if self._suffix_lengths is None:
            for p in reversed(self._passes):
                if p.lengths is None:
                    p.measure()
            self._suffix_lengths = [p.lengths for p in self._passes]
        return self._suffix_lengths

    def _spelled(self) -> None:
        """Spell out the passes' small subtrees, once, from the last pass."""
        if not self._rows_ready:
            self._lengths()
            for p in reversed(self._passes):
                if p.rows is None:
                    p.spell()
            self._rows_ready = True

    def direction(self, token: str) -> str:
        """The first letter of the image, read off the first pass."""
        head = self._passes[0]
        return head.table.tokens[head.first[head.table.index[token]]]

    def image_length(self, token: str) -> int:
        return self._lengths()[0][self._passes[0].table.root_of[token]]

    def image_window(self, token: str, start: int, count: int) -> list[str]:
        """Letters [start, start+count) of the image of ``token``."""
        return word_image_window(self, (token,), start, count)

    def materialize(self) -> "MapChain":
        """The same map as a one-factor chain over its spelled-out images."""
        total = sum(self.image_length(e) for e in self.graph.positive_edges)
        if total > MATERIALIZE_BUDGET:
            raise MapError(
                f"chain images total {total} letters, over the budget {MATERIALIZE_BUDGET}"
            )
        images = {
            e: tuple(self.image_window(e, 0, self.image_length(e)))
            for e in self.graph.positive_edges
        }
        return MapChain(self.graph, [GraphMap(self.graph, images, dict(self.vertex_image))])

    def __repr__(self) -> str:
        return f"MapChain({len(self.factors)} factors)"


class ComparisonBudgetError(RuntimeError):
    """Raised when an image comparison outruns its step budget."""


class ImageCursor:
    """Depth-first position in the expansion tree of a chain image.

    The current node is (``height``, ``node``): ``height`` counts the
    levels left below it, a table node sits at the next level of its pass
    that moves its token, a boundary at the end of its pass, and
    boundaries at height 0 are the actual letters.  A cursor always sits
    at the start of its current node's subtree, so two cursors on the same
    chain whose nodes and heights are equal face identical subtrees.
    ``node`` is None once the cursor has passed the whole word.  ``stack``
    holds one frame [pass, children, index] per open node, the top frame's
    child at index being the current node.  The bottom frame holds the
    roots of the word's letters, mapped a few at a time by ``more`` as the
    cursor reaches them.  ``advance`` and ``descend`` are the single-cursor
    moves that windows use: they ``seek``, then ``spell``.  Comparisons run
    both cursors through ``_diverge``, which makes the same moves inline
    and hands the cursors back in this form.
    """

    __slots__ = ("chain", "word", "mapped", "stack", "pos", "height", "node")

    def __init__(self, chain: MapChain, word: Sequence[str]):
        chain._lengths()
        head = chain._passes[0]
        self.chain, self.word, self.mapped = chain, word, _FIRST_ROOTS
        roots = list(map(head.table.root_of.__getitem__, word[:_FIRST_ROOTS]))
        self.stack: list[list] = [[head, roots, 0]] if roots else []
        self.pos = 0
        self.node: int | None = roots[0] if roots else None
        self.height = head.height - head.table.level[roots[0]] if roots else 0

    def more(self) -> list[int]:
        """The roots of the word's next letters, twice as many as last time,
        so a comparison that diverges early maps only the first few."""
        start = self.mapped
        self.mapped = end = max(_FIRST_ROOTS, 2 * start)
        root_of = self.chain._passes[0].table.root_of
        return list(map(root_of.__getitem__, self.word[start:end]))

    def advance(self) -> None:
        """Move past the current node's whole subtree."""
        frame = self.stack[-1]
        self.pos += frame[0].lengths[self.node]
        while True:
            frame[2] += 1
            if frame[2] < len(frame[1]):
                self.node = n = frame[1][frame[2]]
                self.height = frame[0].height - frame[0].table.level[n]
                return
            if len(self.stack) == 1:
                roots = self.more()
                if roots:
                    frame[1], frame[2] = roots, -1
                    continue
            self.stack.pop()
            if not self.stack:
                self.node = None
                return
            frame = self.stack[-1]

    def descend(self) -> None:
        """Replace the current node by its children, or a boundary by its
        root in the next pass."""
        p, n = self.stack[-1][0], self.node
        if n < len(p.table.tokens):
            p = p.next
            frame = [p, (p.table.root[n],), 0]
        else:
            frame = [p, p.table.kids[n], 0]
        self.stack.append(frame)
        self.node = n = frame[1][0]
        self.height = p.height - p.table.level[n]

    def seek(self, start: int) -> None:
        """Move to letter ``start``: skip each subtree that ends at or before
        it, descend into the one that holds it."""
        while self.node is not None and self.pos < start:
            if self.pos + self.stack[-1][0].lengths[self.node] <= start:
                self.advance()
            else:
                self.descend()

    def spell(self, count: int) -> list[str]:
        """The next ``count`` letters, or as many as the word has left: a
        subtree spelled out in its pass is copied whole, or the prefix still
        wanted, and any other node is descended into.  The cursor stops at
        the first node it did not read whole, or past the word."""
        self.chain._spelled()
        out: list[str] = []
        while self.node is not None and len(out) < count:
            row = self.stack[-1][0].rows[self.node]
            if row is None:
                self.descend()
            elif len(row) <= count - len(out):
                out += row
                self.advance()
            else:
                out += row[:count - len(out)]
                break
        return out


def _diverge(chain: MapChain, word_a: Sequence[str], word_b: Sequence[str],
             heads: dict | None = None, count: int = 0):
    """Run one cursor down each image to their first divergence; returns
    both cursors and ``compare_image_words``'s outcome.  On a divergence
    the cursors sit on the two letters that differ, unless a lookup in
    ``heads`` answered it: the cursors are then None and the outcome is
    ``strip_windows``'s, windows included.

    ``heads`` maps the head pass of a chain to that chain's lookup (see
    ``strip_windows``).  When both cursors sit on different boundary
    tokens a and b at the bottom of a pass whose next pass has a lookup,
    every earlier letter agrees and the rest of the comparison is the
    images of a and b under that chain: a divergence at k with two full
    ``count``-letter windows is the answer at ``pos + k``.  Any other
    answer is a miss, and the cursors descend from where they stand.

    This is the lockstep kernel: ``ImageCursor.advance`` and ``descend``
    for both cursors, inlined.  Each cursor's top frame lives in locals
    (pass, children, index), with the pass's height and arrays, which are
    reloaded only when a move changes pass; its other frames live on its
    own stack.
    The cursors only ever advance together, past one node they share at
    one height, hence in one pass: so the position is shared, and only
    ``a``'s length vector is kept.  Both cursors get their state back
    before the return, so they can ``spell`` on.
    """
    a = ImageCursor(chain, word_a)
    b = ImageCursor(chain, word_b)
    boundaries = len(chain._passes[0].table.tokens)
    budget = COMPARISON_STEP_BUDGET
    stack_a, na, ha = a.stack, a.node, a.height
    stack_b, nb, hb = b.stack, b.node, b.height
    if na is not None:
        pa, ka, ia = stack_a.pop()
        va, top_a, level_a, kids_a = pa.lengths, pa.height, pa.table.level, pa.table.kids
    if nb is not None:
        pb, kb, ib = stack_b.pop()
        top_b, level_b, kids_b = pb.height, pb.table.level, pb.table.kids
    pos = steps = 0
    while True:
        steps += 1
        if steps > budget:
            raise ComparisonBudgetError(
                f"image comparison exceeded {budget} steps at position {pos}"
            )
        if na is None or nb is None:
            if na is None and nb is None:
                outcome = ("contained", "equal", pos)
            else:
                outcome = ("contained", "a" if na is None else "b", pos)
            break
        if ha == hb:
            if na == nb:
                # advance both past one shared subtree
                pos += va[na]
                ia += 1
                while ia == len(ka):
                    if not stack_a:
                        ka, ia = a.more(), 0
                        if ka:
                            continue
                        na = None
                        break
                    qa, ka, ia = stack_a.pop()
                    if qa is not pa:
                        pa = qa
                        va, top_a, level_a, kids_a = pa.lengths, pa.height, pa.table.level, pa.table.kids
                    ia += 1
                else:
                    na = ka[ia]
                    ha = top_a - level_a[na]
                ib += 1
                while ib == len(kb):
                    if not stack_b:
                        kb, ib = b.more(), 0
                        if kb:
                            continue
                        nb = None
                        break
                    qb, kb, ib = stack_b.pop()
                    if qb is not pb:
                        pb = qb
                        top_b, level_b, kids_b = pb.height, pb.table.level, pb.table.kids
                    ib += 1
                else:
                    nb = kb[ib]
                    hb = top_b - level_b[nb]
                continue
            if ha == 0:
                tokens = pa.table.tokens
                outcome = ("diverge", pos, tokens[na], tokens[nb])
                break
            look = heads and na < boundaries and nb < boundaries and heads.get(pa.next)
            if look:
                tokens = pa.table.tokens
                hit = look(tokens[na], tokens[nb])
                if hit is not None and len(hit[1]) == count == len(hit[2]):
                    return None, None, ("diverge", pos + hit[0], hit[1], hit[2])
            descend_a = descend_b = True
        else:
            descend_a = ha > hb
            descend_b = not descend_a
        if descend_a:
            stack_a.append([pa, ka, ia])
            if na < boundaries:
                pa = pa.next
                va, top_a, level_a, kids_a = pa.lengths, pa.height, pa.table.level, pa.table.kids
                ka = (pa.table.root[na],)
            else:
                ka = kids_a[na]
            ia = 0
            na = ka[0]
            ha = top_a - level_a[na]
        if descend_b:
            stack_b.append([pb, kb, ib])
            if nb < boundaries:
                pb = pb.next
                top_b, level_b, kids_b = pb.height, pb.table.level, pb.table.kids
                kb = (pb.table.root[nb],)
            else:
                kb = kids_b[nb]
            ib = 0
            nb = kb[0]
            hb = top_b - level_b[nb]
    if na is not None:
        stack_a.append([pa, ka, ia])
    if nb is not None:
        stack_b.append([pb, kb, ib])
    a.node, a.height, a.pos = na, ha, pos
    b.node, b.height, b.pos = nb, hb, pos
    return a, b, outcome


def compare_image_words(chain: MapChain, word_a: Sequence[str], word_b: Sequence[str]):
    """Locate the first divergence of two chain images.

    Returns ("diverge", pos, letter_a, letter_b) where pos is the common
    prefix length, or ("contained", side, pos) with side "a", "b" or
    "equal" when one image is an initial subpath of the other.  Images
    whose first letters differ are answered from the head pass's
    ``first`` table, with no cursors.  Equal subtrees are skipped whole,
    so structurally shared prefixes (the common case for the compositions
    built here) cost O(1) each.
    """
    if word_a and word_b:
        head = chain._passes[0]
        index, first = head.table.index, head.first
        da, db = first[index[word_a[0]]], first[index[word_b[0]]]
        if da != db:
            return ("diverge", 0, head.table.tokens[da], head.table.tokens[db])
    return _diverge(chain, word_a, word_b)[2]


def strip_windows(chain: MapChain, word_a: Sequence[str], word_b: Sequence[str], count: int,
                  lookup: dict | None = None):
    """The first divergence of two chain images and the images from there.

    Returns ("diverge", pos, window_a, window_b), each window the next
    ``count`` letters of its image from ``pos`` on, read by the cursors the
    comparison left on the letters that differ; or the containment outcome
    of ``compare_image_words``.

    ``lookup`` maps chains whose passes end ``chain`` (lower powers, as
    ``power`` shares them) to functions of two tokens a and b that return
    None or (k, window_a, window_b): the divergence of their images under
    that chain and ``count`` letters of each from there.  ``_diverge``
    asks them; without a lookup it reads every letter itself.
    """
    heads = None if lookup is None else {lower._passes[0]: look for lower, look in lookup.items()}
    a, b, outcome = _diverge(chain, word_a, word_b, heads, count)
    if outcome[0] == "contained" or a is None:
        return outcome
    return ("diverge", outcome[1], a.spell(count), b.spell(count))


def word_image_window(chain: MapChain, word: Sequence[str], start: int, count: int) -> list[str]:
    """Letters [start, start+count) of the chain image of a word."""
    cursor = ImageCursor(chain, word)
    cursor.seek(start)
    return cursor.spell(count)
