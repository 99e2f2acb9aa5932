"""Graph self-maps: materialized maps, factored compositions, transition matrices.

Exact transition matrices are the reference; production code asks only
sign questions (positivity, primitivity), which integer bitsets answer.

A ``GraphMap`` stores explicit edge images.  A ``MapChain`` represents a
composition of graph maps by its factor list only: compositions built in
this package routinely have edge images with billions of letters, so a
chain never materializes them.  Instead one table per factor list holds
the expansion tree restricted to the factors that move each token, with
exact (big integer) lengths; windows, directions, image comparisons and
crossed turns read it, and a chain's powers share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .core import Graph, Path, inverse, is_positive, positive_label


class MapError(ValueError):
    """Raised for maps violating the graph-map contract."""


class GraphMap:
    """A graph self-map: vertices to vertices, edges to nonempty edge paths.

    The image of a reversed edge is the reversed image of the edge, by
    construction.  Construction checks the images in one pass through the
    graph's token tables.  Instances are immutable after creation.
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
        # per positive edge: the vertex its image starts at, whether its
        # letters join up into a path, and the vertex it ends at
        spans: list[tuple[str, str, bool, str]] = []
        for label in graph.positive_edges:
            if label not in edge_images:
                raise MapError(f"missing image for edge {label!r}")
            word = tuple(edge_images[label])
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
            spans.append((label, start, joined, terms[word[-1]]))
            images[label] = word
            images[inverses[label]] = back
            if word != (label,):
                touched += (label, inverses[label])
        if vertex_image is None:
            vertex_image = {}
            for label, start, _, end in spans:
                for v, w in ((inits[label], start), (terms[label], end)):
                    if vertex_image.setdefault(v, w) != w:
                        raise MapError(f"incoherent images at vertex {v!r}")
            for v in graph.vertices:
                vertex_image.setdefault(v, v)
        self.vertex_image: dict[str, str] = dict(vertex_image)
        for w in self.vertex_image.values():
            if w not in graph.vertices:
                raise MapError(f"vertex image {w!r} not a vertex")
        for label, start, joined, end in spans:
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
        bit = {}
        for i, e in enumerate(self.graph.positive_edges):
            bit[e] = bit[inverse(e)] = 1 << i
        columns = {
            bit[e]: sum({bit[t] for t in self._images[e]})
            for e in self.graph.positive_edges
            if e in self.touched_tokens
        }
        return (sum(columns), columns)

    # -- basic queries ---------------------------------------------------

    def image_edges(self, token: str) -> tuple[str, ...]:
        return self._images[token]

    def image(self, token: str) -> Path:
        word = self._images[token]
        return Path(self.graph.init_of(word[0]), word)

    def image_length(self, token: str) -> int:
        return len(self._images[token])

    def direction(self, token: str) -> str:
        return self._images[token][0]

    def fixes_all_vertices(self) -> bool:
        return all(self.vertex_image[v] == v for v in self.graph.vertices)

    def apply_path(self, path: Path) -> Path:
        """Image path, concatenated without any tightening."""
        edges: list[str] = []
        for token in path.edges:
            edges.extend(self._images[token])
        return Path(self.vertex_image[path.start], tuple(edges))

    def word_image_length(self, word: Sequence[str]) -> int:
        return sum(len(self._images[t]) for t in word)

    @property
    def factors(self) -> tuple["GraphMap", ...]:
        return (self,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, graph: Graph) -> "GraphMap":
        return cls(graph, {e: (e,) for e in graph.positive_edges})

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
        """Decode a map; with ``memo``, equal image lists decode to one instance."""
        key = tuple((e, tuple(w)) for e, w in data["images"].items())
        memo = {} if memo is None else memo
        if key not in memo:
            memo[key] = cls(graph, dict(key))
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


def compose_maps(f: GraphMap, g: GraphMap) -> GraphMap:
    """The composition f∘g (g applied first), never tightened.

    Crossing counts multiply exactly only without cancellation, which is
    what keeps M(f∘g) = M(f)M(g) an identity rather than an inequality.
    """
    if f.graph is not g.graph and f.graph.to_json() != g.graph.to_json():
        raise MapError("compose_maps needs maps on the same graph")
    images = {
        e: f.apply_path(g.image(e)).edges for e in g.graph.positive_edges
    }
    vmap = {v: f.vertex_image[g.vertex_image[v]] for v in g.graph.vertices}
    return GraphMap(g.graph, images, vmap)


# -- transition matrices ---------------------------------------------------


@dataclass(frozen=True)
class TransitionMatrix:
    """Non-negative integer matrix of orientation-blind crossing counts.

    ``rows[i][j]`` counts crossings of edge ``labels[i]`` (or its reverse)
    in the image of edge ``labels[j]``.  Entries are exact Python ints.
    """

    labels: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def entry(self, crossed: str, source: str) -> int:
        i = self.labels.index(crossed)
        j = self.labels.index(source)
        return self.rows[i][j]

    def __matmul__(self, other: "TransitionMatrix") -> "TransitionMatrix":
        if self.labels != other.labels:
            raise MapError("matrix label mismatch")
        cols = list(zip(*other.rows))
        rows = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows
        )
        return TransitionMatrix(self.labels, rows)

    @classmethod
    def identity(cls, labels: Sequence[str]) -> "TransitionMatrix":
        n = len(labels)
        return cls(tuple(labels), tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        ))

    @property
    def is_positive(self) -> bool:
        return all(all(x > 0 for x in row) for row in self.rows)

    def power(self, t: int) -> "TransitionMatrix":
        result = TransitionMatrix.identity(self.labels)
        base = self
        while t:
            if t & 1:
                result = result @ base
            base = base @ base if t > 1 else base
            t >>= 1
        return result


def transition_matrix(f) -> TransitionMatrix:
    """Exact transition matrix of a map or chain: the product over its factors."""
    chain = as_chain(f)
    labels = tuple(f.graph.positive_edges)
    result = TransitionMatrix.identity(labels)
    for factor in chain.factors:
        result = _single_transition_matrix(factor, labels) @ result
    return result.power(chain.copies)


def _single_transition_matrix(f: GraphMap, labels: tuple[str, ...]) -> TransitionMatrix:
    index = {lab: i for i, lab in enumerate(labels)}
    cols = []
    for e in labels:
        col = [0] * len(labels)
        for token in f.image_edges(e):
            col[index[positive_label(token)]] += 1
        cols.append(col)
    rows = tuple(tuple(cols[j][i] for j in range(len(labels))) for i in range(len(labels)))
    return TransitionMatrix(labels, rows)


def is_positive_pattern(columns: Sequence[int]) -> bool:
    """Every entry of a sign pattern (column bitsets) is set."""
    full = (1 << len(columns)) - 1
    return all(col == full for col in columns)


def is_primitive(m: TransitionMatrix | Sequence[int]) -> tuple[bool, int | None]:
    """Least t with M^t entrywise positive, over the boolean semiring.

    ``m`` is an exact matrix, read by rows, or a sign pattern as column
    bitsets; M and its transpose have the same positive powers.  The
    Wielandt bound (n-1)^2 + 1 makes the search complete: a primitive
    n x n matrix always has a positive power within it.
    """
    if isinstance(m, TransitionMatrix):
        m = [sum(1 << j for j, x in enumerate(row) if x > 0) for row in m.rows]
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


# subtrees of at most this many letters are spelled out once per table
_SPELLED = 64


class _ChainTable:
    """The expansion tree of one pass through a factor list, with exact lengths.

    Node ids below ``len(tokens)`` are boundaries: the token ``tokens[n]``
    leaving the last factor.  Every higher id stands for a token at a level
    j whose factor moves it; ``kids[n]`` holds, for each letter y of
    f_j(token), the node of y at the next level that moves y, else y's
    boundary.  Levels that leave a token alone are never visited.
    ``root[n]`` is the node of ``tokens[n]`` at the first level that moves
    it, and ``root_of`` maps each token to that node.
    ``lengths[r][n]`` is the image length below node n with r passes of the
    factor list left to run, this one included: a power of the chain shares
    ``kids`` and adds one length vector per pass.  ``letters[r][n]`` spells
    out the image below n when it has at most ``_SPELLED`` letters, else
    None; windows copy such subtrees whole.
    """

    def __init__(self, graph: Graph, factors: Sequence[GraphMap]):
        self.graph = graph
        self.factors = factors
        self.depth = len(factors)
        self.kids: list[tuple[int, ...]] | None = None
        # index 0, no pass left, is a placeholder
        self.lengths: list[list[int]] = [[]]
        self.letters: list[list[list[str] | None]] = [[]]

    def _build(self):
        self.tokens = tuple(self.graph.directed_edges)
        index = {t: n for n, t in enumerate(self.tokens)}
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

    def grow(self, copies: int) -> list[list[int]]:
        """The length vectors, extended to ``copies`` passes."""
        if self.kids is None:
            self._build()
        while len(self.lengths) <= copies:
            r = len(self.lengths)
            vec = [1] * len(self.tokens) if r == 1 else [self.lengths[-1][n] for n in self.root]
            for kids in self.kids[len(vec):]:
                total = 0
                for k in kids:
                    total += vec[k]
                vec.append(total)
            self.lengths.append(vec)
        return self.lengths

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
        if self.kids is None:
            self._build()
        first = list(range(len(self.tokens)))
        last = first[:]
        for ks in self.kids[len(first):]:
            first.append(first[ks[0]])
            last.append(last[ks[-1]])
        return first, last

    @cached_property
    def crossed_turns(self) -> frozenset[tuple[str, str]]:
        """The turns crossed by one pass's positive edge images, as
        (inverse(x), y) for consecutive letters x, y: the seams between
        consecutive children of the nodes those images reach, read as the
        last letter below the one and the first below the next."""
        first, last = self.ends
        tokens, kids = self.tokens, self.kids
        # letters as token ids; the seams are spelled as turns at the end
        reached = [False] * len(kids)
        for e in self.graph.positive_edges:
            reached[self.root_of[e]] = True
        seams = set()
        for n in range(len(kids) - 1, len(tokens) - 1, -1):
            if reached[n]:
                ks = kids[n]
                for a, b in zip(ks, ks[1:]):
                    seams.add((last[a], first[b]))
                for k in ks:
                    reached[k] = True
        inverses = self.graph.inverses
        return frozenset((inverses[tokens[x]], tokens[y]) for x, y in seams)

    def spell(self, copies: int) -> list[list[list[str] | None]]:
        """The spelled-out small subtrees, extended to ``copies`` passes."""
        while len(self.letters) <= copies:
            r = len(self.letters)
            vec = self.lengths[r]
            row = [[t] for t in self.tokens] if r == 1 else [self.letters[-1][n] for n in self.root]
            for n in range(len(row), len(self.kids)):
                small = vec[n] <= _SPELLED
                row.append([x for k in self.kids[n] for x in row[k]] if small else None)
            self.letters.append(row)
        return self.letters


class MapChain:
    """A composition of graph maps, stored as its factor list.

    ``factors[0]`` is applied first, and the list runs ``copies`` times
    over (``power`` makes such views).  Edge images are never materialized:
    exact lengths, letter windows and directions all read one lazily built
    ``_ChainTable``, shared by the chain and its powers, whose descent
    skips every level that leaves a token alone.
    """

    copies = 1

    def __init__(self, graph: Graph, factors: Sequence[GraphMap]):
        if not factors:
            raise MapError("empty chain")
        for f in factors:
            if f.graph is not graph:
                raise MapError("chain factors must share one graph instance")
        self.graph = graph
        self.factors: tuple[GraphMap, ...] = tuple(factors)
        vmap = {v: v for v in graph.vertices}
        for f in self.factors:
            vmap = {v: f.vertex_image[w] for v, w in vmap.items()}
        self.vertex_image = vmap
        self._table = _ChainTable(graph, self.factors)
        self._suffix_lengths: list[list[int]] | None = None

    def power(self, p: int) -> "MapChain":
        """The chain run ``p`` times over, sharing this chain's table.

        The view answers image queries (lengths, windows, directions,
        comparisons) for the p-fold composite; its ``factors`` stay one pass.
        """
        if p < 1:
            raise ValueError(f"chain power must be at least 1, got {p}")
        if p == 1:
            return self
        vmap = self.vertex_image
        for _ in range(p - 1):
            vmap = {v: self.vertex_image[w] for v, w in vmap.items()}
        # no __init__: its pass over the factors would redo the vertex map above
        view = MapChain.__new__(MapChain)
        view.graph, view.factors, view._table = self.graph, self.factors, self._table
        view.copies, view.vertex_image, view._suffix_lengths = self.copies * p, vmap, None
        return view

    @cached_property
    def sign_pattern(self) -> tuple[int, ...]:
        """The sign pattern of ``transition_matrix`` as column bitsets, never
        forming exact entries: bit i of entry j is set when the image of
        ``graph.positive_edges[j]`` crosses edge i."""
        base = pattern = self._table.sign_pattern
        for _ in range(self.copies - 1):
            pattern = _bool_mul(pattern, base)
        return tuple(pattern)

    @property
    def crossed_turns(self) -> frozenset[tuple[str, str]]:
        """The turns crossed by the composite's positive edge images, exactly
        as ``core.crossed_turns`` reads them off the materialized map."""
        if self.copies > 1:
            raise MapError("crossed turns are read for one pass only")
        return self._table.crossed_turns

    def fixes_all_vertices(self) -> bool:
        return all(self.vertex_image[v] == v for v in self.graph.vertices)

    # -- the table ---------------------------------------------------------

    def _lengths(self) -> list[list[int]]:
        if self._suffix_lengths is None:
            self._suffix_lengths = self._table.grow(self.copies)
        return self._suffix_lengths

    def direction(self, token: str) -> str:
        """The first letter of the image: one pass's first-letter table,
        read once per pass."""
        table = self._table
        first = table.ends[0]
        root, n = table.root, table.root_of[token]
        for _ in range(self.copies - 1):
            n = root[first[n]]
        return table.tokens[first[n]]

    def image_length(self, token: str) -> int:
        return self._lengths()[self.copies][self._table.root_of[token]]

    def word_image_length(self, word: Sequence[str]) -> int:
        lengths = self._lengths()[self.copies]
        root_of = self._table.root_of
        return sum(map(lengths.__getitem__, map(root_of.__getitem__, word)))

    def image_window(self, token: str, start: int, count: int) -> list[str]:
        """Letters [start, start+count) of the image of ``token``."""
        return word_image_window(self, (token,), start, count)

    def materialize(self, budget: int = 2_000_000) -> GraphMap:
        total = sum(self.image_length(e) for e in self.graph.positive_edges)
        if total > budget:
            raise MapError(
                f"chain images total {total} letters, over the budget {budget}"
            )
        images = {
            e: tuple(self.image_window(e, 0, self.image_length(e)))
            for e in self.graph.positive_edges
        }
        return GraphMap(self.graph, images, dict(self.vertex_image))

    def to_json(self, memo: dict | None = None) -> dict:
        if self.copies > 1:
            raise MapError("a power of a chain is not serialized")
        return {"factors": [f.to_json(memo) for f in self.factors]}

    @classmethod
    def from_json(cls, graph: Graph, data: dict, memo: dict | None = None) -> "MapChain":
        return cls(graph, [GraphMap.from_json(graph, d, memo) for d in data["factors"]])

    def __repr__(self) -> str:
        return f"MapChain({len(self.factors)} factors)"


def as_chain(f) -> MapChain:
    if isinstance(f, MapChain):
        return f
    return MapChain(f.graph, [f])


class ComparisonBudgetError(RuntimeError):
    """Raised when an image comparison outruns its step budget."""


class ImageCursor:
    """Depth-first position in the expansion tree of a chain image.

    The current node is (``level``, ``node``): pass c of the factor list
    spans levels c*m up to c*m + m, a table node sits at the next level
    that moves its token, and a boundary sits at the end of its pass;
    boundaries at level ``depth`` = ``copies * m`` are the actual letters.
    A cursor always sits at the start of its current node's subtree, so
    two cursors on the same chain whose nodes are equal face identical
    subtrees.  ``node`` is None once the cursor has passed the whole word.
    ``stack`` holds one frame [passes left, level offset, children, index]
    per open node, the top frame's child at index being the current node.
    ``advance`` and ``descend`` are the single-cursor moves that windows
    use: they ``seek``, then ``spell``.  Comparisons run both cursors
    through ``_diverge``, which makes the same moves inline and hands the
    cursors back in this form.
    """

    __slots__ = ("table", "lengths", "copies", "depth", "stack", "pos", "level", "node")

    def __init__(self, chain: MapChain, word: Sequence[str]):
        self.lengths = chain._lengths()
        self.table = table = chain._table
        self.copies, self.depth = chain.copies, chain.copies * table.depth
        roots = tuple(map(table.root_of.__getitem__, word))
        self.stack: list[list] = [[chain.copies, 0, roots, 0]] if roots else []
        self.pos = 0
        self.node: int | None = roots[0] if roots else None
        self.level = table.level[roots[0]] if roots else 0

    def advance(self) -> None:
        """Move past the current node's whole subtree."""
        frame = self.stack[-1]
        self.pos += self.lengths[frame[0]][self.node]
        while True:
            frame[3] += 1
            if frame[3] < len(frame[2]):
                self.node = n = frame[2][frame[3]]
                self.level = frame[1] + self.table.level[n]
                return
            self.stack.pop()
            if not self.stack:
                self.node = None
                return
            frame = self.stack[-1]

    def descend(self) -> None:
        """Replace the current node by its children, or a boundary by the next pass."""
        frame = self.stack[-1]
        n, table = self.node, self.table
        if n < len(table.tokens):
            frame = [frame[0] - 1, frame[1] + table.depth, (table.root[n],), 0]
        else:
            frame = [frame[0], frame[1], table.kids[n], 0]
        self.stack.append(frame)
        self.node = n = frame[2][0]
        self.level = frame[1] + table.level[n]

    def seek(self, start: int) -> None:
        """Move to letter ``start``: skip each subtree that ends at or before
        it, descend into the one that holds it."""
        while self.node is not None and self.pos < start:
            if self.pos + self.lengths[self.stack[-1][0]][self.node] <= start:
                self.advance()
            else:
                self.descend()

    def spell(self, count: int) -> list[str]:
        """The next ``count`` letters, or as many as the word has left: a
        subtree spelled out in the table is copied whole, or the prefix still
        wanted, and any other node is descended into.  The cursor stops at
        the first node it did not read whole, or past the word."""
        letters = self.table.spell(self.copies)
        out: list[str] = []
        while self.node is not None and len(out) < count:
            row = letters[self.stack[-1][0]][self.node]
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
             step_budget: int = 20_000_000):
    """Run one cursor down each image to their first divergence; returns
    both cursors and ``compare_image_words``'s outcome.  On a divergence
    the cursors sit on the two letters that differ.

    This is the lockstep kernel: ``ImageCursor.advance`` and ``descend``
    for both cursors, inlined.  Each cursor's top frame lives in locals
    (passes left, level offset, children, index), its other frames on its
    own stack.  The cursors only ever advance together, past one node they
    share at one level, hence in one pass: so the position is shared, and
    only ``a``'s length vector is kept.  Both cursors get their state back
    before the return, so they can ``spell`` on.
    """
    a = ImageCursor(chain, word_a)
    b = ImageCursor(chain, word_b)
    table = a.table
    lengths, level_of, kids, root = a.lengths, table.level, table.kids, table.root
    boundaries, m, depth = len(table.tokens), table.depth, a.depth
    stack_a, na, la = a.stack, a.node, a.level
    stack_b, nb, lb = b.stack, b.node, b.level
    if na is not None:
        ca, oa, ka, ia = stack_a.pop()
        va = lengths[ca]
    if nb is not None:
        cb, ob, kb, ib = stack_b.pop()
    pos = steps = 0
    while True:
        steps += 1
        if steps > step_budget:
            raise ComparisonBudgetError(
                f"image comparison exceeded {step_budget} steps at position {pos}"
            )
        if na is None or nb is None:
            if na is None and nb is None:
                outcome = ("contained", "equal", pos)
            else:
                outcome = ("contained", "a" if na is None else "b", pos)
            break
        if la == lb:
            if na == nb:
                # advance both past one shared subtree
                pos += va[na]
                ia += 1
                while ia == len(ka):
                    if not stack_a:
                        na = None
                        break
                    ca, oa, ka, ia = stack_a.pop()
                    va = lengths[ca]
                    ia += 1
                else:
                    na = ka[ia]
                    la = oa + level_of[na]
                ib += 1
                while ib == len(kb):
                    if not stack_b:
                        nb = None
                        break
                    cb, ob, kb, ib = stack_b.pop()
                    ib += 1
                else:
                    nb = kb[ib]
                    lb = ob + level_of[nb]
                continue
            if la == depth:
                tokens = table.tokens
                outcome = ("diverge", pos, tokens[na], tokens[nb])
                break
            descend_a = descend_b = True
        else:
            descend_a = la < lb
            descend_b = not descend_a
        if descend_a:
            stack_a.append([ca, oa, ka, ia])
            if na < boundaries:
                ca -= 1
                va = lengths[ca]
                oa += m
                ka = (root[na],)
            else:
                ka = kids[na]
            ia = 0
            na = ka[0]
            la = oa + level_of[na]
        if descend_b:
            stack_b.append([cb, ob, kb, ib])
            if nb < boundaries:
                cb -= 1
                ob += m
                kb = (root[nb],)
            else:
                kb = kids[nb]
            ib = 0
            nb = kb[0]
            lb = ob + level_of[nb]
    if na is not None:
        stack_a.append([ca, oa, ka, ia])
    if nb is not None:
        stack_b.append([cb, ob, kb, ib])
    a.node, a.level, a.pos = na, la, pos
    b.node, b.level, b.pos = nb, lb, pos
    return a, b, outcome


def compare_image_words(chain: MapChain, word_a: Sequence[str], word_b: Sequence[str],
                        step_budget: int = 20_000_000):
    """Locate the first divergence of two chain images.

    Returns ("diverge", pos, letter_a, letter_b) where pos is the common
    prefix length, or ("contained", side, pos) with side "a", "b" or
    "equal" when one image is an initial subpath of the other.  Equal
    subtrees are skipped whole, so structurally shared prefixes (the
    common case for the compositions built here) cost O(1) each.
    """
    return _diverge(chain, word_a, word_b, step_budget)[2]


def strip_windows(chain: MapChain, word_a: Sequence[str], word_b: Sequence[str], count: int):
    """The first divergence of two chain images and the images from there.

    Returns ("diverge", pos, window_a, window_b), each window the next
    ``count`` letters of its image from ``pos`` on, read by the cursors the
    comparison left on the letters that differ; or the containment outcome
    of ``compare_image_words``.
    """
    a, b, outcome = _diverge(chain, word_a, word_b)
    if outcome[0] == "contained":
        return outcome
    return ("diverge", outcome[1], a.spell(count), b.spell(count))


def word_image_window(chain: MapChain, word: Sequence[str], start: int, count: int) -> list[str]:
    """Letters [start, start+count) of the chain image of a word."""
    cursor = ImageCursor(chain, word)
    cursor.seek(start)
    return cursor.spell(count)
