"""Random positive compositions on a rose, with index-list statistics.

Samples compositions of positive elementary substitutions (x -> xy or
x -> yx on distinct positive petals).  Positive words never cancel, so
every sample is a classical train track map for free and is graded
through its intrinsic gate structure, by the grader ``certify`` keeps
for ``stable_index_list``.  Inverse letters are deliberately excluded:
general elementary substitutions do not stay train track, and folding
them back into shape is out of scope here.  The resulting
frequencies are therefore a qualitative analogue of two-sided samplers,
not a reproduction of their percentages.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .core import Graph, format_index_list
from .maps import GraphMap, MapChain, is_primitive
from .traintrack import NONE_FOUND, whitehead_graphs
from .certify import _intrinsic_grade, within_index_bound

CATEGORY_CONDITIONAL = "conditional_iwip"
# clean by every bounded test, but with an index sum no iwip has: the
# vertex-only search cannot see the Nielsen paths that would decide it
CATEGORY_UNRESOLVED = "unresolved"
CATEGORY_INP = "inp_present"
CATEGORY_NON_EXPANDING = "non_expanding"
CATEGORY_OTHER = "other"

# Comparison row measured with a two-sided elementary sampler (inverses
# allowed in the substitutions): rank 3, 26 factors, 100 samples gave 100%
# fully irreducible with [1/2] topping the table at 64%.  The positive-only
# sampler here is expected to differ quantitatively.
REFERENCE_ROW = {"rank": 3, "length": 26, "iwip_pct": 100, "top_list": "[1/2]", "top_pct": 64}


def rose_graph(rank: int) -> Graph:
    if rank < 2:
        raise ValueError("rose needs rank at least 2")
    return Graph(["v1"], [(f"x{i}", "v1", "v1") for i in range(1, rank + 1)])


def elementary_map(graph: Graph, target: int, other: int, append: bool) -> GraphMap:
    """x_target -> x_target x_other (append) or x_other x_target."""
    a, b = f"x{target}", f"x{other}"
    word = (a, b) if append else (b, a)
    return GraphMap.from_updates(graph, {a: word})


def sample_positive_automorphism(rank: int, length: int, seed: int) -> MapChain:
    """Deterministic composition of ``length`` random positive elementary maps.

    Each distinct elementary map is built once per call, so a chain holds
    at most 2·rank·(rank−1) factor instances.
    """
    graph = rose_graph(rank)
    rng = random.Random(seed)
    built: dict[tuple[int, int, bool], GraphMap] = {}
    factors = []
    for _ in range(length):
        target = rng.randrange(1, rank + 1)
        other = rng.randrange(1, rank)
        if other >= target:
            other += 1
        append = rng.random() < 0.5
        key = (target, other, append)
        if key not in built:
            built[key] = elementary_map(graph, *key)
        factors.append(built[key])
    return MapChain(graph, factors)


@dataclass
class SampleGrade:
    category: str
    index_list: tuple[int, ...] | None
    primitive: bool
    whitehead_connected: bool
    inp_verdict: str | None


def grade_sample(chain: MapChain) -> SampleGrade:
    """Grade the sampled chain itself; no composed image is materialized."""
    # train track for free: positive images never cancel
    gates, index_list, power, inp = _intrinsic_grade(chain)
    if power is None:
        return SampleGrade(CATEGORY_NON_EXPANDING, None, False, False, None)
    primitive, _ = is_primitive(chain.sign_pattern)
    wh = whitehead_graphs(chain, gates)["v1"].is_connected()
    if inp.verdict != NONE_FOUND:
        category = CATEGORY_INP
    elif not (primitive and wh):
        category = CATEGORY_OTHER
    elif within_index_bound(chain.graph, index_list):
        category = CATEGORY_CONDITIONAL
    else:
        category = CATEGORY_UNRESOLVED
    return SampleGrade(category, index_list, primitive, wh, inp.verdict)


@dataclass
class FrequencyTable:
    rank: int
    length: int
    samples: int
    seed: int
    categories: dict[str, int] = field(default_factory=dict)
    list_counts: dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def canonical_json(self) -> dict:
        """The determinism-relevant payload (wall time excluded)."""
        return {
            "rank": self.rank,
            "length": self.length,
            "samples": self.samples,
            "seed": self.seed,
            "categories": {k: self.categories[k] for k in sorted(self.categories)},
            "list_counts": {
                k: self.list_counts[k]
                for k in sorted(
                    self.list_counts, key=lambda k: (-self.list_counts[k], k)
                )
            },
        }

    def to_json(self) -> dict:
        data = {"table": self.canonical_json(), "elapsed_seconds": self.elapsed_seconds}
        data["reference_row"] = REFERENCE_ROW
        data["note"] = (
            "positive-only sampler; two-sided reference percentages are for"
            " qualitative comparison only"
        )
        return data

    def text_table(self) -> str:
        lines = [
            f"rank {self.rank}  factors {self.length}  samples {self.samples}  seed {self.seed}",
            f"elapsed {self.elapsed_seconds:.1f}s",
            "category counts:",
        ]
        for k in sorted(self.categories):
            lines.append(f"  {k:<16} {self.categories[k]:>5}")
        if CATEGORY_UNRESOLVED in self.categories:
            lines.append(
                f"  ({CATEGORY_UNRESOLVED}: index sum outside [1, 2N-2]; the vertex-only"
                " search cannot see the Nielsen paths that would decide these samples)"
            )
        lines.append("index lists among conditional-iwip samples:")
        for k, v in sorted(self.list_counts.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {k:<20} {v:>5}")
        lines.append(
            "reference (two-sided sampler, qualitative only): "
            f"rank {REFERENCE_ROW['rank']}, {REFERENCE_ROW['length']} factors -> "
            f"{REFERENCE_ROW['iwip_pct']}% iwip, top list {REFERENCE_ROW['top_list']}"
            f" at {REFERENCE_ROW['top_pct']}%"
        )
        return "\n".join(lines)


def run_experiment(rank: int, length: int, samples: int, seed: int) -> FrequencyTable:
    """Grade ``samples`` random positive compositions; deterministic in ``seed``.

    Per-sample seeds derive from the master seed and the sample index, so
    any evaluation order produces the same table.
    """
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    start = time.monotonic()
    table = FrequencyTable(rank=rank, length=length, samples=samples, seed=seed)
    for i in range(samples):
        chain = sample_positive_automorphism(rank, length, seed * 1_000_003 + i)
        grade = grade_sample(chain)
        table.categories[grade.category] = table.categories.get(grade.category, 0) + 1
        if grade.category == CATEGORY_CONDITIONAL and grade.index_list is not None:
            key = format_index_list(grade.index_list)
            table.list_counts[key] = table.list_counts.get(key, 0) + 1
    table.elapsed_seconds = time.monotonic() - start
    return table
