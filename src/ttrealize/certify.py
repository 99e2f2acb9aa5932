"""Certification of realized maps and grading of arbitrary train track maps.

A realization's ``h``, ``g`` and ``final`` are built from its records in
one shape (``realize.realization_chains``), so ``final`` is ``g``
followed by ``h`` by construction.  One function grades every
realization, ``grade_realization``; its only verdict input is whether
``g`` legalizes at the realization's C, which ``realize`` takes from its
legalizing ladder and ``certify_realization`` re-derives at the stored C.
A realization gets one of two grades.  It is ``full_theorem_62`` when
every structural hypothesis holds (positive transition matrix and
connected gate-Whitehead graphs for the mixing map, ``g`` legalizing at
C, vertices and gates fixed, every record map a homotopy equivalence
(one Stallings fold each), ``final`` a train track morphism, its graph's
rank and gate index list the blueprint's); together these guarantee a
fully irreducible automorphism whose stable index list is the requested
one, with no periodic Nielsen paths.  That absence is a conclusion of
the theorem, not a hypothesis, so no Nielsen-path search runs.  Otherwise
it is ``failed``, and each failed hypothesis is noted.  The report holds
the grade, whether ``final`` is a train track morphism, the legalizing
verdict, the realized index list and the notes.  Positivity is read from
sign patterns, never from exact matrix products.  A map with no
construction behind it is graded through its intrinsic gates by one
grader, which always runs the bounded search and which
``stable_index_list`` and the experiment's ``grade_sample`` share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (
    format_index_entry,
    inverse,
    tighten_word,
)
from .maps import MapChain, is_homotopy_equivalence, is_positive_pattern
from .traintrack import (
    NONE_FOUND,
    check_train_track_morphism,
    find_periodic_inps,
    fixes_all_gates,
    gate_direction_map,
    gate_index_list,
    intrinsic_gate_structure,
    periodic_vertices,
    verify_legalizing,
    whitehead_graphs,
)

FULL_THEOREM = "full_theorem_62"
FAILED = "failed"


@dataclass
class CertificationReport:
    train_track_ok: bool
    legalizing_ok: bool | None
    index_list: tuple[int, ...]
    level: str
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "train_track": self.train_track_ok,
            "legalizing_ok": self.legalizing_ok,
            "index_list": [format_index_entry(d) for d in self.index_list],
            "notes": list(self.notes),
        }


def certify_realization(result) -> CertificationReport:
    """Grade a decoded realization: whether ``g`` legalizes is re-derived
    at the stored C, never trusted."""
    c = result.C
    ok = c >= result.blueprint.long_turn_length and verify_legalizing(result.g, result.gates, c).ok
    return grade_realization(result, ok)


def grade_realization(result, legalizing_ok: bool) -> CertificationReport:
    """The one grading of a realization, given whether ``g`` legalizes at
    its C; everything else is derived from the records here.  ``final`` is
    checked to be a train track morphism, one factor at a time, and each
    distinct record map is folded once to check that it is a homotopy
    equivalence.  The grade is full when every hypothesis holds and failed
    otherwise; each failed hypothesis adds its note."""
    graph, gates = result.graph, result.gates
    notes: list[str] = list(result.blueprint.notes)
    h, g, final = result.h, result.g, result.final
    records = result.mixing_factors + result.legalizers
    onto = {id(rec.map): is_homotopy_equivalence(rec.map) for rec in records}
    not_equivalent = [rec.name for rec in records if not onto[id(rec.map)]]
    final_tt = check_train_track_morphism(final, gates).ok

    h_matrix_positive = is_positive_pattern(h.sign_pattern)
    h_wh_connected = _whitehead_connected(h, gates)
    g_fixes = g.fixes_all_vertices() and fixes_all_gates(g, gates)
    index_list = gate_index_list(graph, gates, sorted(periodic_vertices(final)))
    requested = index_list == result.blueprint.index_list
    ranked = graph.rank == result.blueprint.rank
    failures = [
        (h_matrix_positive, "mixing transition matrix is not positive"),
        (h_wh_connected, "mixing Whitehead graph disconnected somewhere"),
        (legalizing_ok, f"map_g is not legalizing at the stored C = {result.C}"),
        *((False, f"factor {name} is not a homotopy equivalence") for name in not_equivalent),
        (g_fixes, "legalizing factor moves a vertex or gate"),
        (requested, "the realized index list is not the blueprint's"),
        (ranked, "the graph's rank is not the blueprint's"),
        (final_tt, "composed map is not a train track morphism"),
    ]
    notes += [note for ok, note in failures if not ok]
    return CertificationReport(
        train_track_ok=final_tt,
        legalizing_ok=legalizing_ok,
        index_list=index_list,
        level=FULL_THEOREM if all(ok for ok, _ in failures) else FAILED,
        notes=tuple(notes),
    )


def _whitehead_connected(f: MapChain, gates) -> bool:
    """Whether every vertex's gate-Whitehead graph is connected; a map that
    moves a vertex or splits a gate has none, and fails."""
    return (
        f.fixes_all_vertices()
        and gate_direction_map(f, gates) is not None
        and all(w.is_connected() for w in whitehead_graphs(f, gates).values())
    )


def _intrinsic_grade(f: MapChain):
    """(intrinsic gates, their doubled index list at periodic vertices,
    the least expanding power, the Nielsen-path search on that power).

    The search is None when no power up to 8 expands every edge.  Raises
    ``MapError`` unless ``f`` is a classical train track map.
    """
    gates = intrinsic_gate_structure(f)
    index_list = gate_index_list(f.graph, gates, sorted(periodic_vertices(f)))
    power = expanding_power(f)
    inp = None if power is None else find_periodic_inps(f.power(power), gates)
    return gates, index_list, power, inp


def within_index_bound(graph, doubled: tuple[int, ...]) -> bool:
    """Whether a doubled index sum lies in [1, 2N - 2], N the graph's rank.

    An iwip's stable tree has a branch point, so its index sum is at
    least 1/2, and it is at most N - 1 (Gaboriau-Jaeger-Levitt-Lustig):
    a list outside this range is never an iwip's.
    """
    return 1 <= sum(doubled) <= 2 * graph.rank - 2


def stable_index_list(f: MapChain) -> tuple[tuple[int, ...], bool]:
    """Gate index list of the intrinsic gates at periodic vertices.

    Returns (doubled index list, caveat).  The caveat is set whenever the
    bounded Nielsen-path search (periods up to 8, branches up to 200
    letters) does not come back clean; running the search on a proper power
    (because the map itself does not expand every edge) also sets it, since
    period coverage is then thinned out.  It is also set when the doubled
    sum lies outside [1, 2N - 2], which no iwip's index list does.  A
    caveat means the list may under- or over-count the stable index.
    """
    _, doubled, power, inp = _intrinsic_grade(f)
    clean = power == 1 and inp.verdict == NONE_FOUND
    return (doubled, not (clean and within_index_bound(f.graph, doubled)))


def expanding_power(f: MapChain) -> int | None:
    """Least k <= 8 with |f^k(e)| >= 2 for every edge, else None.

    Images are never tightened, so |f^k(e)| is the column sum of M^k.
    """
    for k in range(1, 9):
        power = f.power(k)
        if all(power.image_length(e) >= 2 for e in f.graph.positive_edges):
            return k
    return None


# -- bounded periodic-conjugacy-class cross-check -------------------------------


def cyclic_tighten(word: tuple[str, ...]) -> tuple[str, ...]:
    word = tighten_word(word)
    while len(word) >= 2 and word[0] == inverse(word[-1]):
        word = word[1:-1]
    return word


def cyclically_equal(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    a, b = cyclic_tighten(a), cyclic_tighten(b)
    if len(a) != len(b):
        return False
    if not a:
        return True
    return any(b[k:] + b[:k] == a for k in range(len(b)))


def periodic_class_status(
    f: MapChain, word: tuple[str, ...], t_max: int = 6, budget: int = 100_000
) -> tuple[str, int | None]:
    """Does some f^t-image of the conjugacy class return to it, t <= t_max?

    Applies the map factor by factor, cyclically reducing between factors
    (conjugacy classes are preserved either way).  Returns one of
    ("recurrent", t), ("no_recurrence", None) or ("escaped", t): escaped
    means the class length left the budget, after which recurrence within
    the remaining exponents is not decidable at this scale.
    """
    base = cyclic_tighten(word)
    current = base
    for t in range(1, t_max + 1):
        for factor in f.factors:
            expanded: list[str] = []
            for token in current:
                expanded.extend(factor.image_edges(token))
                if len(expanded) > budget:
                    return ("escaped", t)
            current = cyclic_tighten(tuple(expanded))
        if cyclically_equal(current, base):
            return ("recurrent", t)
    return ("no_recurrence", None)


def random_cyclic_words(graph, count: int, max_len: int, seed: int) -> list[tuple[str, ...]]:
    """Deterministic sample of nonempty reduced cyclic words on the graph."""
    rng = random.Random(seed)
    words = []
    tokens = list(graph.directed_edges)
    attempts = 0
    while len(words) < count and attempts < 100 * count:
        attempts += 1
        length = rng.randint(1, max_len)
        start = rng.choice([t for t in tokens if graph.init_of(t) == graph.init_of(tokens[0])] or tokens)
        word = [start]
        ok = True
        for _ in range(length - 1):
            options = [
                t
                for t in graph.edges_at(graph.term_of(word[-1]))
                if t != inverse(word[-1])
            ]
            if not options:
                ok = False
                break
            word.append(rng.choice(options))
        if not ok:
            continue
        # keep only closed words so the cyclic class is meaningful
        if graph.term_of(word[-1]) != graph.init_of(word[0]):
            continue
        reduced = cyclic_tighten(tuple(word))
        if reduced:
            words.append(reduced)
    return words


def periodic_class_survey(f: MapChain, count: int = 50, max_len: int = 6, t_max: int = 6, seed: int = 20240901) -> dict:
    """Survey random short conjugacy classes for early recurrence."""
    words = random_cyclic_words(f.graph, count, max_len, seed)
    statuses = [periodic_class_status(f, w, t_max=t_max) for w in words]
    return {
        "words": len(words),
        "recurrent": sum(1 for s, _ in statuses if s == "recurrent"),
        "escaped": sum(1 for s, _ in statuses if s == "escaped"),
        "no_recurrence": sum(1 for s, _ in statuses if s == "no_recurrence"),
    }
