"""Certification of realized maps and grading of arbitrary train track maps.

The full certificate route checks the structural hypotheses (positive
transition matrix and connected gate-Whitehead graphs for the mixing map,
a valid legalizing certificate for the second factor, vertices and gates
fixed, the composed map made of exactly these factors, its gate index list
the blueprint's); together these guarantee a fully irreducible
automorphism whose stable index list is the requested one, with no
periodic Nielsen paths.  The conditional tier grades maps that only offer
primitivity, Whitehead connectivity and a clean bounded Nielsen-path
search: honest but weaker.  Positivity and primitivity are read from sign
patterns, never from exact matrix products.  A map with no construction
behind it is graded through its intrinsic gates by one grader, which
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
from .maps import as_chain, is_positive_pattern, is_primitive
from .traintrack import (
    NONE_FOUND,
    InpSearchResult,
    check_train_track_morphism,
    find_periodic_inps,
    fixes_all_gates,
    gate_index_list,
    intrinsic_gate_structure,
    periodic_vertices,
    verify_legalizing,
    whitehead_graphs,
)

FULL_THEOREM = "full_theorem_62"
CONDITIONAL = "conditional"
FAILED = "failed"

_LEVEL_ORDER = {FAILED: 0, CONDITIONAL: 1, FULL_THEOREM: 2}


@dataclass
class CertificationReport:
    train_track_ok: bool
    primitivity_ok: bool
    primitivity_witness: int | None
    whitehead_connected: dict[str, bool]
    legalizing_ok: bool | None
    inp: InpSearchResult
    index_list: tuple[int, ...]
    level: str
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "train_track": self.train_track_ok,
            "primitivity": {
                "ok": self.primitivity_ok,
                "witness": self.primitivity_witness,
            },
            "whitehead": dict(self.whitehead_connected),
            "legalizing_ok": self.legalizing_ok,
            "index_list": [format_index_entry(d) for d in self.index_list],
            "inp": self.inp.to_json(),
            "notes": list(self.notes),
        }


def certify_realization(result) -> CertificationReport:
    """Grade a realization result; the full tier needs the structural route.
    The stored legalizing verdict is re-derived at the stored C, never
    trusted, and every distinct factor of ``final`` is checked to be a
    train track morphism."""
    c = result.legalizing_cert.branch_length
    ok = c >= result.blueprint.long_turn_length and verify_legalizing(result.g, result.gates, c).ok
    final_tt = check_train_track_morphism(result.final, result.gates).ok
    return _grade(result, ok, final_tt)


def _grade(result, legalizing_ok: bool, final_tt: bool) -> CertificationReport:
    """The grading, given whether ``g`` legalizes at the stored C and
    whether ``final`` is a train track morphism for the gates."""
    graph, gates = result.graph, result.gates
    notes: list[str] = list(result.blueprint.notes)
    h, g, final = result.h, result.g, result.final

    h_matrix_positive = is_positive_pattern(h.sign_pattern)
    h_whitehead = whitehead_graphs(h, gates)
    h_wh_connected = all(w.is_connected() for w in h_whitehead.values())
    if not legalizing_ok:
        notes.append(f"map_g is not legalizing at the stored C = {result.legalizing_cert.branch_length}")
    g_fixes = g.fixes_all_vertices() and fixes_all_gates(g, gates)
    # identity checks for decoded documents, whose equal factors are one instance
    composed = final.factors == g.factors + h.factors
    if not composed:
        notes.append("map_final is not map_g followed by map_h")
    mixed = h.factors == tuple(rec.map for rec in result.mixing_factors) * 2
    if not mixed:
        notes.append("map_h is not the mixing factors applied twice")
    index_list = gate_index_list(graph, gates, sorted(periodic_vertices(final)))
    requested = index_list == result.blueprint.index_list
    if not requested:
        notes.append("the realized index list is not the blueprint's")
    structural = (h_matrix_positive and h_wh_connected and legalizing_ok and g_fixes
                  and composed and mixed and requested)

    primitive, witness = is_primitive(final.sign_pattern)
    final_whitehead = whitehead_graphs(final, gates)
    wh_by_vertex = {v: w.is_connected() for v, w in final_whitehead.items()}
    inp = find_periodic_inps(final, gates)

    if structural and final_tt:
        level = FULL_THEOREM
    elif (
        final_tt
        and primitive
        and all(wh_by_vertex.values())
        and inp.verdict == NONE_FOUND
    ):
        level = CONDITIONAL
        notes.append("structural route unavailable; graded from bounded evidence")
    else:
        level = FAILED
        if not h_matrix_positive:
            notes.append("mixing transition matrix is not positive")
        if not h_wh_connected:
            notes.append("mixing Whitehead graph disconnected somewhere")
        if not legalizing_ok:
            notes.append("no valid legalizing certificate")
        if not g_fixes:
            notes.append("legalizing factor moves a vertex or gate")
        if not final_tt:
            notes.append("composed map is not a train track morphism")
    return CertificationReport(
        train_track_ok=final_tt,
        primitivity_ok=primitive,
        primitivity_witness=witness,
        whitehead_connected=wh_by_vertex,
        legalizing_ok=legalizing_ok,
        inp=inp,
        index_list=index_list,
        level=level,
        notes=tuple(notes),
    )


def _intrinsic_grade(f):
    """(intrinsic gates, their doubled index list at periodic vertices,
    the least expanding power, the Nielsen-path search on that power).

    The search is None when no power up to 8 expands every edge.  Raises
    ``MapError`` unless ``f`` is a classical train track map.
    """
    gates = intrinsic_gate_structure(f)
    index_list = gate_index_list(f.graph, gates, sorted(periodic_vertices(f)))
    power = expanding_power(f)
    inp = None if power is None else find_periodic_inps(as_chain(f).power(power), gates)
    return gates, index_list, power, inp


def stable_index_list(f) -> tuple[tuple[int, ...], bool]:
    """Gate index list of the intrinsic gates at periodic vertices.

    Returns (doubled index list, caveat).  The caveat is set whenever the
    bounded Nielsen-path search (periods up to 8, branches up to 200
    letters) does not come back clean; running the search on a proper power
    (because the map itself does not expand every edge) also sets it, since
    period coverage is then thinned out.  A caveat means the list may
    under- or over-count the stable index.
    """
    _, doubled, power, inp = _intrinsic_grade(f)
    return (doubled, power is None or power > 1 or inp.verdict != NONE_FOUND)


def expanding_power(f) -> int | None:
    """Least k <= 8 with |f^k(e)| >= 2 for every edge, else None.

    Images are never tightened, so |f^k(e)| is the column sum of M^k.
    """
    chain = as_chain(f)
    for k in range(1, 9):
        power = chain.power(k)
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
    f, word: tuple[str, ...], t_max: int = 6, budget: int = 100_000
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


def periodic_class_survey(f, count: int = 50, max_len: int = 6, t_max: int = 6, seed: int = 20240901) -> dict:
    """Survey random short conjugacy classes for early recurrence."""
    words = random_cyclic_words(f.graph, count, max_len, seed)
    statuses = [periodic_class_status(f, w, t_max=t_max) for w in words]
    return {
        "words": len(words),
        "recurrent": sum(1 for s, _ in statuses if s == "recurrent"),
        "escaped": sum(1 for s, _ in statuses if s == "escaped"),
        "no_recurrence": sum(1 for s, _ in statuses if s == "no_recurrence"),
    }
