"""Output checks, computed apart from the package.

Each check reads plain data (the realization document, factor images,
a grade) and recomputes what it needs with its own integer arithmetic;
none of them imports ``ttrealize`` or compares against stored output.
A check returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

FULL_THEOREM = "full_theorem_62"
CONDITIONAL_IWIP = "conditional_iwip"


def inverse(token: str) -> str:
    return token[1:] if token.startswith("~") else "~" + token


def doubled_entry(text: str) -> int:
    """'k/2' -> k and 'k' -> 2k."""
    if text.endswith("/2"):
        return int(text[:-2])
    return 2 * int(text)


# -- realizations ------------------------------------------------------------


def transition_counts(edges: list[str], factors: list[dict]) -> dict[str, dict[str, int]]:
    """Crossing counts of the composition (factors[0] applied first).

    Returns counts[source][crossed], from each factor's edge images.
    """
    counts = {e: {x: int(x == e) for x in edges} for e in edges}
    for factor in factors:
        images = factor["images"]
        per_letter = {}
        for x in edges:
            row = dict.fromkeys(edges, 0)
            for token in images[x]:
                row[token.lstrip("~")] += 1
            per_letter[x] = row
        for e in edges:
            column = dict.fromkeys(edges, 0)
            for x, n in counts[e].items():
                if n:
                    for y, m in per_letter[x].items():
                        column[y] += n * m
            counts[e] = column
    return counts


def check_realization(doc: dict, rank: int, requested: tuple[int, ...], level: str,
                      index_list: tuple[int, ...]) -> list[str]:
    """Properties every realization of ``requested`` at ``rank`` must have.

    ``doc`` is the JSON realization document; ``level`` and ``index_list``
    (doubled entries) come from the report graded for it.
    """
    problems = []
    want = sorted(requested)
    if level != FULL_THEOREM:
        problems.append(f"level {level}, not {FULL_THEOREM}")
    if sorted(index_list) != want:
        problems.append(f"realized index list {sorted(index_list)} != requested {want}")

    graph = doc["graph"]
    edges = [e["label"] for e in graph["edges"]]
    init = {}
    for e in graph["edges"]:
        init[e["label"]] = e["from"]
        init[inverse(e["label"])] = e["to"]
    per_vertex = dict.fromkeys(graph["vertices"], 0)
    for gate in doc["gates"]["gates"]:
        per_vertex[init[gate[0]]] += 1
    from_gates = sorted(n - 2 for n in per_vertex.values())
    if from_gates != want:
        problems.append(f"gate counts give {from_gates}, requested {want}")
    if len(edges) - len(graph["vertices"]) + 1 != rank:
        problems.append(f"graph has rank {len(edges) - len(graph['vertices']) + 1}, not {rank}")

    h = doc["map_h"]["factors"]
    g = doc["map_g"]["factors"]
    if doc["map_final"]["factors"] != g + h:
        problems.append("final is not g followed by h")
    if h != [r["map"] for r in doc["mixing_factors"]] * 2:
        problems.append("h is not the mixing factors twice")
    counts = transition_counts(edges, h)
    if not all(n > 0 for column in counts.values() for n in column.values()):
        problems.append("transition matrix of h is not positive")
    return problems


# -- experiment samples ------------------------------------------------------


def eventual_gate_count(factors: list[dict]) -> int:
    """Gates at the one vertex of a rose, from composed first letters.

    Two directions share a gate when some power of the direction map
    sends them to the same direction; with D directions a collision that
    ever happens has happened after D*D steps.
    """
    edges = list(factors[0]["images"])
    directions = edges + [inverse(e) for e in edges]
    df = {d: d for d in directions}
    for factor in factors:
        images = factor["images"]
        first = {}
        for e in edges:
            first[e] = images[e][0]
            first[inverse(e)] = inverse(images[e][-1])
        df = {d: first[df[d]] for d in directions}
    current = {d: d for d in directions}
    for _ in range(len(directions) ** 2):
        current = {d: df[current[d]] for d in directions}
    return len(set(current.values()))


def is_primitive(edges: list[str], factors: list[dict]) -> bool:
    """Some power M^t, t <= (n-1)^2 + 1, has every entry positive."""
    m = transition_counts(edges, factors)
    power = m
    for _ in range((len(edges) - 1) ** 2 + 1):
        if all(n > 0 for column in power.values() for n in column.values()):
            return True
        power = {
            e: {y: sum(power[e][x] * m[x][y] for x in edges) for y in edges}
            for e in edges
        }
    return False


def check_sample(factors: list[dict], category: str, index_list, primitive: bool) -> list[str]:
    """Gate count and primitivity of a graded rose sample, recomputed.

    Grades that stopped before the gate structure (no index list) carry
    no gate count or primitivity flag to check.
    """
    if index_list is None:
        return []
    problems = []
    gates = eventual_gate_count(factors)
    expected = (gates - 2,) if gates >= 3 else ()
    if tuple(index_list) != expected:
        problems.append(f"{category}: index list {tuple(index_list)} but {gates} gates")
    edges = list(factors[0]["images"])
    if primitive != is_primitive(edges, factors):
        problems.append(f"{category}: primitive flag {primitive} is wrong")
    return problems


def breaks_index_sum(category: str, index_list, rank: int) -> bool:
    """An iwip grade needs a doubled index sum in [1, 2N - 2]."""
    if category != CONDITIONAL_IWIP:
        return False
    total = sum(index_list or ())
    return not 1 <= total <= 2 * rank - 2
