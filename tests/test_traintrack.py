"""Direction maps, train track checks, Whitehead graphs, long turns, Nielsen search."""

import itertools
import random

import pytest

from ttrealize import traintrack
from ttrealize.certify import expanding_power
from ttrealize.core import GateStructure, Graph, Path, inverse, is_legal_word, tighten
from ttrealize.experiment import sample_positive_automorphism
from ttrealize.maps import (
    ComparisonBudgetError,
    GraphMap,
    MapChain,
    MapError,
    strip_windows,
    word_image_window,
)
from ttrealize.traintrack import (
    FOUND,
    NONE_FOUND,
    TrainTrackDiagnostics,
    Turn,
    check_train_track_morphism,
    count_long_turns,
    direction_map,
    find_periodic_inps,
    fixes_all_gates,
    gate_direction_map,
    gate_index_list,
    intrinsic_gate_structure,
    periodic_vertices,
    verify_legalizing,
    whitehead_graphs,
)
from ttrealize.realize import build_legalizing_map, select_paths
from test_chain_oracle import sparse_factor
from test_maps import random_graph, random_self_map
from reference import (
    LongTurn,
    compose_maps,
    enumerate_long_turns,
    identity_map,
    is_classical_train_track,
    is_complete,
    is_legal_path,
    long_turn_image,
    singleton_gates,
)


def fib(rose2):
    return MapChain(rose2, [GraphMap(rose2, {"a": ("a", "b"), "b": ("a",)})])


# -- direction maps -----------------------------------------------------------


def test_direction_map_fibonacci(rose2):
    df = direction_map(fib(rose2))
    assert df == {"a": "a", "b": "a", "~a": "~b", "~b": "~a"}


def test_direction_map_identity(rose2):
    df = direction_map(MapChain(rose2, [identity_map(rose2)]))
    assert all(df[t] == t for t in rose2.directed_edges)


def test_direction_map_of_anchor_stamp(even_instance):
    rec = next(r for r in even_instance.mixing_factors if r.name == "stamps")
    df = direction_map(MapChain(even_instance.graph, [rec.map]))
    assert df["a1"] == rec.map.image_edges("a1")[0]


# -- train track checks ---------------------------------------------------------


def test_identity_is_train_track(even_instance):
    graph = even_instance.graph
    diag = check_train_track_morphism(MapChain(graph, [identity_map(graph)]), even_instance.gates)
    assert diag.ok


def test_unreduced_image_fails(rose2):
    bad = GraphMap(rose2, {"a": ("a", "~a", "a"), "b": ("b",)})
    diag = check_train_track_morphism(MapChain(rose2, [bad]), singleton_gates(rose2))
    assert "a" in diag.illegal_images


def test_constructed_map_is_train_track(even_instance):
    diag = check_train_track_morphism(even_instance.h, even_instance.gates)
    assert diag.ok
    diag2 = check_train_track_morphism(even_instance.final, even_instance.gates)
    assert diag2.ok


def random_gates(graph: Graph, rng: random.Random) -> GateStructure:
    """Each vertex's directions shuffled and cut into random gates."""
    groups = []
    for v in graph.vertices:
        edges = list(graph.edges_at(v))
        rng.shuffle(edges)
        while edges:
            k = rng.randint(1, len(edges))
            groups.append(edges[:k])
            edges = edges[k:]
    return GateStructure(graph, groups)


def test_factor_checks_read_only_what_moves_yet_match_full_checks():
    """Reading only the moved edges, the turns with a moved direction and
    the moved directions' gates gives the diagnostics and the gate verdict
    of checking every edge, every turn and every gate."""
    rng = random.Random(2718)
    seen = {"bad_image": 0, "bad_turn": 0, "ok": 0, "moves_gate": 0, "fixes_gates": 0}
    for _ in range(400):
        graph = random_graph(rng)
        gates = singleton_gates(graph) if rng.random() < 0.4 else random_gates(graph, rng)
        try:
            f = sparse_factor(graph, rng) if rng.random() < 0.5 else random_self_map(graph, rng, rng.randint(1, 2))
        except ValueError:
            continue
        chain = MapChain(graph, [f])
        df = direction_map(chain)
        want = TrainTrackDiagnostics(
            tuple(e for e in graph.positive_edges if not is_legal_word(f.image_edges(e), gates)),
            tuple(
                Turn(a, b).tokens()
                for v in graph.vertices
                for a, b in itertools.combinations(graph.edges_at(v), 2)
                if gates.is_legal_turn(a, b)
                and (df[a] == df[b] or not gates.is_legal_turn(df[a], df[b]))
            ),
        )
        assert check_train_track_morphism(chain, gates) == want
        gmap = gate_direction_map(chain, gates)
        fixes = gmap is not None and all(k == v for k, v in gmap.items())
        assert fixes_all_gates(chain, gates) == fixes
        seen["bad_image"] += bool(want.illegal_images)
        seen["bad_turn"] += bool(want.illegal_turn_images)
        seen["ok"] += want.ok
        seen["fixes_gates" if fixes else "moves_gate"] += 1
    assert min(seen.values()) >= 10, seen


def test_gate_direction_bijection_on_constructed_maps(even_instance):
    gates = even_instance.gates
    for f in (even_instance.h, even_instance.g, even_instance.final):
        gmap = gate_direction_map(f, gates)
        assert gmap is not None
        assert sorted(gmap.values()) == sorted(gmap.keys())
        assert fixes_all_gates(f, gates)


# -- intrinsic gates -------------------------------------------------------------


def test_intrinsic_gates_fibonacci(rose2):
    gates = intrinsic_gate_structure(fib(rose2))
    assert gates.gates == (("a", "b"), ("~a",), ("~b",))


def test_intrinsic_gates_of_permutation(rose2):
    swap = GraphMap(rose2, {"a": ("b",), "b": ("a",)})
    gates = intrinsic_gate_structure(MapChain(rose2, [swap]))
    assert all(len(g) == 1 for g in gates.gates)


def test_intrinsic_gates_of_legalizing_map(odd_instance):
    assert intrinsic_gate_structure(odd_instance.g) == odd_instance.gates
    assert intrinsic_gate_structure(odd_instance.final) == odd_instance.gates


def test_intrinsic_gates_refine_any_working_structure(even_instance):
    """Eventual direction collision can only merge edges within one given
    gate, never across gates the map respects."""
    gates = even_instance.gates
    for f in (even_instance.h, even_instance.final):
        fine = intrinsic_gate_structure(f)
        for members in fine.gates:
            owners = {gates.gate_of(t) for t in members}
            assert len(owners) == 1


def test_intrinsic_gates_reject_non_train_track(rose2):
    assert is_classical_train_track(fib(rose2))
    # f(a) = ab, f(b) = ~b: the second iterate of a ends "b ~b", unreduced
    unred = GraphMap(rose2, {"a": ("a", "b"), "b": ("~b",)})
    assert compose_maps(unred, unred).image_edges("a") == ("a", "b", "~b")
    chain = MapChain(rose2, [unred])
    assert not is_classical_train_track(chain)
    with pytest.raises(MapError):
        intrinsic_gate_structure(chain)


# -- Whitehead graphs -------------------------------------------------------------


def test_whitehead_identity_is_empty(even_instance):
    graph = even_instance.graph
    wh = whitehead_graphs(MapChain(graph, [identity_map(graph)]), even_instance.gates)["v1"]
    assert wh.edges == frozenset()
    assert not wh.is_connected() or len(wh.nodes) == 1


def test_whitehead_of_mixing_map_complete(even_instance, odd_instance):
    for inst in (even_instance, odd_instance):
        for v, wh in whitehead_graphs(inst.h, inst.gates).items():
            assert is_complete(wh), (inst.blueprint.case, v)
            assert wh.is_connected()


def test_whitehead_max_odd_connected_with_loop_link(max_odd_instance):
    gates = max_odd_instance.gates
    whs = whitehead_graphs(max_odd_instance.h, gates)
    for v, wh in whs.items():
        assert wh.is_connected(), v
    reversed_loop_gate = gates.gate_of("~a1")
    anchor_gate = gates.gate_of("a1")
    pair = (min(reversed_loop_gate, anchor_gate), max(reversed_loop_gate, anchor_gate))
    assert pair in whs["v1"].edges


def test_whitehead_union_under_composition(even_instance):
    recs, graph = even_instance.mixing_factors, even_instance.graph
    f1, f2 = recs[0].map, recs[-1].map
    gates = even_instance.gates

    def edges(f, v):
        return whitehead_graphs(MapChain(graph, [f]), gates)[v].edges

    wh_union = {v: edges(f1, v) | edges(f2, v) for v in graph.vertices}
    whc = whitehead_graphs(MapChain(graph, [compose_maps(f1, f2)]), gates)
    for v in even_instance.graph.vertices:
        assert whc[v].edges == wh_union[v]


def test_whitehead_needs_fixed_vertices():
    square = Graph(["u", "v"], [("p", "u", "v"), ("q", "u", "v"), ("r", "u", "v")])
    swap = GraphMap(
        square,
        {"p": ("~p",), "q": ("~q",), "r": ("~r",)},
        {"u": "v", "v": "u"},
    )
    with pytest.raises(MapError):
        whitehead_graphs(MapChain(square, [swap]), singleton_gates(square))


# -- long turns -------------------------------------------------------------------


def test_long_turns_at_length_one_are_turns(rose2):
    gates = singleton_gates(rose2)
    turns = list(enumerate_long_turns(rose2, gates, 1))
    assert len(turns) == 6  # C(4, 2) unordered pairs of directions
    assert count_long_turns(rose2, gates, 1) == 6


def test_long_turn_count_matches_enumeration(even_instance):
    graph, gates = even_instance.graph, even_instance.gates
    for length in (1, 2):
        assert count_long_turns(graph, gates, length) == sum(
            1 for _ in enumerate_long_turns(graph, gates, length)
        )


def test_long_turn_validation(rose2):
    with pytest.raises(Exception):
        LongTurn(Path("v1", ("a",)), Path("v1", ("a",)))
    lt = LongTurn(Path("v1", ("a",)), Path("v1", ("b",)))
    assert lt.starting_turn == Turn("a", "b")


def test_long_turn_image_even_case(even_instance):
    """The first-kind legalizer sends its own turn to the advertised image."""
    gates = even_instance.gates
    graph = even_instance.graph
    sel = select_paths(graph, gates, even_instance.blueprint)
    rec = next(r for r in even_instance.legalizers if r.name == "legalize[a1,c1]")
    extension, detour = sel["exit", "c1"], sel["detour", "c1"]
    lt = LongTurn(Path("v1", ("a1",)), Path("v1", ("c1",)))
    image = long_turn_image(rec.map, lt)
    assert image is not None
    expected_a = ("c1",) + extension
    expected_b = detour + ("a1", "c1")
    assert (image.branch_a.edges, image.branch_b.edges) in (
        (expected_a, expected_b),
        (expected_b, expected_a),
    )
    assert image.is_legal(gates)


def test_long_turn_image_loop_turn(odd_instance):
    rec = next(r for r in odd_instance.legalizers if r.name == "legalize[d,~d]")
    lt = LongTurn(Path("v1", ("d",)), Path("v1", ("~d",)))
    image = long_turn_image(rec.map, lt)
    branches = {image.branch_a.edges, image.branch_b.edges}
    assert branches == {("a1", "~d"), ("~a1", "~d")}
    assert image.is_legal(odd_instance.gates)


def test_long_turn_image_trivial_prefix(rose2):
    f = GraphMap(rose2, {"a": ("a", "b"), "b": ("b", "a")})
    lt = LongTurn(Path("v1", ("a",)), Path("v1", ("b",)))
    image = long_turn_image(f, lt)
    assert image.branch_a.edges == ("a", "b")
    assert image.branch_b.edges == ("b", "a")


# -- the legalizing verifier -------------------------------------------------------


def test_identity_is_not_legalizing(even_instance):
    graph = even_instance.graph
    cert = verify_legalizing(MapChain(graph, [identity_map(graph)]), even_instance.gates, 1)
    assert not cert.ok
    assert cert.verdict == "failed"


def test_certified_map_is_legalizing(even_instance):
    r = even_instance
    _, cert, _ = build_legalizing_map(r.gates, r.blueprint, r.g)
    assert cert.ok and cert.branch_length == r.C
    again = verify_legalizing(r.g, r.gates, r.C)
    assert again.ok
    assert again.checked == cert.checked == count_long_turns(r.graph, r.gates, r.C)


def test_legalizing_verdict_is_monotone_in_length(odd_instance):
    deeper = verify_legalizing(
        odd_instance.g, odd_instance.gates, odd_instance.C + 1
    )
    assert deeper.ok


def test_single_legalizer_handles_only_its_own_turn(even_instance):
    """Brute-force oracle: one legalizer factor fixes its turn at length 1,
    while some other illegal turn keeps an illegal image."""
    graph, gates = even_instance.graph, even_instance.gates
    rec = next(r for r in even_instance.legalizers if r.name == "legalize[a1,a2]")
    own_ok = True
    other_illegal = False
    for lt in enumerate_long_turns(graph, gates, 1):
        image = long_turn_image(rec.map, lt)
        if set(lt.starting_turn.tokens()) == {"a1", "a2"}:
            own_ok = own_ok and image is not None and image.is_legal(gates)
        elif image is not None and not lt.is_legal(gates):
            if not image.is_legal(gates):
                other_illegal = True
    assert own_ok
    assert other_illegal
    assert not verify_legalizing(MapChain(graph, [rec.map]), gates, 1).ok


def test_verifier_agrees_with_brute_force_on_factors(even_instance):
    """Independent check of the family verifier against full enumeration."""
    graph, gates = even_instance.graph, even_instance.gates
    for rec in even_instance.legalizers[:3]:
        cert = verify_legalizing(MapChain(graph, [rec.map]), gates, 1)
        brute_ok = True
        for lt in enumerate_long_turns(graph, gates, 1):
            image = long_turn_image(rec.map, lt)
            if image is None or not image.is_legal(gates):
                brute_ok = False
                break
        assert cert.ok == brute_ok


# -- periodic Nielsen path search ---------------------------------------------------


def test_inp_search_clean_on_certified_map(odd_instance):
    inp = find_periodic_inps(odd_instance.final, odd_instance.gates)
    assert inp.verdict == NONE_FOUND
    assert inp.found == ()


def test_inp_search_vacuous_without_illegal_turns():
    loop = Graph(["v"], [("a", "v", "v")])
    f = MapChain(loop, [GraphMap(loop, {"a": ("a", "a")})])
    gates = singleton_gates(loop)
    inp = find_periodic_inps(f, gates)
    assert inp.verdict == NONE_FOUND


def test_inp_search_requires_expansion(rose2):
    f = fib(rose2)
    gates = intrinsic_gate_structure(f)
    with pytest.raises(MapError):
        find_periodic_inps(f, gates)


def test_inp_search_finds_fixed_branch_pair():
    """A map with an explicit vertex Nielsen pair: f(x) = w x, f(y) = w y."""
    rose = Graph(["v1"], [("a", "v1", "v1"), ("b", "v1", "v1"), ("c", "v1", "v1")])
    f = GraphMap(
        rose,
        {
            "a": ("c", "a"),
            "b": ("c", "b"),
            "c": ("a", "c"),
        },
    )
    gates = GateStructure(
        rose, [["a", "b"], ["c"], ["~a"], ["~b"], ["~c"]]
    )
    chain = MapChain(rose, [f])
    assert check_train_track_morphism(chain, gates).ok
    inp = find_periodic_inps(chain, gates)
    assert inp.verdict == FOUND
    (turn, period, (x, y)) = inp.found[0]
    assert set(turn.tokens()) == {"a", "b"}
    assert period == 1
    assert (x, y) == (("a",), ("b",))
    # the reported pair really is a Nielsen path: x-bar.y is fixed exactly
    nielsen = Path("v1", tuple(inverse(t) for t in reversed(x)) + y)
    power = f
    for _ in range(period - 1):
        power = compose_maps(f, power)
    image = tuple(x for t in nielsen.edges for x in power.image_edges(t))
    assert tighten(Path("v1", image)) == nielsen


def test_inp_search_fibonacci_square_has_no_vertex_candidates(rose2):
    """The golden-ratio rose map folds one branch into the other, so the
    vertex-endpoint search reports a clean sweep; its Nielsen phenomenon
    shows up in conjugacy classes instead (see the certify tests)."""
    f = fib(rose2)
    square = MapChain(rose2, f.factors * 2)
    gates = intrinsic_gate_structure(f)
    inp = find_periodic_inps(square, gates)
    assert inp.verdict == NONE_FOUND


def _fresh_strip_step(table, x, y):
    outcome = strip_windows(table.fp, x, y, traintrack.INP_LENGTH_BOUND)
    if outcome[0] == "contained":
        return None
    _, cut, window_x, window_y = outcome
    return (cut, tuple(window_x), tuple(window_y))


def test_strip_step_table_matches_fresh_steps(monkeypatch):
    """Every step a per-power table handed out, the ones read off a swapped
    state and the ones filled by a higher power's lookup included, is the
    step a fresh ``strip_windows`` takes, with no lookup; and the swap of
    every entry is the fresh step of the swapped state.  Some higher-power
    steps are answered by a lookup."""
    tables, swapped, answered = [], 0, 0

    class Recording(traintrack.StripSteps):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

        def step(self, x, y):
            nonlocal swapped
            swapped += (x, y) not in self.taken and (y, x) in self.taken
            return super().step(x, y)

        def lookup(self, a, b):
            nonlocal answered
            found = super().lookup(a, b)
            full = traintrack.INP_LENGTH_BOUND
            answered += found is not None and len(found[1]) == full == len(found[2])
            return found

    monkeypatch.setattr(traintrack, "StripSteps", Recording)
    for seed in range(12):
        chain = sample_positive_automorphism(3, 14 + seed, seed)
        power = expanding_power(chain)
        if power is not None:
            find_periodic_inps(chain.power(power), intrinsic_gate_structure(chain))
    assert swapped >= 1 and answered >= 1
    for table in tables:
        for (x, y), entry in table.taken.items():
            assert entry == _fresh_strip_step(table, x, y)
            swap = None if entry is None else (entry[0], entry[2], entry[1])
            assert swap == _fresh_strip_step(table, y, x)


def test_strip_step_out_of_budget_is_noted_every_time(monkeypatch):
    """A step that ran out of budget is never stored: each visit of the
    state, or of its swap, takes it afresh and writes its note again."""
    def exhausted(*args):
        raise ComparisonBudgetError("image comparison exceeded 1 steps at position 0")

    monkeypatch.setattr(traintrack, "strip_windows", exhausted)
    notes = []
    steps = traintrack.StripSteps(None, notes)
    for x, y in ((("a",), ("b",)), (("b",), ("a",)), (("a",), ("b",))):
        assert steps.step(x, y) is None
    assert notes == ["strip step exceeded the comparison budget"] * 3
    assert steps.taken == {}
    # a higher power's lookup that runs out is a miss: no note, nothing stored
    assert steps.lookup("a", "b") is None
    assert len(notes) == 3 and steps.taken == {}


# -- index lists ------------------------------------------------------------------


def test_gate_index_list_even_case(even_instance):
    doubled = gate_index_list(
        even_instance.graph, even_instance.gates, even_instance.graph.vertices
    )
    assert doubled == (2, 2, 2, 1, 1)


def test_gate_index_list_three_gates_gives_half():
    loop = Graph(["v"], [("a", "v", "v"), ("b", "v", "v")])
    gates = GateStructure(loop, [["a", "b"], ["~a"], ["~b"]])
    assert gate_index_list(loop, gates, ["v"]) == (1,)


def test_gate_index_list_fibonacci_intrinsic(rose2):
    gates = intrinsic_gate_structure(fib(rose2))
    assert gate_index_list(rose2, gates, ["v1"]) == (1,)


def test_periodic_vertices(rose2, even_instance):
    assert periodic_vertices(fib(rose2)) == {"v1"}
    assert periodic_vertices(even_instance.final) == set(even_instance.graph.vertices)
    square = Graph(["u", "v"], [("p", "u", "v"), ("q", "u", "v"), ("r", "u", "v")])
    swap = GraphMap(
        square,
        {"p": ("~p",), "q": ("~q",), "r": ("~r",)},
        {"u": "v", "v": "u"},
    )
    assert periodic_vertices(MapChain(square, [swap])) == {"u", "v"}


def test_legal_image_of_legal_paths(even_instance):
    """Randomized: images of legal paths under the final map stay legal."""
    graph, gates = even_instance.graph, even_instance.gates
    rng = random.Random(4242)
    for _ in range(20):
        token = rng.choice(graph.directed_edges)
        word = [token]
        for _ in range(rng.randint(0, 19)):
            word.append(rng.choice(gates.legal_continuations(word[-1])))
        assert is_legal_path(Path(graph.init_of(word[0]), tuple(word)), gates)
        image = word_image_window(even_instance.final, word, 0, 4000)
        assert is_legal_path(Path(graph.init_of(image[0]), tuple(image)), gates)
