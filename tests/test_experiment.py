"""Random positive compositions: determinism, positivity, grading."""

from ttrealize.certify import expanding_power, stable_index_list
from ttrealize.core import is_positive
from ttrealize.traintrack import check_train_track_morphism, intrinsic_gate_structure
from ttrealize.experiment import (
    CATEGORY_CONDITIONAL,
    CATEGORY_UNRESOLVED,
    elementary_map,
    grade_sample,
    rose_graph,
    run_experiment,
    sample_positive_automorphism,
)


def test_single_step_is_one_of_four_elementary_maps():
    graph = rose_graph(2)
    expected = {
        elementary_map(graph, 1, 2, True).to_json()["images"]["x1"][0]: None
    }
    options = [
        elementary_map(graph, t, o, side).to_json()
        for t, o, side in [(1, 2, True), (1, 2, False), (2, 1, True), (2, 1, False)]
    ]
    for seed in range(12):
        chain = sample_positive_automorphism(2, 1, seed)
        assert chain.factors[0].to_json() in options


def test_same_seed_gives_identical_map():
    a = sample_positive_automorphism(3, 9, seed=1234)
    b = sample_positive_automorphism(3, 9, seed=1234)
    assert a.factors == b.factors
    c = sample_positive_automorphism(3, 9, seed=1235)
    assert c.factors != a.factors


def test_samples_stay_positive_and_train_track():
    for seed in range(6):
        chain = sample_positive_automorphism(3, 12, seed)
        dense = chain.materialize()
        (f,) = dense.factors
        for e in f.graph.positive_edges:
            assert all(is_positive(t) for t in f.image_edges(e))
        gates = intrinsic_gate_structure(dense)
        assert check_train_track_morphism(dense, gates).ok


def test_grading_respects_index_bound():
    table = run_experiment(rank=3, length=14, samples=25, seed=7)
    assert sum(table.categories.values()) == 25
    for key in table.list_counts:
        doubled = _doubled_sum(key)
        assert 1 <= doubled <= 2 * (3 - 1)


def _doubled_sum(key: str) -> int:
    total = 0
    for part in key.strip("[]").split(","):
        part = part.strip()
        if not part:
            continue
        total += int(part[:-2]) if part.endswith("/2") else 2 * int(part)
    return total


def test_experiment_is_deterministic():
    one = run_experiment(rank=3, length=10, samples=15, seed=99)
    two = run_experiment(rank=3, length=10, samples=15, seed=99)
    assert one.canonical_json() == two.canonical_json()
    other = run_experiment(rank=3, length=10, samples=15, seed=100)
    assert other.canonical_json() != one.canonical_json()


def test_zero_samples_gives_empty_table():
    table = run_experiment(rank=3, length=5, samples=0, seed=1)
    assert table.categories == {}
    assert table.list_counts == {}


def test_conditional_samples_dominate_at_moderate_length():
    table = run_experiment(rank=3, length=14, samples=25, seed=7)
    assert table.categories.get(CATEGORY_CONDITIONAL, 0) >= 1
    text = table.text_table()
    assert "qualitative" in text or "reference" in text


def test_index_sum_outside_the_gjll_range_is_unresolved():
    """A sample clean by every bounded test whose index list is [] is no
    iwip: the vertex-only search cannot see the Nielsen paths that would
    decide it, so it is unresolved, and stable_index_list says so."""
    chain = sample_positive_automorphism(3, 26, 7)
    grade = grade_sample(chain)
    assert (grade.primitive, grade.whitehead_connected, grade.inp_verdict) == (True, True, "none_found")
    assert grade.index_list == ()
    assert grade.category == CATEGORY_UNRESOLVED
    # the map expands and its search is clean: only the index sum sets the caveat
    assert expanding_power(chain) == 1
    assert stable_index_list(chain) == ((), True)


def test_each_elementary_map_is_built_once_per_chain():
    """A rank N rose has 2·N·(N−1) positive elementary maps; a sampled
    chain holds one instance per distinct map it draws."""
    for rank, length in ((2, 10), (3, 26), (4, 40)):
        for seed in range(5):
            chain = sample_positive_automorphism(rank, length, seed)
            instances = {id(f) for f in chain.factors}
            assert len(instances) <= 2 * rank * (rank - 1)
            images = {str(f.to_json()) for f in chain.factors}
            assert len(images) == len(instances)
