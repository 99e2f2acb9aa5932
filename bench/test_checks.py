"""Each output check accepts a right output and rejects a wrong one.

Run from the root of a checkout: python3 -m pytest bench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402

FULL = checks.FULL_THEOREM


@pytest.fixture(scope="module")
def rank3_doc():
    """The realization document of rank 3 [1/2], as the sweep writes it."""
    from ttrealize import realize

    return json.loads(json.dumps(realize(3, (1,)).to_json()))


def test_right_document_passes(rank3_doc):
    assert checks.check_realization(rank3_doc, 3, (1,), FULL, (1,)) == []


def test_rejects_level_below_full_theorem(rank3_doc):
    problems = checks.check_realization(rank3_doc, 3, (1,), "conditional", (1,))
    assert any("level" in p for p in problems)


def test_rejects_wrong_index_list(rank3_doc):
    problems = checks.check_realization(rank3_doc, 3, (1,), FULL, (2,))
    assert any("realized index list" in p for p in problems)


def test_rejects_gates_that_miss_the_requested_list(rank3_doc):
    problems = checks.check_realization(rank3_doc, 3, (2,), FULL, (2,))
    assert any("gate counts" in p for p in problems)


def test_rejects_wrong_rank(rank3_doc):
    problems = checks.check_realization(rank3_doc, 4, (1,), FULL, (1,))
    assert any("rank" in p for p in problems)


@pytest.mark.parametrize("tamper", ["final_is_h", "final_is_h_then_g", "g_is_h"])
def test_rejects_final_that_is_not_g_then_h(rank3_doc, tamper):
    doc = copy.deepcopy(rank3_doc)
    g, h = doc["map_g"]["factors"], doc["map_h"]["factors"]
    if tamper == "final_is_h":
        doc["map_final"] = copy.deepcopy(doc["map_h"])
    elif tamper == "final_is_h_then_g":
        doc["map_final"]["factors"] = h + g
    else:
        doc["map_g"] = copy.deepcopy(doc["map_h"])
    problems = checks.check_realization(doc, 3, (1,), FULL, (1,))
    assert "final is not g followed by h" in problems


def test_rejects_h_that_is_not_the_mixing_factors_twice(rank3_doc):
    doc = copy.deepcopy(rank3_doc)
    doc["map_h"]["factors"] = doc["map_h"]["factors"][: len(doc["mixing_factors"])]
    problems = checks.check_realization(doc, 3, (1,), FULL, (1,))
    assert "h is not the mixing factors twice" in problems


def test_rejects_non_positive_matrix(rank3_doc):
    doc = copy.deepcopy(rank3_doc)
    identity = {"images": {e["label"]: [e["label"]] for e in doc["graph"]["edges"]}}
    for record in doc["mixing_factors"]:
        record["map"] = identity
    doc["map_h"]["factors"] = [identity] * (2 * len(doc["mixing_factors"]))
    doc["map_final"]["factors"] = doc["map_g"]["factors"] + doc["map_h"]["factors"]
    problems = checks.check_realization(doc, 3, (1,), FULL, (1,))
    assert problems == ["transition matrix of h is not positive"]


def test_transition_counts_compose_in_order():
    # x1 -> x1 x2 first, then x2 -> x2 ~x1: x1 ends as x1 x2 ~x1
    first = {"images": {"x1": ["x1", "x2"], "x2": ["x2"]}}
    second = {"images": {"x1": ["x1"], "x2": ["x2", "~x1"]}}
    counts = checks.transition_counts(["x1", "x2"], [first, second])
    assert counts == {"x1": {"x1": 2, "x2": 1}, "x2": {"x1": 1, "x2": 1}}


# -- experiment samples --------------------------------------------------------

# x1 -> x1 x2, then x2 -> x2 x1: the composite sends x1 to x1 x2 x1 and x2 to
# x2 x1.  Its directions ~x1 and ~x2 both end in ~x1, so the one vertex has
# three gates (index list [1/2]), and its matrix is positive.
ROSE_FACTORS = [
    {"images": {"x1": ["x1", "x2"], "x2": ["x2"]}},
    {"images": {"x1": ["x1"], "x2": ["x2", "x1"]}},
]


def test_right_sample_passes():
    assert checks.eventual_gate_count(ROSE_FACTORS) == 3
    assert checks.check_sample(ROSE_FACTORS, checks.CONDITIONAL_IWIP, (1,), True) == []


def test_rejects_wrong_gate_count():
    problems = checks.check_sample(ROSE_FACTORS, checks.CONDITIONAL_IWIP, (), True)
    assert any("gates" in p for p in problems)


def test_rejects_wrong_primitive_flag():
    problems = checks.check_sample(ROSE_FACTORS, checks.CONDITIONAL_IWIP, (1,), False)
    assert any("primitive" in p for p in problems)
    reducible = ROSE_FACTORS[:1]
    assert not checks.is_primitive(["x1", "x2"], reducible)


def test_iwip_label_on_empty_list_breaks_index_sum():
    assert checks.breaks_index_sum(checks.CONDITIONAL_IWIP, (), 3)
    assert checks.breaks_index_sum(checks.CONDITIONAL_IWIP, (3, 2), 3)
    assert not checks.breaks_index_sum(checks.CONDITIONAL_IWIP, (1,), 3)
    assert not checks.breaks_index_sum("inp_present", (), 3)
