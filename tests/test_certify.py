"""Certification tiers, stable index lists, conjugacy-class cross-checks."""

import dataclasses
import importlib
import json

import pytest

from ttrealize.cli import main
from ttrealize.core import Graph, tighten_word
from ttrealize.maps import GraphMap, MapChain, MapError, TransitionMatrix, compose_maps
from ttrealize.realize import RealizationResult, enumerate_admissible, realize
from ttrealize.traintrack import LegalizingCertificate
from ttrealize.certify import (
    CONDITIONAL,
    FAILED,
    FULL_THEOREM,
    _LEVEL_ORDER,
    certify_realization,
    cyclic_tighten,
    cyclically_equal,
    expanding_power,
    periodic_class_status,
    periodic_class_survey,
    stable_index_list,
)


def fib(rose2):
    return GraphMap(rose2, {"a": ("a", "b"), "b": ("a",)})


def test_full_certificate_on_realization(even_instance):
    report = even_instance.report
    assert report.level == FULL_THEOREM
    assert report.train_track_ok
    assert report.primitivity_ok
    assert report.primitivity_witness is not None
    assert all(report.whitehead_connected.values())
    assert report.inp.verdict == "none_found"
    assert report.index_list == even_instance.blueprint.index_list


def test_identity_second_factor_fails_certification(odd_instance):
    """Swapping the certified second factor for the identity loses the
    certificate: the identity legalizes nothing."""
    result = _clone(odd_instance)
    ident = GraphMap.identity(odd_instance.graph)
    result.g = MapChain(odd_instance.graph, [ident])
    result.final = odd_instance.h
    result.legalizing_cert = dataclasses.replace(
        odd_instance.legalizing_cert, verdict="failed", witness=None
    )
    report = certify_realization(result)
    assert report.level != FULL_THEOREM
    assert any("legalizing" in note for note in report.notes) or report.level == CONDITIONAL


def _clone(result):
    import copy

    return copy.copy(result)


def test_certification_level_monotone(odd_instance):
    result = _clone(odd_instance)
    result.legalizing_cert = dataclasses.replace(
        odd_instance.legalizing_cert, verdict="failed"
    )
    downgraded = certify_realization(result)
    result.legalizing_cert = odd_instance.legalizing_cert
    restored = certify_realization(result)
    assert _LEVEL_ORDER[restored.level] >= _LEVEL_ORDER[downgraded.level]


def test_index_sum_stays_in_admissible_region(even_instance, max_odd_instance):
    for inst in (even_instance, max_odd_instance):
        doubled_sum = sum(inst.report.index_list)
        assert doubled_sum <= 2 * (inst.blueprint.rank - 1)


def test_stable_index_list_fibonacci(rose2):
    doubled, caveat = stable_index_list(fib(rose2))
    assert doubled == (1,)
    assert caveat  # the search had to run on a power: coverage is thinned


def test_stable_index_list_on_realization(odd_instance):
    doubled, caveat = stable_index_list(odd_instance.final)
    assert doubled == odd_instance.blueprint.index_list
    assert not caveat


def test_stable_index_list_edge_permutation(rose2):
    swap = GraphMap(rose2, {"a": ("b",), "b": ("a",)})
    doubled, caveat = stable_index_list(swap)
    assert caveat  # no positive power expands
    assert expanding_power(swap) is None


def test_stable_index_list_needs_train_track(rose2):
    unred = GraphMap(rose2, {"a": ("a", "b"), "b": ("~b",)})
    with pytest.raises(MapError):
        stable_index_list(unred)


def test_cyclic_tighten_and_equality():
    assert cyclic_tighten(("a", "b", "~b", "~a", "c")) == ("c",)
    assert cyclically_equal(("a", "b"), ("b", "a"))
    assert not cyclically_equal(("a", "b"), ("a", "~b"))
    assert cyclically_equal((), ("a", "~a"))


def test_fibonacci_commutator_class_is_periodic(rose2):
    """Hand oracle: the image of a b a^-1 b^-1 is conjugate to its inverse,
    so the class returns to itself after two applications."""
    f = fib(rose2)
    word = ("a", "b", "~a", "~b")
    image = []
    for token in word:
        image.extend(f.image_edges(token))
    once = cyclic_tighten(tuple(image))
    inverse_class = cyclic_tighten(tuple(reversed([_inv(t) for t in word])))
    assert cyclically_equal(once, inverse_class)
    status, t = periodic_class_status(f, word, t_max=4)
    assert (status, t) == ("recurrent", 2)


def _inv(token):
    return token[1:] if token.startswith("~") else "~" + token


def test_no_short_periodic_classes_on_realization(odd_instance):
    survey = periodic_class_survey(odd_instance.final, count=12, max_len=5, t_max=4)
    assert survey["recurrent"] == 0
    assert survey["words"] == 12


def test_report_json_shape(even_instance):
    data = even_instance.report.to_json()
    assert data["level"] == "full_theorem_62"
    assert data["primitivity"]["ok"] is True
    assert set(data["whitehead"]) == set(even_instance.graph.vertices)
    assert data["index_list"] == ["1", "1", "1", "1/2", "1/2"]
    assert data["inp"]["verdict"] == "none_found"


@pytest.mark.parametrize("tamper", ["map_final", "map_g", "legalizing"])
def test_tampered_document_loses_the_structural_route(tmp_path, tamper):
    """A document whose composed map is not g followed by h, or whose g
    does not legalize at the stored C, does not get the full certificate,
    whatever its stored legalizing verdict says."""
    doc = json.loads(json.dumps(realize(3, (1,)).to_json()))
    h = doc["map_h"]
    edits, note = {
        "map_final": ({"map_final": h}, "map_final is not map_g followed by map_h"),
        "map_g": ({"map_g": h}, "map_final is not map_g followed by map_h"),
        # consistent with g := h, so only re-verifying g can catch it
        "legalizing": (
            {"map_g": h, "map_final": {"factors": h["factors"] * 2}},
            "map_g is not legalizing at the stored C = 2",
        ),
    }[tamper]
    doc.update(edits)
    report = certify_realization(RealizationResult.from_json(doc))
    assert report.level != FULL_THEOREM
    assert note in report.notes
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert main(["certify", str(path)]) == 3


def test_relabelled_blueprint_loses_the_full_tier():
    """The full tier certifies the requested list: a rank 4 [1/2] document
    whose blueprint asks for [1] realizes the wrong list, and says so."""
    doc = json.loads(json.dumps(realize(4, (1,)).to_json()))
    doc["blueprint"]["entries_doubled"] = [2]
    report = certify_realization(RealizationResult.from_json(doc))
    assert report.index_list == (1,)
    assert report.level == CONDITIONAL
    assert "the realized index list is not the blueprint's" in report.notes


def test_documents_with_the_old_pi1_key_still_decode():
    doc = json.loads(json.dumps(realize(3, (1,)).to_json()))
    assert "pi1" not in doc
    doc["pi1"] = {"images": None, "note": "composed images hold 107381339 letters"}
    decoded = RealizationResult.from_json(doc)
    assert certify_realization(decoded).level == FULL_THEOREM
    assert "pi1" not in decoded.to_json()


def test_read_path_multiplies_no_matrices_and_decodes_each_factor_once(monkeypatch):
    calls = []
    matmul = TransitionMatrix.__matmul__

    def counted(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(TransitionMatrix, "__matmul__", counted)
    doc = realize(4, (1, 2)).to_json()
    del doc["report"]  # recomputed by certify, never read back
    text = json.dumps(doc, sort_keys=True)
    decoded = RealizationResult.from_json(json.loads(text))
    report = certify_realization(decoded)
    assert report.level == FULL_THEOREM
    assert calls == []

    final = decoded.final.factors
    instances = {id(f): f for f in final}
    assert len(instances) == len(set(final))
    shared = {f: f for f in final}
    for f in decoded.h.factors + decoded.g.factors:
        assert shared[f] is f
    for rec in decoded.mixing_factors:
        assert shared[rec.map] is rec.map
    assert json.dumps(decoded.to_json(), sort_keys=True) == text


def test_realize_verifies_its_legalizing_map_once(monkeypatch):
    """realize grades with the verdict its legalizing search has just
    derived; certify on a decoded document re-derives it, exactly once."""
    realize_module = importlib.import_module("ttrealize.realize")
    certify_module = importlib.import_module("ttrealize.certify")
    verify, search = certify_module.verify_legalizing, realize_module.build_legalizing_map
    calls, after_search = [], []

    def counted(*args, **kwargs):
        calls.append(1)
        return verify(*args, **kwargs)

    def searched(*args, **kwargs):
        out = search(*args, **kwargs)
        after_search.append(len(calls))
        return out

    for module in (realize_module, certify_module):
        monkeypatch.setattr(module, "verify_legalizing", counted)
    monkeypatch.setattr(realize_module, "build_legalizing_map", searched)
    result = realize(3, (1,))
    assert result.report.level == FULL_THEOREM
    assert calls and after_search == [len(calls)]
    calls.clear()
    decoded = RealizationResult.from_json(json.loads(json.dumps(result.to_json())))
    assert certify_realization(decoded).level == FULL_THEOREM
    assert len(calls) == 1


def test_realize_grades_as_certify_does_on_every_rank_3_and_4_list():
    """realize grades with the legalizing and train track verdicts it has
    just derived; certify re-derives both from the document alone, and the
    two reports agree."""
    lists = [(rank, lst) for rank in (3, 4) for lst in enumerate_admissible(rank)]
    assert len(lists) == 24
    for rank, lst in lists:
        result = realize(rank, lst)
        doc = result.to_json()
        decoded = RealizationResult.from_json(json.loads(json.dumps(doc)))
        assert result.report.to_json() == certify_realization(decoded).to_json()


def test_encoding_leaves_no_state_behind():
    """Within one document a repeated factor is one shared dict; a second
    call shares nothing with the first, so editing one document leaves the
    next one as it was."""
    result = realize(3, (1,))
    text = json.dumps(result.to_json())
    doc = result.to_json()
    shared = doc["mixing_factors"][0]["map"]
    assert doc["map_h"]["factors"][0] is shared
    shared["images"]["a1"].append("zz")
    assert doc["map_g"]["factors"][0]["images"]["a1"][-1] == "zz"
    again = result.to_json()
    assert json.dumps(again) == text
    assert again == json.loads(text)
