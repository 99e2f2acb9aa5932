"""Certification tiers, stable index lists, conjugacy-class cross-checks."""

import dataclasses
import hashlib
import importlib
import json
import pathlib

import pytest

from ttrealize.cli import main
from ttrealize.experiment import run_experiment
from ttrealize.maps import GraphMap, MapChain, MapError, TransitionMatrix, _ChainTable
from ttrealize.marking import build_marking, pi1_automorphism
from ttrealize.realize import (
    FactorRecord,
    RealizationResult,
    eligible_gate_turns,
    enumerate_admissible,
    realize,
    select_paths,
    stored_chains,
)
from ttrealize.traintrack import find_periodic_inps
from ttrealize.certify import (
    FAILED,
    FULL_THEOREM,
    certify_realization,
    expanding_power,
    stable_index_list,
)
from reference import (
    cyclic_tighten,
    cyclically_equal,
    identity_map,
    periodic_class_status,
    periodic_class_survey,
)


# A report's JSON keys, and three more that reports in older documents
# hold: no grade reads primitivity, Whitehead connectivity of final or a
# Nielsen-path search verdict.
REPORT_KEYS = {"level", "train_track", "legalizing_ok", "index_list", "notes"}
DROPPED_KEYS = {"primitivity", "whitehead", "inp"}


def fib(rose2):
    return GraphMap(rose2, {"a": ("a", "b"), "b": ("a",)})


def test_full_certificate_on_realization(even_instance):
    report = even_instance.report
    assert report.level == FULL_THEOREM
    assert report.train_track_ok and report.legalizing_ok
    for name in ("primitivity_ok", "primitivity_witness", "whitehead_connected", "inp", "inp_verdict"):
        assert not hasattr(report, name), name
    assert report.index_list == even_instance.blueprint.index_list
    # the theorem's conclusion, cross-checked by the bounded search
    inp = find_periodic_inps(even_instance.final, even_instance.gates)
    assert inp.verdict == "none_found"
    assert inp.period_bound == 8 and inp.length_bound == 200


def test_identity_second_factor_fails_certification(odd_instance):
    """Swapping the legalizers for one identity record loses the
    certificate: g = h∘id∘h does not legalize at the stored C."""
    identity = FactorRecord("identity", identity_map(odd_instance.graph))
    result = dataclasses.replace(odd_instance, legalizers=[identity], report=None)
    report = certify_realization(result)
    assert report.level == FAILED
    assert f"map_g is not legalizing at the stored C = {odd_instance.C}" in report.notes


def test_certification_level_monotone(odd_instance):
    """g legalizes at the realized C = 2 and not at C = 1."""
    downgraded = certify_realization(dataclasses.replace(odd_instance, C=odd_instance.C // 2))
    restored = certify_realization(odd_instance)
    assert (downgraded.level, restored.level) == (FAILED, FULL_THEOREM)
    assert f"map_g is not legalizing at the stored C = {odd_instance.C // 2}" in downgraded.notes
    assert not any(note.startswith("map_g") for note in restored.notes)


def test_index_sum_stays_in_admissible_region(even_instance, max_odd_instance):
    for inst in (even_instance, max_odd_instance):
        doubled_sum = sum(inst.report.index_list)
        assert doubled_sum <= 2 * (inst.blueprint.rank - 1)


def test_stable_index_list_fibonacci(rose2):
    doubled, caveat = stable_index_list(MapChain(rose2, [fib(rose2)]))
    assert doubled == (1,)
    assert caveat  # the search had to run on a power: coverage is thinned


def test_stable_index_list_on_realization(odd_instance):
    doubled, caveat = stable_index_list(odd_instance.final)
    assert doubled == odd_instance.blueprint.index_list
    assert not caveat


def test_stable_index_list_edge_permutation(rose2):
    swap = MapChain(rose2, [GraphMap(rose2, {"a": ("b",), "b": ("a",)})])
    doubled, caveat = stable_index_list(swap)
    assert caveat  # no positive power expands
    assert expanding_power(swap) is None


def test_stable_index_list_needs_train_track(rose2):
    unred = MapChain(rose2, [GraphMap(rose2, {"a": ("a", "b"), "b": ("~b",)})])
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
    status, t = periodic_class_status(MapChain(rose2, [f]), word, t_max=4)
    assert (status, t) == ("recurrent", 2)


def _inv(token):
    return token[1:] if token.startswith("~") else "~" + token


def test_no_short_periodic_classes_on_realization(odd_instance):
    survey = periodic_class_survey(odd_instance.final, count=12, max_len=5, t_max=4)
    assert survey["recurrent"] == 0
    assert survey["words"] == 12


def test_report_json_shape(even_instance):
    data = even_instance.report.to_json()
    assert list(data) == ["level", "train_track", "legalizing_ok", "index_list", "notes"]
    assert data["level"] == "full_theorem_62"
    assert data["train_track"] is True and data["legalizing_ok"] is True
    assert data["index_list"] == ["1", "1", "1", "1/2", "1/2"]
    decoded = RealizationResult.from_json(json.loads(json.dumps(even_instance.to_json())))
    assert certify_realization(decoded).to_json() == data
    # the search no report carries, cross-checked directly
    inp = find_periodic_inps(decoded.final, decoded.gates)
    assert inp.verdict == "none_found"
    assert inp.period_bound == 8 and inp.length_bound == 200


def with_factor_image(doc: dict, name: str, edge: str, word: list) -> dict:
    """The keys of ``doc`` that change when the record ``name`` sends
    ``edge`` to ``word`` in every copy: the record and each equal factor
    of the three chains.  ``doc`` itself is left as it was."""
    old = next(r["map"] for r in doc["mixing_factors"] + doc["legalizers"] if r["name"] == name)
    new = {"images": {**old["images"], edge: word}}
    edits = {
        key: [{**r, "map": new} if r["map"] == old else r for r in doc[key]]
        for key in ("mixing_factors", "legalizers")
    }
    for key in ("map_h", "map_g", "map_final"):
        edits[key] = {"factors": [new if f == old else f for f in doc[key]["factors"]]}
    return edits


@pytest.mark.parametrize("tamper", ["legalizing", "rank", "stamp", "gate_map", "unmixed"])
def test_tampered_document_loses_the_structural_route(tmp_path, tamper):
    """A document whose g does not legalize at the stored C, whose
    blueprint names another rank than its graph's, one of whose factors
    is not onto on pi_1, or whose mixing map is not positive, is graded
    failed, and its notes name the failed hypothesis.  Its report has the
    five keys every report has."""
    doc = json.loads(json.dumps(realize(3, (1,)).to_json()))
    mixing = [r for r in doc["mixing_factors"] if r["name"] != "link[d]"]
    stamped = next(r for r in mixing if r["name"] == "stamps")["map"]["images"]["a1"]
    edits, note = {
        # g legalizes at C = 2, not at half of it: only re-verifying g can tell
        "legalizing": (
            {"legalizing": {"C": 1}},
            "map_g is not legalizing at the stored C = 1",
        ),
        # the same odd case at rank 4, so only the rank itself differs
        "rank": (
            {"blueprint": {**doc["blueprint"], "rank": 4}},
            "the graph's rank is not the blueprint's",
        ),
        # a1 -> v_1 ... v_m a1 a1 is a train track morphism, but its image misses a1
        "stamp": (
            with_factor_image(doc, "stamps", "a1", stamped + ["a1"]),
            "factor stamps is not a homotopy equivalence",
        ),
        # c1 -> c1 a1 d sends ~c1 to ~d, and ~a1 to itself: h splits
        # the gate of the two, so it has no gate map and no Whitehead graphs
        "gate_map": (
            with_factor_image(doc, "link[c1]", "c1", ["c1", "a1", "d"]),
            "mixing Whitehead graph disconnected somewhere",
        ),
        # without link[d], h's matrix is not positive, and the notes say so
        "unmixed": (
            {"mixing_factors": mixing, **stored_chains(mixing, doc["legalizers"])},
            "mixing transition matrix is not positive",
        ),
    }[tamper]
    doc.update(edits)
    report = certify_realization(RealizationResult.from_json(doc))
    assert report.level == FAILED
    assert note in report.notes
    assert set(report.to_json()) == REPORT_KEYS
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert main(["certify", str(path)]) == 3


def test_a_tampered_image_keyed_by_no_edge_is_rejected(tmp_path, capsys):
    """An image keyed by a token that is not a positive edge of the graph,
    added to every copy of the first mixing factor, makes the document
    malformed: the decoder names the key, and certify exits 2."""
    doc = json.loads(json.dumps(realize(3, (1,)).to_json()))
    doc.update(with_factor_image(doc, doc["mixing_factors"][0]["name"], "zz", ["c1", "c1"]))
    with pytest.raises(MapError, match="^image for 'zz', not a positive edge"):
        RealizationResult.from_json(doc)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["certify", str(path)]) == 2
    assert "image for 'zz'" in capsys.readouterr().err


def test_relabelled_blueprint_loses_the_full_tier():
    """The full tier certifies the requested list: a rank 4 [1/2] document
    whose blueprint asks for [1] realizes the wrong list, and says so."""
    doc = json.loads(json.dumps(realize(4, (1,)).to_json()))
    doc["blueprint"]["entries_doubled"] = [2]
    report = certify_realization(RealizationResult.from_json(doc))
    assert report.index_list == (1,)
    assert report.level == FAILED
    assert "the realized index list is not the blueprint's" in report.notes


def test_documents_with_the_old_pi1_key_still_decode():
    doc = json.loads(json.dumps(realize(3, (1,)).to_json()))
    assert "pi1" not in doc
    doc["pi1"] = {"images": None, "note": "composed images hold 107381339 letters"}
    decoded = RealizationResult.from_json(doc)
    assert certify_realization(decoded).level == FULL_THEOREM
    assert "pi1" not in decoded.to_json()


# A rank 3 [1/2] document in the older format, which also stored the
# selected paths, the marking, the legalizing search log and the whole
# blueprint; the decoder ignores those keys.
OLD_FORMAT = pathlib.Path(__file__).parent / "data" / "realization_r3_half_v1.json"
IGNORED_KEYS = {"selectors", "marking", "search_log"}


def test_documents_in_the_older_format_decode_and_certify():
    """The older legalizing block also stored a verdict and two counters;
    only C is read, so junk values there change nothing.  The stored report
    also held the three keys no grade read; the rest is reproduced."""
    doc = json.loads(OLD_FORMAT.read_text())
    assert IGNORED_KEYS <= set(doc) and "germ_pairing" in doc["blueprint"]
    assert set(doc["report"]) == REPORT_KEYS | DROPPED_KEYS
    stored_report = {k: v for k, v in doc["report"].items() if k not in DROPPED_KEYS}
    junk = {**doc, "legalizing": {"C": 2, "checked": "abc", "families": [1], "verdict": 7}}
    for stored in (junk, doc):
        decoded = RealizationResult.from_json(stored)
        report = certify_realization(decoded)
        assert report.level == FULL_THEOREM
        assert report.to_json() == stored_report
        again = decoded.to_json()
        assert not IGNORED_KEYS & set(again)
        assert set(again["blueprint"]) == {"rank", "entries_doubled"}
        assert again["legalizing"] == {"C": 2}
    # the older records also stored an inverse, which is not read either
    for key in ("mixing_factors", "legalizers"):
        assert all(set(r) == {"name", "map", "inverse"} for r in doc[key])
        assert all(set(r) == {"name", "map"} for r in again[key])


@pytest.mark.parametrize("entries", [(1,), (2,), (3,)], ids=["odd", "even", "max_odd"])
def test_documents_with_one_record_per_stamp_still_certify(entries):
    """Older documents stored one stamp record a1 -> v a1 per eligible gate
    turn where today's store their product as one ``stamps`` record; split
    back, with the chains re-spelled, a document certifies to the same
    report, byte for byte."""
    result = realize(3, entries)
    graph, gates, bp = result.graph, result.gates, result.blueprint
    doc = json.loads(json.dumps(result.to_json()))
    sel = select_paths(graph, gates, bp)
    split = [r for r in doc["mixing_factors"] if r["name"] != "stamps"] + [
        FactorRecord(
            f"stamp[{a},{b}]", GraphMap.from_updates(graph, {"a1": sel["witness", (a, b)] + ("a1",)})
        ).to_json()
        for a, b in eligible_gate_turns(graph, gates, bp)
    ]
    assert len(split) > len(doc["mixing_factors"])
    old = {**doc, "mixing_factors": split, **stored_chains(split, doc["legalizers"])}
    merged_report = json.dumps(certify_realization(RealizationResult.from_json(doc)).to_json())
    split_report = json.dumps(certify_realization(RealizationResult.from_json(old)).to_json())
    assert split_report == merged_report == json.dumps(doc["report"])


def test_the_document_stores_only_what_the_decoder_reads():
    """Each stored key but the report, and each key of a factor record, is
    read: without it the decoder raises."""
    doc = realize(3, (1,)).to_json()
    paths = [(k,) for k in doc if k != "report"] + [("blueprint", k) for k in doc["blueprint"]]
    paths += [(key, 0, k) for key in ("mixing_factors", "legalizers") for k in doc[key][0]]
    unread = []
    for *parents, key in paths:
        broken = json.loads(json.dumps(doc))
        target = broken
        for name in parents:
            target = target[name]
        del target[key]
        try:
            RealizationResult.from_json(broken)
        except KeyError:
            continue
        unread.append("/".join(map(str, parents + [key])))
    assert unread == []


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


def recorded_builds(monkeypatch) -> list:
    """Every chain table built from here on, in build order."""
    built = []
    build = _ChainTable.build

    def recorded(table):
        if table.kids is None:
            built.append(table)
        build(table)

    monkeypatch.setattr(_ChainTable, "build", recorded)
    return built


def assert_one_table_per_block(result, built) -> None:
    """final runs g's passes and then h's own, g opens and closes with h's
    tables, and the only tables built are one per distinct block."""
    h, g, final = result.h, result.g, result.final
    assert len(h.blocks) == 2 and h.blocks[0] is h.blocks[1]
    assert all(a is b for a, b in zip(g.blocks[:2] + g.blocks[3:5], h.blocks * 2))
    assert all(a is b for a, b in zip(final.blocks, g.blocks + h.blocks))
    assert len(final.blocks) == len(g.blocks) + len(h.blocks)
    assert all(a is b for a, b in zip(final._passes[-2:], h._passes))
    blocks = {id(t) for t in final.blocks}
    assert [id(t) for t in built] == list(dict.fromkeys(id(t) for t in built))
    assert {id(t) for t in built} == blocks


def test_realize_builds_one_table_per_distinct_block(monkeypatch):
    built = recorded_builds(monkeypatch)
    result = realize(5, (2, 1, 1))
    assert result.report.level == FULL_THEOREM
    assert_one_table_per_block(result, built)
    # every query on final reads the tables h and g built
    count = len(built)
    result.final.crossed_turns, result.final.image_length("a1"), result.final.direction("c1")
    assert len(built) == count


def test_decoding_rebuilds_the_shared_blocks(monkeypatch):
    built = recorded_builds(monkeypatch)
    decoded = RealizationResult.from_json(json.loads(OLD_FORMAT.read_text()))
    assert certify_realization(decoded).level == FULL_THEOREM
    assert_one_table_per_block(decoded, built)


@pytest.mark.parametrize("case", [
    "map_h", "map_g", "map_final", "map_g-is-h", "map_final-is-h",
    "empty-legalizers", "empty-mixing_factors",
])
def test_a_stored_chain_that_is_not_its_records_shape_is_rejected(tmp_path, capsys, case):
    """map_h, map_g and map_final are the chains the records make (H H,
    H H L H H and H H L H H H H), and each record list is nonempty: any
    other document is malformed, so the decoder names the key and certify
    exits 2."""
    doc = json.loads(json.dumps(realize(3, (1,)).to_json()))
    h, g = doc["map_h"]["factors"], doc["map_g"]["factors"]
    legalizers = [r["map"] for r in doc["legalizers"]]
    key, edits = {
        # the right factors in the wrong order
        "map_h": ("map_h", {"map_h": {"factors": h[::-1]}}),
        "map_g": ("map_g", {"map_g": {"factors": legalizers + h + h}}),
        "map_final": ("map_final", {"map_final": {"factors": h + g}}),
        # a chain of another length
        "map_g-is-h": ("map_g", {"map_g": doc["map_h"]}),
        "map_final-is-h": ("map_final", {"map_final": doc["map_h"]}),
        "empty-legalizers": ("legalizers", {"legalizers": []}),
        "empty-mixing_factors": ("mixing_factors", {"mixing_factors": []}),
    }[case]
    doc.update(edits)
    with pytest.raises(ValueError, match=f"^{key} is "):
        RealizationResult.from_json(doc)
    path = tmp_path / "reshaped.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["certify", str(path)]) == 2
    assert f"{key} is " in capsys.readouterr().err


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


# SHA-256 of json.dumps of each rank 3-4 document and then its certify
# report, in enumeration order.  A change that alters outputs on purpose
# updates it and says why.
RANK_3_AND_4_OUTPUTS = "33e9d133efe3425d957863dec4703a28cf783bf70c99c6b82394121a3c204bcf"


def test_realize_grades_as_certify_does_on_every_rank_3_and_4_list():
    """realize and certify grade through one function, realize with the
    legalizing verdict its ladder has just derived and certify with the one
    it re-derives from the document alone, and the two reports agree.  The
    documents and reports are the pinned ones."""
    lists = [(rank, lst) for rank in (3, 4) for lst in enumerate_admissible(rank)]
    assert len(lists) == 24
    digest = hashlib.sha256()
    for rank, lst in lists:
        result = realize(rank, lst)
        text = json.dumps(result.to_json())
        report = certify_realization(RealizationResult.from_json(json.loads(text))).to_json()
        assert result.report.to_json() == report
        digest.update(text.encode())
        digest.update(json.dumps(report).encode())
    assert digest.hexdigest() == RANK_3_AND_4_OUTPUTS


# SHA-256 of json.dumps(run_experiment(3, 26, 100, 7).canonical_json(),
# sort_keys=True), the last line of scripts/output_digests.py.
EXPERIMENT_3_26_100_SEED_7 = "98129c04daf2e6fee46b81c6d4da4ea3265d784fb0380f88b7cab0309cad93d9"


def test_experiment_table_is_the_pinned_one():
    table = run_experiment(3, 26, 100, 7).canonical_json()
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()
    assert digest == EXPERIMENT_3_26_100_SEED_7


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


def onto_by_bouquet_fold(words: dict) -> bool:
    """Whether ``words`` (generator -> reduced word) generate the free group
    on their keys: fold the loops they spell on one vertex, Stallings'
    way, and ask for the rose with every generator."""
    edges, fresh = [], 1
    for word in words.values():
        x = 0
        for k, t in enumerate(word):
            y = 0 if k == len(word) - 1 else fresh
            fresh += y != 0
            edges += [(x, t, y), (y, _inv(t), x)]
            x = y
    parent = list(range(fresh))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    merged = True
    while merged:
        merged, out = False, {}
        for x, t, y in edges:
            z = out.setdefault((find(x), t), find(y))
            if find(z) != find(y):
                parent[find(y)] = find(z)
                merged = True
    root = find(0)
    return all(find(x) == root for x in range(fresh)) and all((root, g) in out for g in words)


def one_letter_edits(word: list, tokens) -> list:
    """The distinct words one insertion, deletion or substitution away."""
    edits = [word[:k] + [t] + word[k:] for k in range(len(word) + 1) for t in tokens]
    edits += [word[:k] + word[k + 1:] for k in range(len(word))]
    edits += [word[:k] + [t] + word[k + 1:] for k in range(len(word)) for t in tokens if t != word[k]]
    return [list(w) for w in dict.fromkeys(map(tuple, edits))]


@pytest.mark.parametrize("entries", [(1,), (1, 1), (2, 1)], ids=["odd", "even", "max_odd"])
def test_one_letter_edits_of_a_factor_keep_the_full_tier_only_when_onto(entries):
    """Each one-letter edit of a moved image of a record, made in every copy,
    is rejected by the decoder, graded below the full tier, or graded full
    with every factor of final onto on pi_1 by an oracle of its own: the
    marking's induced endomorphism, folded on a bouquet.  Certify never
    raises."""
    doc = json.loads(json.dumps(realize(3, entries).to_json()))
    tokens = RealizationResult.from_json(doc).graph.directed_edges
    oracle: dict = {}
    outcomes = {"decoder raises": 0, "below full": 0, "full": 0}
    survivors, raised = [], []
    for record in doc["mixing_factors"] + doc["legalizers"]:
        for edge, word in record["map"]["images"].items():
            if word == [edge]:
                continue
            for edited in one_letter_edits(word, tokens):
                mutant = {**doc, **with_factor_image(doc, record["name"], edge, edited)}
                try:
                    decoded = RealizationResult.from_json(mutant)
                except ValueError:
                    outcomes["decoder raises"] += 1
                    continue
                try:
                    level = certify_realization(decoded).level
                except MapError as exc:
                    raised.append((record["name"], edge, edited, str(exc)))
                    continue
                if level != FULL_THEOREM:
                    outcomes["below full"] += 1
                    continue
                outcomes["full"] += 1
                for f in set(decoded.final.factors):
                    if f not in oracle:
                        oracle[f] = onto_by_bouquet_fold(pi1_automorphism(f, build_marking(f.graph)))
                    if not oracle[f]:
                        survivors.append((record["name"], edge, edited))
    assert (len(survivors), len(raised)) == (0, 0), (survivors, raised)
    # the subset reaches both sides of the full tier
    assert outcomes["below full"] and outcomes["full"], outcomes
