"""Command line contract: verbs, exit codes, round trips, enumeration."""

import importlib
import json

import pytest

from ttrealize.cli import enumerate_admissible, main
from ttrealize.maps import ComparisonBudgetError
from ttrealize.realize import LegalizingSearchError, SelectorError
from ttrealize.traintrack import VerificationBudgetError
from tests.test_certify import DROPPED_KEYS, OLD_FORMAT


def test_enumerate_rank_three_lists():
    lists = enumerate_admissible(3)
    formatted = {tuple(xs) for xs in lists}
    assert formatted == {
        (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
    }
    assert len(lists) == 6


def test_enumerate_matches_partition_oracle():
    """Independent oracle: partition counts via a generating-set recursion
    that shares no code with the implementation."""

    def partition_count(n: int) -> int:
        table = [1] + [0] * n
        for part in range(1, n + 1):
            for total in range(part, n + 1):
                table[total] += table[total - part]
        return table[n]

    for rank in range(3, 9):
        expected = sum(partition_count(total) for total in range(1, 2 * rank - 2))
        assert len(enumerate_admissible(rank)) == expected


def test_realize_certify_round_trip(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main([
        "realize", "--rank", "3", "--index-list", "1/2", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["report"]["level"] == "full_theorem_62"
    assert data["report"]["index_list"] == ["1/2"]

    report_path = tmp_path / "report.json"
    code = main(["certify", str(out), "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report == data["report"]

    # a document may name its format, version 1
    out.write_text(json.dumps({"version": 1, **data}))
    assert main(["certify", str(out)]) == 0


def test_certify_reads_a_document_in_the_older_format(tmp_path):
    """A document that still stores the selected paths, the marking and the
    search log certifies to its stored report, less the keys no grade reads."""
    report_path = tmp_path / "report.json"
    assert main(["certify", str(OLD_FORMAT), "--out", str(report_path)]) == 0
    stored = json.loads(OLD_FORMAT.read_text())["report"]
    assert DROPPED_KEYS <= set(stored)
    expected = {k: v for k, v in stored.items() if k not in DROPPED_KEYS}
    assert json.loads(report_path.read_text()) == expected


def test_realize_rejects_out_of_range_input(capsys):
    code = main(["realize", "--rank", "3", "--index-list", "2"])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err


def test_malformed_flags_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["realize", "--rank", "three", "--index-list", "1/2"])
    assert info.value.code == 2


def test_certify_missing_file_exits_four(tmp_path):
    code = main(["certify", str(tmp_path / "nope.json")])
    assert code == 4


def test_certify_a_too_deeply_nested_document_exits_two(tmp_path, capsys):
    """JSON nested deeper than the parser's recursion limit is a malformed
    document: one line and exit 2, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    assert main(["certify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("malformed realization document") and err.count("\n") == 1, err


def test_experiment_text_output(tmp_path):
    out = tmp_path / "table.txt"
    code = main([
        "experiment", "--rank", "3", "--length", "6", "--samples", "5",
        "--seed", "3", "--format", "text", "--out", str(out),
    ])
    assert code == 0
    assert "category counts" in out.read_text()


def test_experiment_json_is_reproducible(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    args = ["experiment", "--rank", "3", "--length", "6", "--samples", "5", "--seed", "3"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    one = json.loads(first.read_text())
    two = json.loads(second.read_text())
    assert one["table"] == two["table"]


def test_realize_text_format(capsys):
    code = main(["realize", "--rank", "3", "--index-list", "1/2", "--format", "text"])
    assert code == 0
    text = capsys.readouterr().out
    assert "certification level" in text
    assert "full_theorem_62" in text
    lines = text.splitlines()
    assert "legalizing C         2 (240 long turns)" in lines
    # no grade reads primitivity or runs the search, so neither is printed
    assert not any(line.startswith(("primitivity witness", "nielsen path search")) for line in lines)


def test_enumerate_text_and_json(tmp_path, capsys):
    assert main(["enumerate", "--rank", "3", "--format", "text"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 6
    out = tmp_path / "lists.json"
    assert main(["enumerate", "--rank", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == len(payload["lists"]) == 18


@pytest.mark.parametrize("argv", [
    ["realize", "--rank", "3", "--index-list", "1/2", "--inp-period-bound", "8"],
    ["realize", "--rank", "3", "--index-list", "1/2", "--inp-length-bound", "200"],
    ["realize", "--rank", "3", "--index-list", "1/2", "--legalizing-cmax", "64"],
    ["realize", "--rank", "3", "--index-list", "1/2", "--max-rounds", "32"],
    ["certify", "result.json", "--inp-period-bound", "8"],
    ["certify", "result.json", "--inp-length-bound", "200"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_search_bound_flags_are_gone(capsys, argv):
    """The search bounds are fixed: a command line that still sets one is
    rejected by argparse with exit 2, before any work is done."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("length, samples, message", [
    pytest.param("5", "-2", "samples must be at least 0, got -2", id="negative_samples"),
    pytest.param("0", "0", "length must be at least 1, got 0", id="zero_length"),
    pytest.param("-4", "1", "length must be at least 1, got -4", id="negative_length"),
])
def test_experiment_out_of_range_exits_two(capsys, length, samples, message):
    """A sample count below 0 or a length below 1 is rejected before any
    sampling, with exit 2 and the range it missed."""
    code = main(["experiment", "--rank", "3", "--length", length, "--samples", samples])
    assert code == 2
    assert capsys.readouterr().err == f"invalid input: {message}\n"


def test_realize_rejects_an_empty_index_entry(capsys):
    code = main(["realize", "--rank", "3", "--index-list", "1/2,,"])
    assert code == 2
    assert "empty index entry at position 2" in capsys.readouterr().err


@pytest.mark.parametrize("module, name, error", [
    ("ttrealize.realize", "select_paths", SelectorError),
    ("ttrealize.realize", "build_legalizing_map", LegalizingSearchError),
    ("ttrealize.realize", "verify_legalizing", VerificationBudgetError),
    ("ttrealize.traintrack", "compare_image_words", ComparisonBudgetError),
])
def test_exhausted_search_or_budget_exits_three(monkeypatch, capsys, module, name, error):
    """Each search or budget that can run out ends in exit 3 and one line."""

    def exhausted(*args, **kwargs):
        raise error("planted exhaustion")

    monkeypatch.setattr(importlib.import_module(module), name, exhausted)
    assert main(["realize", "--rank", "3", "--index-list", "1/2"]) == 3
    err = capsys.readouterr().err
    assert err == f"search or budget exhausted: {error.__name__}: planted exhaustion\n"


def _break_images(doc):
    doc["mixing_factors"][0]["map"]["images"] = list(doc["mixing_factors"][0]["map"]["images"].items())


def _set_c(value):
    def edit(doc):
        doc["legalizing"]["C"] = value
    return edit


def _drop_gates(doc):
    del doc["gates"]


def _set_blueprint(key, value):
    def edit(doc):
        doc["blueprint"][key] = value
    return edit


def _set_version(value):
    def edit(doc):
        doc["version"] = value
    return edit


# rank, each doubled entry and C are JSON integers: a float, a boolean or a
# string that Python would coerce to one is malformed too.  A version other
# than 1 names a format this decoder does not read.
@pytest.mark.parametrize(
    "edit",
    [_break_images, _set_c("2"), _set_c(None), _set_c(10**9), _drop_gates,
     _set_blueprint("entries_doubled", [1.7]), _set_blueprint("entries_doubled", [True]),
     _set_blueprint("entries_doubled", ["1"]), _set_blueprint("rank", 3.0), _set_c(True),
     _set_c(0), _set_c(-3), _set_version(99), _set_version(True), _set_version(1.0)],
    ids=["images-list", "C-string", "C-null", "C-over-cap", "missing-key",
         "entry-float", "entry-bool", "entry-string", "rank-float", "C-bool",
         "C-zero", "C-negative", "version-99", "version-bool", "version-float"],
)
def test_malformed_document_exits_two(tmp_path, capsys, edit):
    out = tmp_path / "result.json"
    assert main(["realize", "--rank", "3", "--index-list", "1/2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    edit(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["certify", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("malformed realization document"), err
