"""Command line front end: realize, certify, experiment, enumerate.

Exit codes: 0 success, 2 malformed input, 3 certification failure or an
exhausted search or budget, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certify import FULL_THEOREM, certify_realization
from .core import format_index_entry, format_index_list, parse_index_list
from .experiment import run_experiment
from .maps import ComparisonBudgetError
from .realize import (
    LegalizingSearchError,
    RealizationResult,
    SelectorError,
    enumerate_admissible,
    realize,
)
from .traintrack import VerificationBudgetError, count_long_turns


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttrealize",
        description=(
            "Realize admissible stable index lists by explicitly constructed"
            " fully irreducible free-group automorphisms, and certify the"
            " resulting train track maps."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_realize = sub.add_parser("realize", help="run the construction pipeline")
    p_realize.add_argument("--rank", type=int, required=True)
    p_realize.add_argument("--index-list", type=str, required=True,
                           help="comma separated entries 'k' or 'k/2'")
    p_realize.add_argument("--out", type=str, default=None)
    p_realize.add_argument("--format", choices=("json", "text"), default="json")

    p_certify = sub.add_parser("certify", help="re-certify a written realization")
    p_certify.add_argument("input", type=str, help="realization JSON document")
    p_certify.add_argument("--out", type=str, default=None)
    p_certify.add_argument("--format", choices=("json", "text"), default="json")

    p_exp = sub.add_parser("experiment", help="random positive compositions on a rose")
    p_exp.add_argument("--rank", type=int, required=True)
    p_exp.add_argument("--length", type=int, required=True)
    p_exp.add_argument("--samples", type=int, required=True)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", type=str, default=None)
    p_exp.add_argument("--format", choices=("json", "text"), default="json")

    p_enum = sub.add_parser("enumerate", help="list admissible index lists for a rank")
    p_enum.add_argument("--rank", type=int, required=True)
    p_enum.add_argument("--out", type=str, default=None)
    p_enum.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        print(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _run_realize(args) -> int:
    result = realize(args.rank, parse_index_list(args.index_list))
    if args.format == "json":
        _emit(json.dumps(result.to_json(), indent=2), args.out)
    else:
        _emit(_realization_summary(result), args.out)
    return 0 if result.report.level == FULL_THEOREM else 3


def _realization_summary(result) -> str:
    report = result.report
    lines = [
        f"rank {result.blueprint.rank}, case {result.blueprint.case}",
        f"requested index list {format_index_list(result.blueprint.index_list)}",
        f"realized index list  {format_index_list(report.index_list)}",
        f"certification level  {report.level}",
        f"legalizing C         {result.C}"
        f" ({count_long_turns(result.graph, result.gates, result.C)} long turns)",
    ]
    return "\n".join(lines)


def _run_certify(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 4
    except RecursionError:
        print("malformed realization document: JSON nested too deeply to parse", file=sys.stderr)
        return 2
    try:
        result = RealizationResult.from_json(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        print(f"malformed realization document: {exc!r}", file=sys.stderr)
        return 2
    report = certify_realization(result)
    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2), args.out)
    else:
        lines = [f"level {report.level}"] + [
            f"note: {n}" for n in report.notes
        ]
        _emit("\n".join(lines), args.out)
    return 0 if report.level == FULL_THEOREM else 3


def _run_experiment(args) -> int:
    table = run_experiment(args.rank, args.length, args.samples, args.seed)
    if args.format == "json":
        _emit(json.dumps(table.to_json(), indent=2), args.out)
    else:
        _emit(table.text_table(), args.out)
    return 0


def _run_enumerate(args) -> int:
    lists = enumerate_admissible(args.rank)
    if args.format == "json":
        payload = {
            "rank": args.rank,
            "count": len(lists),
            "lists": [[format_index_entry(d) for d in xs] for xs in lists],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit("\n".join(format_index_list(xs) for xs in lists), args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "realize":
            return _run_realize(args)
        if args.verb == "certify":
            return _run_certify(args)
        if args.verb == "experiment":
            return _run_experiment(args)
        if args.verb == "enumerate":
            return _run_enumerate(args)
        parser.error(f"unknown verb {args.verb!r}")
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (SelectorError, LegalizingSearchError, VerificationBudgetError, ComparisonBudgetError) as exc:
        print(f"search or budget exhausted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
