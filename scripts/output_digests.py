"""Digests of every document, report and experiment table the package writes.

For each admissible list of each rank, in ``enumerate_admissible`` order,
the running SHA-256 takes ``json.dumps`` of the realization document and
then ``json.dumps`` of the ``certify`` report of that document decoded;
the digest is printed after each rank.  With no argument the ranks are
3-8, and the last line is the SHA-256 of
``json.dumps(run_experiment(3, 26, 100, 7).canonical_json(), sort_keys=True)``.
Two trees whose lines agree write the same outputs; the rank-4 line is
``RANK_3_AND_4_OUTPUTS`` in ``tests/test_certify.py``.

``--ranks A-B`` digests ranks A to B instead, with no experiment line;
after each rank's digest it prints that rank's list count, the count per
certification level, the time and the largest document.

``--reports`` digests the ``certify`` reports alone, so a change that
alters documents but not reports shows equal lines on both trees.

Run from the repository root (the script puts its own ``src`` first):

    python3 scripts/output_digests.py
    python3 scripts/output_digests.py --ranks 9-12
    python3 scripts/output_digests.py --reports
"""

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ttrealize.certify import certify_realization  # noqa: E402
from ttrealize.experiment import run_experiment  # noqa: E402
from ttrealize.realize import RealizationResult, enumerate_admissible, realize  # noqa: E402


def rank_range(text: str) -> range:
    """``"A-B"`` (or ``"A"``) as the ranks A to B, each at least 3."""
    low, _, high = text.partition("-")
    try:
        ranks = range(int(low), int(high or low) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not ranks or ranks.start < 3:
        raise argparse.ArgumentTypeError(f"expected 3 <= A <= B, got {text!r}")
    return ranks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ranks", type=rank_range, default=None,
                        help="digest ranks A-B only, with per-rank counts and times")
    parser.add_argument("--reports", action="store_true",
                        help="digest the certify reports only, not the documents")
    args = parser.parse_args()
    ranks = args.ranks or range(3, 9)
    digest = hashlib.sha256()
    for rank in ranks:
        started, levels, largest = time.perf_counter(), Counter(), 0
        for entries in enumerate_admissible(rank):
            text = json.dumps(realize(rank, entries).to_json())
            report = certify_realization(RealizationResult.from_json(json.loads(text)))
            if not args.reports:
                digest.update(text.encode())
            digest.update(json.dumps(report.to_json()).encode())
            levels[report.level] += 1
            largest = max(largest, len(text))
        label = "reports of ranks" if args.reports else "ranks"
        print(f"{label} {ranks.start}-{rank}: {digest.hexdigest()}", flush=True)
        if args.ranks:
            counts = ", ".join(f"{level} {n}" for level, n in sorted(levels.items()))
            print(
                f"  rank {rank}: {sum(levels.values())} lists ({counts}),"
                f" {time.perf_counter() - started:.1f} s, largest document {largest / 1000:.0f} kB",
                flush=True,
            )
    if args.ranks:
        return
    table = run_experiment(3, 26, 100, 7).canonical_json()
    experiment = hashlib.sha256(json.dumps(table, sort_keys=True).encode())
    print(f"experiment 3/26/100 seed 7: {experiment.hexdigest()}")


if __name__ == "__main__":
    main()
