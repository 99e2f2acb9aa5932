"""Digests of every document, report and experiment table the package writes.

For each rank 3-8 admissible list, in ``enumerate_admissible`` order, the
running SHA-256 takes ``json.dumps`` of the realization document and then
``json.dumps`` of the ``certify`` report of that document decoded; the
digest is printed after each rank.  The last line is the SHA-256 of
``json.dumps(run_experiment(3, 26, 100, 7).canonical_json(), sort_keys=True)``.
Two trees whose lines agree write the same outputs; the rank-4 line is
``RANK_3_AND_4_OUTPUTS`` in ``tests/test_certify.py``.

Run from the repository root (the script puts its own ``src`` first):

    python3 scripts/output_digests.py
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ttrealize.certify import certify_realization  # noqa: E402
from ttrealize.experiment import run_experiment  # noqa: E402
from ttrealize.realize import RealizationResult, enumerate_admissible, realize  # noqa: E402


def main() -> None:
    digest = hashlib.sha256()
    for rank in range(3, 9):
        for entries in enumerate_admissible(rank):
            text = json.dumps(realize(rank, entries).to_json())
            report = certify_realization(RealizationResult.from_json(json.loads(text)))
            digest.update(text.encode())
            digest.update(json.dumps(report.to_json()).encode())
        print(f"ranks 3-{rank}: {digest.hexdigest()}", flush=True)
    table = run_experiment(3, 26, 100, 7).canonical_json()
    experiment = hashlib.sha256(json.dumps(table, sort_keys=True).encode())
    print(f"experiment 3/26/100 seed 7: {experiment.hexdigest()}")


if __name__ == "__main__":
    main()
