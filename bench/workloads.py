"""The three workloads: their inputs, their ops and the checks on each op.

Every run works through the workload's whole input set in whole rounds,
as many as it takes for the timed ops to fill the requested seconds.
Op cost is heavy-tailed, so a time-boxed run would stop at a different
op mix each time.
"""

from __future__ import annotations

import gc
import importlib
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field

import checks

clock = time.perf_counter

# Set-up is repeated this many times per run (import and input generation)
# and its median reported.
SETUP_REPEATS = 5

SWEEP_RANKS = (3, 4, 5, 6)
SWEEP_LISTS = 164

# recertify-r7-8 draws one list per stratum: (rank, doubled index sum,
# number of entries, largest entry).  The sums give the odd, even and
# maximal-odd constructions at both ranks.  Lists of one stratum build
# graphs of the same size with the same largest gate, so their chains
# have nearly the same length and the draw's cost hardly depends on the
# seed; each stratum holds two to five lists.
RECERTIFY_STRATA = (
    (7, 9, 4, 3), (7, 9, 5, 3), (7, 10, 4, 4), (7, 10, 5, 4), (7, 11, 4, 4), (7, 11, 5, 3),
    (8, 11, 4, 4), (8, 11, 5, 3), (8, 12, 4, 5), (8, 12, 5, 4), (8, 13, 4, 5), (8, 13, 5, 5),
)

# experiment 3/26/100: the master seed stays fixed, whatever --seed says,
# because every sample of it is graded by the fault in grade_sample and
# the failed share must not depend on the seed.
EXPERIMENT_RANK = 3
EXPERIMENT_LENGTH = 26
EXPERIMENT_SAMPLES = 100
EXPERIMENT_SEED = 7


@dataclass
class Tally:
    """Per-run totals across rounds."""

    op_seconds: list[float] = field(default_factory=list)
    doc_bytes: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, seconds: float, failed: bool = False) -> None:
        self.attempted += 1
        self.op_seconds.append(seconds)
        self.failed += failed


def import_package():
    """A fresh import of the package and the modules the workloads call."""
    for name in [n for n in sys.modules if n.split(".")[0] == "ttrealize"]:
        del sys.modules[name]
    api = importlib.import_module("ttrealize")
    importlib.import_module("ttrealize.cli")
    return api


def module(name: str):
    return sys.modules["ttrealize." + name]


# -- sweep-r3-6 ---------------------------------------------------------------


def sweep_inputs(seed: int) -> list[tuple[int, tuple[int, ...]]]:
    enumerate_admissible = module("cli").enumerate_admissible
    inputs = [(rank, lst) for rank in SWEEP_RANKS for lst in enumerate_admissible(rank)]
    if len(inputs) != SWEEP_LISTS:
        raise RuntimeError(f"ranks 3-6 have {SWEEP_LISTS} admissible lists, enumeration gave {len(inputs)}")
    return inputs


def sweep_round(api, inputs, tally: Tally, tracer) -> None:
    for op, (rank, lst) in enumerate(inputs):
        if tracer:
            tracer.op = op
        start = clock()
        result = api.realize(rank, lst)
        text = json.dumps(result.to_json())
        tally.record(clock() - start)
        tally.doc_bytes.append(len(text))
        if tracer:
            tracer.count("realize.doc_bytes", len(text))
        doc = json.loads(text)
        report = doc["report"]
        realized = tuple(checks.doubled_entry(x) for x in report["index_list"])
        for p in checks.check_realization(doc, rank, lst, report["level"], realized):
            tally.problems.append(f"rank {rank} {lst}: {p}")


# -- recertify-r7-8 -------------------------------------------------------------


def recertify_inputs(seed: int) -> list[tuple[int, tuple[int, ...]]]:
    enumerate_admissible = module("cli").enumerate_admissible
    rng = random.Random(seed)
    by_rank = {rank: enumerate_admissible(rank) for rank, *_ in RECERTIFY_STRATA}
    draw = []
    for rank, total, length, largest in RECERTIFY_STRATA:
        stratum = [
            lst for lst in by_rank[rank]
            if (sum(lst), len(lst), max(lst)) == (total, length, largest)
        ]
        draw.append((rank, rng.choice(stratum)))
    return draw


def recertify_documents(api, inputs, tracer) -> list[str]:
    """Realize and encode each drawn list with the code under test."""
    texts = []
    for rank, lst in inputs:
        text = json.dumps(api.realize(rank, lst).to_json())
        if tracer:
            tracer.count("realize.doc_bytes", len(text))
        texts.append(text)
    return texts


def recertify_round(api, inputs, texts, tally: Tally, tracer) -> None:
    for op, ((rank, lst), text) in enumerate(zip(inputs, texts)):
        if tracer:
            tracer.op = op
        start = clock()
        doc = json.loads(text)
        result = api.RealizationResult.from_json(doc)
        report = api.certify_realization(result)
        tally.record(clock() - start)
        tally.doc_bytes.append(len(text))
        if tracer:
            tracer.count("realize.doc_bytes", len(text))
        for p in checks.check_realization(doc, rank, lst, report.level, report.index_list):
            tally.problems.append(f"rank {rank} {lst}: {p}")


# -- experiment-r3 --------------------------------------------------------------


def experiment_inputs(seed: int) -> list[int]:
    """run_experiment's per-sample seeds for the fixed master seed."""
    return [EXPERIMENT_SEED * 1_000_003 + i for i in range(EXPERIMENT_SAMPLES)]


def experiment_round(api, inputs, tally: Tally, tracer) -> None:
    experiment = module("experiment")
    table = experiment.FrequencyTable(
        rank=EXPERIMENT_RANK, length=EXPERIMENT_LENGTH, samples=len(inputs), seed=EXPERIMENT_SEED
    )
    for op, sample_seed in enumerate(inputs):
        if tracer:
            tracer.op = op
        start = clock()
        chain = api.sample_positive_automorphism(EXPERIMENT_RANK, EXPERIMENT_LENGTH, sample_seed)
        grade = experiment.grade_sample(chain)
        seconds = clock() - start
        tally.record(seconds, failed=checks.breaks_index_sum(grade.category, grade.index_list, EXPERIMENT_RANK))
        factors = [f.to_json() for f in chain.factors]
        for p in checks.check_sample(factors, grade.category, grade.index_list, grade.primitive):
            tally.problems.append(f"sample {sample_seed}: {p}")
        table.categories[grade.category] = table.categories.get(grade.category, 0) + 1
        if grade.category == checks.CONDITIONAL_IWIP:
            key = module("core").format_index_list(grade.index_list)
            table.list_counts[key] = table.list_counts.get(key, 0) + 1
    if sum(table.categories.values()) != len(inputs):
        tally.problems.append(f"category counts sum to {sum(table.categories.values())}, not {len(inputs)}")
    tally.doc_bytes.append(len(json.dumps(table.to_json())))


# -- one run ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, tracer_factory=None) -> dict:
    """Set up, run whole rounds, and return the run's figures."""
    make_inputs = {
        "sweep-r3-6": sweep_inputs,
        "recertify-r7-8": recertify_inputs,
        "experiment-r3": experiment_inputs,
    }[workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        api = import_package()
        inputs = make_inputs(seed)
        setups.append(clock() - start)
    setup_s = statistics.median(setups)

    tracer = tracer_factory() if tracer_factory else None
    texts = None
    if workload == "recertify-r7-8":
        start = clock()
        texts = recertify_documents(api, inputs, tracer)
        setup_s += clock() - start
    gc.collect()

    tally = Tally()
    while True:
        if workload == "sweep-r3-6":
            sweep_round(api, inputs, tally, tracer)
        elif workload == "recertify-r7-8":
            recertify_round(api, inputs, texts, tally, tracer)
        else:
            experiment_round(api, inputs, tally, tracer)
        if sum(tally.op_seconds) >= seconds:
            break
    return {"setup_s": setup_s, "tally": tally, "tracer": tracer}
