"""The benchmark's tracer still finds every package function it wraps.

``bench/tracing.install`` patches functions and methods by name, and the
benchmark workloads call ``cli.enumerate_admissible``; a rename in the
package would otherwise surface only in a benchmark run.  The benchmark
reads strip-search time and counters under the
``traintrack.find_periodic_inps`` span.  The traced run encodes,
decodes and certifies a realization and grades one experiment sample,
and the layers the benchmark's read side and experiment report must have
been entered, not only wrapped; the encode hook also reads ``final``'s
image lengths, and the materialize hook those of the one-factor chain
that ``MapChain.materialize`` returns.  The install runs in a subprocess
because it rebinds module globals for good.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import ttrealize
import ttrealize.cli
import ttrealize.experiment
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
assert len(ttrealize.cli.enumerate_admissible(3)) == 6
result = ttrealize.realize(3, (1,))
doc = json.loads(json.dumps(result.to_json()))
decoded = ttrealize.RealizationResult.from_json(doc)
assert ttrealize.certify_realization(decoded).level == "full_theorem_62"
sample = ttrealize.sample_positive_automorphism(3, 8, 1)
ttrealize.experiment.grade_sample(sample)
assert len(sample.materialize().factors) == 1
assert tracer.counters["realize.final_letters"] > 0
assert tracer.counters["maps.materialize.letters"] > 0
print(" ".join(f"{{name}}={{row['calls']}}" for name, row in sorted(tracer.layer_totals().items())))
"""

# layers the traced run above must enter
ENTERED = (
    "maps.lengths",
    "realize.to_json",
    "realize.from_json",
    "certify.certify_realization",
    "experiment.grade_sample",
    "maps.materialize",
)


def test_tracer_installs_on_the_package():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    calls = {name: int(n) for name, _, n in (item.partition("=") for item in run.stdout.split())}
    layers = set(calls)
    for layer in ENTERED:
        assert calls.get(layer, 0) > 0, (layer, calls)
    for layer in (
        "realize.select_paths",
        "realize.build_factors",
        "realize.build_legalizing_map",
        "traintrack.check_train_track_morphism",
        "traintrack.find_periodic_inps",
        "maps.lengths",
        "maps.matmul",
    ):
        assert layer in layers, sorted(layers)
