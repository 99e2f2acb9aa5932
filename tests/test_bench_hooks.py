"""The benchmark's tracer still finds every package function it wraps.

``bench/tracing.install`` patches functions and methods by name, and the
benchmark workloads call ``cli.enumerate_admissible``; a rename in the
package would otherwise surface only in a benchmark run.  The benchmark
reads strip-search time and counters under the
``traintrack.find_periodic_inps`` span.  The install runs in a
subprocess because it rebinds module globals for good.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import ttrealize
import ttrealize.cli
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
assert len(ttrealize.cli.enumerate_admissible(3)) == 6
ttrealize.realize(3, (1,))
print(" ".join(sorted(tracer.layer_totals())))
"""


def test_tracer_installs_on_the_package():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    layers = set(run.stdout.split())
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
