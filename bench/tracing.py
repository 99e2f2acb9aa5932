"""Spans and counters recorded around the package's public functions.

The tracer wraps functions from outside the package: every module of
``ttrealize`` that holds a wrapped function under some name gets the
wrapper under that name, so calls between modules are caught too.  A
span is (layer name, start, end, parent span, op id, outermost); spans
and counters stay in memory until ``write`` puts them in one JSON file.
``core`` is left unwrapped: its calls are smaller than a wrapper, so
their time lands in the callers' self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Metrics reported by a traced run, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    "traintrack.find_periodic_inps.calls",
    "traintrack.find_periodic_inps.self_s",
    "traintrack.strip_steps",
    "traintrack.strip_window_letters",
    "maps.compare_image_words.calls",
    "maps.compare_image_words.s",
    "maps.compare_image_words.prefix_bits",
    "maps.image_window.calls",
    "maps.image_window.s",
    "maps.image_window.letters",
    "maps.lengths.builds",
    "maps.lengths.s",
    "maps.materialize.calls",
    "maps.materialize.s",
    "maps.materialize.letters",
    "maps.matmul.calls",
    "maps.matmul.s",
    "certify.expanding_power.s",
    "traintrack.verify_legalizing.calls",
    "traintrack.verify_legalizing.s",
    "traintrack.verify_legalizing.families",
    "traintrack.verify_legalizing.long_turns",
    "realize.build_legalizing_map.s",
    "realize.legalizing_rounds",
    "realize.g_factors",
    "realize.select_paths.s",
    "realize.build_factors.s",
    "traintrack.check_train_track_morphism.s",
    "traintrack.whitehead_graphs.s",
    "traintrack.intrinsic_gate_structure.s",
    "certify.certify_realization.s",
    "realize.to_json.s",
    "realize.from_json.s",
    "realize.doc_bytes",
    "realize.final_letters",
    "marking.build_marking.s",
    "marking.pi1_automorphism.calls",
    "experiment.sample.s",
    "experiment.grade_sample.s",
)

STRIP_SEARCH = "traintrack.find_periodic_inps"

# A metric named after what it counts, read from a layer's span total.
SPAN_ALIASES = {"maps.lengths.builds": "maps.lengths.calls"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self.counters: Counter = Counter()
        self.op: int | str = "setup"
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def under(self, layer: str) -> bool:
        """True while a span of ``layer`` is open."""
        return self._active[layer] > 0

    def wrap(self, layer: str, fn, after=None, skip=None):
        """``fn`` inside a span; ``after(result, args)`` records counters.

        ``skip(args)`` true means the call is passed through untraced
        (used for cache hits that do no work).
        """
        if layer not in self._name_ids:
            self._name_ids[layer] = len(self.names)
            self.names.append(layer)
        name_id = self._name_ids[layer]
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            outermost = active[layer] == 0
            active[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[layer] -= 1
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op, outermost)
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch_function(self, module, attr: str, layer: str, after=None) -> None:
        """Replace ``module.attr`` in every package module that binds it."""
        original = getattr(module, attr)
        traced = self.wrap(layer, original, after)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "ttrealize" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, layer: str, after=None, skip=None) -> None:
        setattr(cls, attr, self.wrap(layer, getattr(cls, attr), after, skip))

    # -- reading the trace ---------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive seconds (outermost spans) and self seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent, _, _ = span
            if parent >= 0:
                child_time[parent] += end - start
        totals = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        for index, (name_id, start, end, _, _, outermost) in enumerate(self.spans):
            row = totals[self.names[name_id]]
            row["calls"] += 1
            if outermost:
                row["s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return totals

    def metrics(self) -> dict[str, float]:
        totals = self.layer_totals()
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            layer, _, field = SPAN_ALIASES.get(metric, metric).rpartition(".")
            if layer in totals and field in totals[layer]:
                value = totals[layer][field]
            else:
                value = self.counters.get(metric, 0)
            # image lengths outgrow 64-bit integers; JSON readers take floats
            out[metric] = float(value) if value > 2**53 else value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "span_fields": ["layer", "start", "end", "parent", "op", "outermost"],
                    "layers": self.names,
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "totals": self.layer_totals(),
                },
                fh,
            )


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each module of the package."""
    maps = sys.modules["ttrealize.maps"]
    traintrack = sys.modules["ttrealize.traintrack"]
    realize = sys.modules["ttrealize.realize"]
    certify = sys.modules["ttrealize.certify"]
    marking = sys.modules["ttrealize.marking"]
    experiment = sys.modules["ttrealize.experiment"]
    count = tracer.count

    def compared(result, args):
        # positions reach 10^260 letters, so their bit lengths are summed
        position = result[1] if result[0] == "diverge" else result[2]
        count("maps.compare_image_words.prefix_bits", position.bit_length())
        if tracer.under(STRIP_SEARCH):
            count("traintrack.strip_steps")

    def windowed(result, args):
        if tracer.under(STRIP_SEARCH):
            count("traintrack.strip_window_letters", len(result))

    def legalized(result, args):
        count("traintrack.verify_legalizing.families", result.families)
        count("traintrack.verify_legalizing.long_turns", result.checked)

    def searched(result, args):
        chain, _, log = result
        count("realize.legalizing_rounds", len(log))
        count("realize.g_factors", len(chain.factors))

    def encoded(result, args):
        final = args[0].final
        count("realize.final_letters", sum(final.image_length(e) for e in final.graph.positive_edges))

    def materialized(result, args):
        count("maps.materialize.letters", sum(result.image_length(e) for e in result.graph.positive_edges))

    tracer.patch_function(traintrack, "find_periodic_inps", STRIP_SEARCH)
    tracer.patch_function(maps, "compare_image_words", "maps.compare_image_words", compared)
    tracer.patch_function(maps, "word_image_window", "maps.word_image_window", windowed)
    tracer.patch_method(
        maps.MapChain, "image_window", "maps.image_window",
        lambda result, args: count("maps.image_window.letters", len(result)),
    )
    tracer.patch_method(
        maps.MapChain, "_lengths", "maps.lengths",
        skip=lambda args: args[0]._suffix_lengths is not None,
    )
    tracer.patch_method(maps.MapChain, "materialize", "maps.materialize", materialized)
    tracer.patch_method(maps.TransitionMatrix, "__matmul__", "maps.matmul")
    tracer.patch_function(certify, "expanding_power", "certify.expanding_power")
    tracer.patch_function(traintrack, "verify_legalizing", "traintrack.verify_legalizing", legalized)
    tracer.patch_function(realize, "build_legalizing_map", "realize.build_legalizing_map", searched)
    tracer.patch_function(realize, "select_paths", "realize.select_paths")
    tracer.patch_function(realize, "build_mixing_factors", "realize.build_factors")
    tracer.patch_function(realize, "build_turn_legalizers", "realize.build_factors")
    tracer.patch_function(traintrack, "check_train_track_morphism", "traintrack.check_train_track_morphism")
    tracer.patch_function(traintrack, "whitehead_graphs", "traintrack.whitehead_graphs")
    tracer.patch_function(traintrack, "intrinsic_gate_structure", "traintrack.intrinsic_gate_structure")
    tracer.patch_function(certify, "certify_realization", "certify.certify_realization")
    tracer.patch_method(realize.RealizationResult, "to_json", "realize.to_json", encoded)
    from_json = realize.RealizationResult.from_json.__func__
    realize.RealizationResult.from_json = classmethod(tracer.wrap("realize.from_json", from_json))
    tracer.patch_function(marking, "build_marking", "marking.build_marking")
    tracer.patch_function(marking, "pi1_automorphism", "marking.pi1_automorphism")
    tracer.patch_function(experiment, "sample_positive_automorphism", "experiment.sample")
    tracer.patch_function(experiment, "grade_sample", "experiment.grade_sample")
    tracer.patch_function(realize, "realize", "realize.realize")
