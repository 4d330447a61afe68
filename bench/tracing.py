"""Spans around frobcoord's layer functions, recorded from outside.

The tracer replaces each function at the name through which frobcoord
calls it (``frobcoord.evaluator.reduce``, ``REAL.matmul`` and so on) with
a wrapper that records one span per call, and puts the originals back
afterwards.  Spans stay in memory until the run ends.  A span's self time
is its duration minus the durations of the spans it directly encloses;
calls are single-threaded, so the enclosed spans never overlap.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

_MISSING = object()

# A span: [name, start_ns, end_ns, parent span index or -1, round, measure]
NAME, START, END, PARENT, ROUND, MEASURE = range(6)


def _max_operand_cells(args, result):
    return max(node.array.size for node in args[0].nodes)


def _matmul_flop(args, result):
    (m, k), (_, n) = args[0].shape, args[1].shape
    return 2 * m * k * n


def _lexicon_cells(args, lexicon):
    return sum(entry.tensor.array.size for entry in lexicon)


def _tensor_cells(args, tensor):
    return tensor.array.size


def patch_points(frobcoord):
    """(object, attribute, span name, measure) for every traced call site."""
    ev, lx, cli = frobcoord.evaluator, frobcoord.lexicon, frobcoord.cli
    return [
        (ev, "reduce", "pregroup.reduce", None),
        (cli, "reduce", "pregroup.reduce", None),
        (ev, "build_network", "evaluator.build_network", None),
        (ev, "evaluate", "evaluator.evaluate", _max_operand_cells),
        (ev, "evaluate_sentence", "evaluator.evaluate_sentence", None),
        (cli, "evaluate_sentence", "evaluator.evaluate_sentence", None),
        (lx, "coordinator_tensor", "coordination.coordinator_tensor",
         _tensor_cells),
        (lx, "load_lexicon", "lexicon.load_lexicon", _lexicon_cells),
        (cli, "load_lexicon", "lexicon.load_lexicon", _lexicon_cells),
        (frobcoord.REAL, "matmul", "semiring.matmul", _matmul_flop),
        (frobcoord.BOOLEAN, "matmul", "semiring.matmul", _matmul_flop),
    ]


class Tracer:
    def __init__(self, points):
        self.points = points
        self.spans = []
        self.round = -1      # -1 while setting up
        self._open = []

    def _wrap(self, name, fn, measure):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0, 0, open_[-1] if open_ else -1, self.round, 0]
            open_.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                open_.pop()
            if measure is not None:
                span[MEASURE] = measure(args, result)
            return result
        return traced

    @contextmanager
    def installed(self, round_):
        """Trace every patch point while the block runs, as ``round_``."""
        self.round = round_
        saved = []
        try:
            for obj, attr, name, measure in self.points:
                saved.append((obj, attr, vars(obj).get(attr, _MISSING)))
                setattr(obj, attr, self._wrap(name, getattr(obj, attr),
                                              measure))
            yield
        finally:
            for obj, attr, old in reversed(saved):
                if old is _MISSING:
                    delattr(obj, attr)
                else:
                    setattr(obj, attr, old)

    def layer_metrics(self) -> dict:
        """Per-layer (value, unit) pairs by metric name.

        Times and counts are medians over traced rounds of per-round
        totals; lexicon and coordinator figures are medians per load.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        rounds = sorted({s[ROUND] for s in spans if s[ROUND] >= 0})
        total = {r: defaultdict(float) for r in rounds}
        selft = {r: defaultdict(float) for r in rounds}
        calls = {r: defaultdict(int) for r in rounds}
        flop = {r: 0 for r in rounds}
        max_cells = 0
        loads, coord_ns, coord_cells = [], defaultdict(int), defaultdict(int)
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            name = s[NAME]
            if name == "lexicon.load_lexicon":
                loads.append(i)
            elif name == "coordination.coordinator_tensor":
                coord_ns[s[PARENT]] += dur
                coord_cells[s[PARENT]] += s[MEASURE]
            if s[ROUND] < 0:
                continue
            r = s[ROUND]
            total[r][name] += dur / 1e6
            selft[r][name] += (dur - child_ns[i]) / 1e6
            calls[r][name] += 1
            if name == "semiring.matmul":
                flop[r] += s[MEASURE]
            elif name == "evaluator.evaluate":
                max_cells = max(max_cells, s[MEASURE])

        def per_round(table, name):
            return statistics.median(table[r][name] for r in rounds)
        return {
            "pregroup.reduce_ms":
                (per_round(total, "pregroup.reduce"), "ms"),
            "pregroup.reduce_calls":
                (per_round(calls, "pregroup.reduce"), "count"),
            "evaluator.evaluate_ms":
                (per_round(selft, "evaluator.evaluate"), "ms"),
            "evaluator.evaluate_calls":
                (per_round(calls, "evaluator.evaluate"), "count"),
            "evaluator.build_network_ms":
                (per_round(total, "evaluator.build_network"), "ms"),
            "evaluator.sentence_self_ms":
                (per_round(selft, "evaluator.evaluate_sentence"), "ms"),
            "evaluator.max_operand_cells": (max_cells, "count"),
            "semiring.matmul_ms": (per_round(total, "semiring.matmul"), "ms"),
            "semiring.matmul_calls":
                (per_round(calls, "semiring.matmul"), "count"),
            "semiring.matmul_gflop":
                (statistics.median(flop[r] for r in rounds) / 1e9, "GFLOP"),
            "lexicon.load_ms": (statistics.median(
                (spans[i][END] - spans[i][START]) / 1e6 for i in loads), "ms"),
            "lexicon.cells":
                (statistics.median(spans[i][MEASURE] for i in loads), "count"),
            "coordination.coordinator_ms": (statistics.median(
                coord_ns[i] / 1e6 for i in loads), "ms"),
            "coordination.coordinator_cells": (statistics.median(
                coord_cells[i] for i in loads), "count"),
        }
