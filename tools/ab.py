"""Alternating benchmark pairs: one tree against another, on one workload.

Run from the repository root::

    python tools/ab.py --base ../parent --change . --workload cli-eval \\
        --pairs 10 [--seconds 20] [--seed 1] [--out BENCH.json]
    python tools/ab.py --base ../parent --change . --workload corpus-bool \\
        --interleaved --pairs 300 [--seed 1] [--out BENCH.json]
    python tools/ab.py --base ../parent --change . --workload coordinator \\
        --interleaved --pairs 50 [--out BENCH.json]

Each tree's ``src`` and ``bench`` directories are copied once into a fresh
temporary directory, so neither side reads the other's files or a build
left in its checkout, and ``bench/run.py`` runs from each copy with the
same arguments.  The pairs alternate which side runs first.  For every
end-to-end metric of ``BENCHMARK.json`` (read from the change's tree) the
tool prints each side's median and quartiles and the pairs the change won
(ties count for neither).  The operations each run completed are shown
beside ``peak_rss_mb``: the benchmark keeps a record per operation, so a
run that completes more operations reads a higher peak.

``--out`` is a JSON file holding one entry per workload and seed (a key
such as ``cli-eval-seed1``): both commit ids,
every run (``bench/run.py``'s result line, plus the operations and rounds
from its result file), the summary, and a spell marker: a fixed
pure-Python loop timed before and after the pairs, to show whether the
machine's speed drifted while they ran.  No recorded entry is ever
replaced: a key the file already holds gets the first free ``-set<N>``
suffix, N = 2, 3, ... (``cli-eval-seed1-set2``), and the tool prints the
key it wrote.

``--interleaved`` compares the two trees in one process instead.  Both
copies' ``frobcoord`` are imported under distinct package names
(``frobcoord_base`` and ``frobcoord_change``), and ``--pairs`` counts
alternating pairs of rounds: a round is one pass over the workload's
operations, run by ``bench/run.py``'s own runner with the same lexicon
file, after a ``gc.collect()``.  One unmeasured round per side first
checks every output with the benchmark's checker.  The tool reports each
side's best and median round time and their interquartile range, the
per-round ratio (change over base), the rounds the change won, and the
``tracemalloc`` peak of one further round per side: what the library
allocates at a fixed operation count, which ``peak_rss_mb`` cannot tell
apart from the records the benchmark keeps per operation.  The same
figures follow (under ``cold``) for as many cold round pairs, in which
the plan cache and, where the tree has one, the program cache are
emptied before each operation, and only the operations are timed.  The
entry's key ends in ``-interleaved`` (before any ``-set<N>``);
``--seconds`` is not used.

In place of a workload, ``--interleaved`` also takes a named micro-target
(``MICRO_TARGETS``), whose round is one call: ``selftest``, a default
``run_selftest()``; ``coordinator``, the dense real
``coordinator_tensor`` of ``n.r s n.l n.l`` at n = s = 4 (4**12 cells);
``reduce``, the canonical ``reduce`` of a 60-conjunct verb-phrase chain
("john v and v ...") with its coordinator positions; and ``plan``,
``plan_contraction.__wrapped__`` (the planner without its cache) on that
chain's explicit network key at n = s = 2.  What a call needs is built
once per side, before any round.  The unmeasured first call per side
checks the result (every suite passes; the coordinator holds its 4**4
ones; the derivation links all but one wire and leaves ``s``; the plan
equals the one the chain's network carries), and the entry's key is
``<target>-interleaved``, as ``--seed`` is not used.

Only the standard library, numpy, the two trees and the change's
``bench`` modules are imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

IGNORED = shutil.ignore_patterns("__pycache__", "work", "results", "*.pyc")
SPELL_LOOPS = 3
CHAIN_CONJUNCTS = 60


def _selftest(fc):
    return (fc.selftest.run_selftest,
            lambda results: all(res.ok for res in results))


def _coordinator(fc):
    x = fc.pregroup.parse_type("n.r s n.l n.l")
    spaces = fc.spaces.SpaceAssignment({"n": 4, "s": 4})
    return (lambda: fc.coordination.coordinator_tensor(x, spaces,
                                                       fc.semiring.REAL),
            # One copy spider per factor: a one for each of 4**4 index
            # choices.
            lambda got: (got.array.shape == (4,) * 12
                         and got.array.sum() == 4 ** 4))


def _chain(fc):
    """The token types, target and coordinator positions of the
    verb-phrase chain "john v and v ..." of ``CHAIN_CONJUNCTS``
    conjuncts."""
    parse = fc.pregroup.parse_type
    verb = parse("n.r s")
    row = [parse("n"), verb] + [fc.pregroup.coordinator_type(verb),
                                verb] * (CHAIN_CONJUNCTS - 1)
    return row, parse("s"), list(range(2, len(row), 2))


def _reduce(fc):
    row, target, coordinators = _chain(fc)
    return (lambda: fc.pregroup.reduce(row, target,
                                       coordinators=coordinators),
            lambda got: (got is not None and got.residual_type() == target
                         and 2 * len(got.links) + 1 == len(got.flattened)))


def _plan(fc):
    row, target, coordinators = _chain(fc)
    spaces = fc.spaces.SpaceAssignment({"n": 2, "s": 2})
    rng = np.random.default_rng(0)
    net = fc.evaluator.build_network(
        fc.pregroup.reduce(row, target, coordinators=coordinators),
        [None if k in coordinators else
         fc.tensor.random_tensor(spaces.wires(t), rng)
         for k, t in enumerate(row)], spaces)
    key = (net.indices, tuple([t.array.shape for t in net.nodes]),
           net.open_wires)
    return (lambda: fc.evaluator.plan_contraction.__wrapped__(*key),
            lambda got: got == net.plan)


# Micro-targets by name: each takes a ``frobcoord`` package and returns
# what one round calls, and the check of its result.
MICRO_TARGETS = {"selftest": _selftest, "coordinator": _coordinator,
                 "reduce": _reduce, "plan": _plan}


def spell_seconds() -> float:
    """The best of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(SPELL_LOOPS):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def commit_of(tree: Path) -> dict:
    """The tree's commit id, and whether tracked files differ from it."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain",
                              "--untracked-files=no"))}


def fresh_copy(tree: Path, into: Path) -> Path:
    for part in ("src", "bench"):
        shutil.copytree(tree / part, into / part, ignore=IGNORED)
    return into


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``copy``: its result line, with the
    operations and rounds its result file records."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((copy / "bench" / "results" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    result["ops"], result["rounds"] = record["ops"], record["rounds"]
    return result


def sides(pair: int) -> tuple:
    """Which side runs first alternates from pair to pair."""
    return ("base", "change") if pair % 2 == 0 else ("change", "base")


def alternate_runs(copies: dict, workload: str, seed: int, seconds: float,
                   pairs: int, metrics) -> dict:
    """Alternating ``bench/run.py`` pairs: every run and their summary."""
    runs = []
    for pair in range(pairs):
        for first, s in enumerate(sides(pair)):
            runs.append({"pair": pair, "side": s, "first": first == 0,
                         "result": run_once(copies[s], workload, seed,
                                            seconds)})
    return {"seconds": seconds, "runs": runs,
            "summary": summarise(runs, metrics)}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarise(runs, metrics) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the
    change won by the metric's direction."""
    pairs = len(runs) // 2
    side = {s: [r for r in runs if r["side"] == s] for s in ("base", "change")}
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        values = {s: [r["result"]["metrics"][name]["value"] for r in rs]
                  for s, rs in side.items()}
        wins = sum(sign * (c - b) > 0
                   for b, c in zip(values["base"], values["change"]))
        out[name] = {"unit": m["unit"], "better": m["better"],
                     "bound": m["bound"], "pairs": pairs,
                     "change_wins": int(wins),
                     **{s: quartiles(v) for s, v in values.items()}}
    out["ops"] = {s: quartiles([r["result"]["ops"] for r in rs])
                  for s, rs in side.items()}
    out["failed"] = {s: sum(r["result"]["failed"] for r in rs)
                     for s, rs in side.items()}
    out["correct"] = all(r["result"]["correct"] for r in runs)
    return out


def free_key(recorded, key: str) -> str:
    """``key``, or else ``key-set<N>`` for the least N >= 2 that
    ``recorded`` does not hold."""
    found, n = key, 1
    while found in recorded:
        n += 1
        found = f"{key}-set{n}"
    return found


def report(workload, summary, names) -> str:
    pairs = summary[names[0]]["pairs"]
    lines = [f"{workload}: median [q1, q3] per side, and the pairs of "
             f"{pairs} that the change won"]
    for name in names:
        s = summary[name]
        b, c = s["base"], s["change"]
        line = (f"  {name:16s} base {b['median']:.6g} [{b['q1']:.6g}, "
                f"{b['q3']:.6g}]  change {c['median']:.6g} [{c['q1']:.6g}, "
                f"{c['q3']:.6g}] {s['unit']}  wins {s['change_wins']}")
        if name == "peak_rss_mb":
            ops = summary["ops"]
            line += (f"  (ops base {ops['base']['median']:.0f}, change "
                     f"{ops['change']['median']:.0f})")
        lines.append(line)
    lines.append(f"  failed base {summary['failed']['base']}, change "
                 f"{summary['failed']['change']}; all correct: "
                 f"{summary['correct']}")
    return "\n".join(lines)


# The bench modules that bench/run.py imports by these names.
BENCH_MODULES = ("run", "oracle", "tracing", "workloads")


def import_bench(bench: Path):
    """``bench/run.py`` of the copy ``bench``, imported with its own
    ``oracle``, ``tracing`` and ``workloads``; modules already imported
    under those names (the repository's bench in a test session) are put
    back afterwards."""
    saved = {n: sys.modules.pop(n) for n in BENCH_MODULES if n in sys.modules}
    sys.path.insert(0, str(bench))
    try:
        return importlib.import_module("run")
    finally:
        sys.path.remove(str(bench))
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def import_package(src: Path, name: str):
    """The ``frobcoord`` package under ``src``, imported afresh as
    ``name``, with the modules the benchmark's runner reads."""
    for loaded in [m for m in sys.modules
                   if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]
    init = src / "frobcoord" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "errors", "evaluator", "lexicon"):
        importlib.import_module(f"{name}.{module}")
    return package


def round_stats(ms) -> dict:
    q = quartiles(ms)
    return {"best": float(min(ms)), **q, "iqr": q["q3"] - q["q1"]}


def compare(ms: dict) -> dict:
    """Each side's round statistics, the per-round ratios (change over
    base) and the rounds the change won."""
    ratios = [c / b for b, c in zip(ms["base"], ms["change"])]
    return {"round_ms": {s: round_stats(v) for s, v in ms.items()},
            "ratio": quartiles(ratios),
            "change_wins": sum(r < 1 for r in ratios)}


def cache_clears(frobcoord) -> list:
    """The ``cache_clear`` of each contraction cache the tree has: the plan
    cache, and the program cache where there is one."""
    evaluator = frobcoord.evaluator
    return [cached.cache_clear for cached in (
        getattr(evaluator, name, None)
        for name in ("plan_contraction", "compile_network"))
        if cached is not None]


def interleaved(copies: dict, workload_name: str, seed: int,
                pairs: int) -> dict:
    """Alternating rounds of one workload's operations, or of one call of
    a micro-target, on both copies in this process: warm and cold round
    times, per-round ratios, wins and round peaks."""
    run_op, correct, clears = {}, {}, {}
    if workload_name in MICRO_TARGETS:
        ops = [None]
        for side, copy in copies.items():
            fc = import_package(copy / "src", f"frobcoord_{side}")
            call, ok = MICRO_TARGETS[workload_name](fc)
            run_op[side] = lambda op, call=call: call()
            correct[side] = bool(ok(call()))
            clears[side] = cache_clears(fc)
    else:
        bench = import_bench(copies["change"] / "bench")
        workload = bench.WORKLOADS[workload_name](seed)
        ops = workload.ops
        lexicon_path = copies["change"] / "lexicon.lex"
        lexicon_path.write_text(workload.lexicon_text, encoding="utf-8")
        for side, copy in copies.items():
            runner = bench.Runner(import_package(copy / "src",
                                                 f"frobcoord_{side}"),
                                  lexicon_path)
            runner.lexicon = runner.fc.lexicon.load_lexicon(lexicon_path)
            run_op[side] = (runner.main if workload.via_cli
                            else runner.sentence)
            correct[side] = all(bench.check(op, run_op[side](op)[1]) is None
                                for op in ops)
            clears[side] = cache_clears(runner.fc)

    def one_round(side) -> float:
        gc.collect()
        t0 = time.perf_counter()
        for op in ops:
            run_op[side](op)
        return (time.perf_counter() - t0) * 1000

    def cold_round(side) -> float:
        # Only the operations are timed, not the clearing before each.
        gc.collect()
        total = 0.0
        for op in ops:
            for clear in clears[side]:
                clear()
            t0 = time.perf_counter()
            run_op[side](op)
            total += time.perf_counter() - t0
        return total * 1000

    ms = {"base": [], "change": []}
    for pair in range(pairs):
        for side in sides(pair):
            ms[side].append(one_round(side))
    peak = {}
    for side in ms:
        tracemalloc.start()
        try:
            one_round(side)
            peak[side] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # Cold rounds come last: each leaves the caches nearly empty.
    cold_ms = {"base": [], "change": []}
    for pair in range(pairs):
        for side in sides(pair):
            cold_ms[side].append(cold_round(side))
    summary = {**compare(ms), "cold": compare(cold_ms),
               "tracemalloc_peak_bytes": peak, "correct": correct}
    return {"ops_per_round": len(ops), "summary": summary,
            "round_ms": ms, "cold_round_ms": cold_ms}


def report_interleaved(workload, entry) -> str:
    s = entry["summary"]
    lines = [f"{workload} interleaved: {entry['pairs']} round pairs of "
             f"{entry['ops_per_round']} operations, round ms best, median "
             f"[q1, q3] per side"]
    for label, rounds in (("warm", s), ("cold", s["cold"])):
        for side in ("base", "change"):
            r = rounds["round_ms"][side]
            line = (f"  {label} {side:6s} best {r['best']:.4g}  median "
                    f"{r['median']:.4g} [{r['q1']:.4g}, {r['q3']:.4g}]")
            if label == "warm":
                line += (f"  tracemalloc peak of a round "
                         f"{s['tracemalloc_peak_bytes'][side] / 1024:.1f} "
                         f"KiB")
            lines.append(line)
        q = rounds["ratio"]
        lines.append(f"  {label} ratio change/base {q['median']:.4g} "
                     f"[{q['q1']:.4g}, {q['q3']:.4g}]  change won "
                     f"{rounds['change_wins']} of {entry['pairs']}")
    lines.append(f"  correct base {s['correct']['base']}, change "
                 f"{s['correct']['change']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--interleaved", action="store_true",
                        help="alternate rounds of both trees in this "
                             "process; --pairs counts round pairs")
    args = parser.parse_args(argv)
    if args.workload in MICRO_TARGETS and not args.interleaved:
        parser.error(f"{args.workload} is a micro-target: it runs only "
                     f"with --interleaved")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    spell_before = spell_seconds()
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        copies = {s: fresh_copy(t, Path(tmp) / s) for s, t in trees.items()}
        if args.interleaved:
            key = (f"{args.workload}-interleaved"
                   if args.workload in MICRO_TARGETS
                   else f"{args.workload}-seed{args.seed}-interleaved")
            entry = interleaved(copies, args.workload, args.seed, args.pairs)
        else:
            key = f"{args.workload}-seed{args.seed}"
            entry = alternate_runs(copies, args.workload, args.seed, seconds,
                                   args.pairs, spec["end_to_end"])
    spell_after = spell_seconds()

    entry = {"base": commit_of(trees["base"]),
             "change": commit_of(trees["change"]),
             "seed": args.seed, "pairs": args.pairs,
             "spell_s": {"before": spell_before, "after": spell_after},
             **entry}
    print(report_interleaved(args.workload, entry) if args.interleaved else
          report(args.workload, entry["summary"],
                 [m["name"] for m in spec["end_to_end"]]))
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    recorded = data.setdefault("workloads", {})
    key = free_key(recorded, key)
    recorded[key] = entry
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"recorded as {key} in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
