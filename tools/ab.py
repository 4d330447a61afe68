"""Alternating benchmark pairs: one tree against another, on one workload.

Run from the repository root::

    python tools/ab.py --base ../parent --change . --workload cli-eval \\
        --pairs 10 [--seconds 20] [--seed 1] [--out BENCH.json]

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
machine's speed drifted while they ran.  An entry already in the file
under the same key is replaced; the others are kept.

Only the standard library and numpy are imported.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

IGNORED = shutil.ignore_patterns("__pycache__", "work", "results", "*.pyc")
SPELL_LOOPS = 3


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
    args = parser.parse_args(argv)
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    spell_before = spell_seconds()
    runs = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        copies = {s: fresh_copy(t, Path(tmp) / s) for s, t in trees.items()}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else \
                ("change", "base")
            for first, s in enumerate(order):
                result = run_once(copies[s], args.workload, args.seed,
                                  seconds)
                runs.append({"pair": pair, "side": s, "first": first == 0,
                             "result": result})
    spell_after = spell_seconds()

    summary = summarise(runs, spec["end_to_end"])
    print(report(args.workload, summary,
                 [m["name"] for m in spec["end_to_end"]]))
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("workloads", {})[f"{args.workload}-seed{args.seed}"] = {
        "base": commit_of(trees["base"]),
        "change": commit_of(trees["change"]),
        "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
        "spell_s": {"before": spell_before, "after": spell_after},
        "summary": summary, "runs": runs}
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
