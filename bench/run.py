"""Run one benchmark workload and print its result as JSON on the last line.

    python3 bench/run.py --workload corpus-real --seed 1 --seconds 20 --trace 0

Workloads are described in bench/README.md.  A run generates the
workload's lexicon file and sentences from the seed, times ``setup_s``
(loading the lexicon several times), then repeats whole rounds of the
workload's operations, one at a time, until ``--seconds`` have passed and
at least ``MIN_OPS`` operations have run.  Every output is checked against
the benchmark's own computation (oracle.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds for the same time and reports per-layer
metrics instead (tracing.py), plus the tracing overhead.

frobcoord is imported from the ``src`` directory of the checkout this file
sits in; the run fails if it is not there.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import oracle
from tracing import Tracer, patch_points
from workloads import TARGET, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
RESULTS = BENCH / "results"

# Enough operations that at least ten lie beyond the 90th percentile.
MIN_OPS = 100
# In a traced run, in-process `frobcoord.cli.main` calls timed for
# cli.main_ms on workloads whose operations are not CLI calls.
CLI_MAIN_PROBES = 4
CHILD_REPEATS = 5
CHILD_TIMEOUT_S = 120


class OpFailed(Exception):
    """The program did not produce a result for an operation."""


UNGRAMMATICAL = object()  # the output of an operation that was refused


def import_frobcoord():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import frobcoord
        import frobcoord.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import frobcoord from {src}: {exc}")
    if src.resolve() not in Path(frobcoord.__file__).resolve().parents:
        sys.exit(f"bench: frobcoord was imported from {frobcoord.__file__}, "
                 f"not from {src}")
    return frobcoord


def child_env():
    env = dict(os.environ)
    env.pop("FROBCOORD_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def cli_argv(op, lexicon_path):
    argv = [op.command, str(lexicon_path), *op.words]
    if op.command == "eval":
        argv += ["--mode", op.mode, "--format", "json"]
    return argv


class Runner:
    """Runs one operation and returns (seconds, output).

    The output is an array (in-process eval), the CLI's stdout, or
    UNGRAMMATICAL.  Anything else the program does raises OpFailed.
    """

    def __init__(self, frobcoord, lexicon_path):
        self.fc = frobcoord
        self.lexicon_path = lexicon_path
        self.lexicon = None
        self.env = child_env()

    def sentence(self, op):
        t0 = time.perf_counter()
        try:
            out = self.fc.evaluator.evaluate_sentence(
                op.words, self.lexicon, "s", mode=op.mode).array
        except self.fc.errors.UngrammaticalSentence:
            out = UNGRAMMATICAL
        return time.perf_counter() - t0, out

    def child(self, op):
        cmd = [sys.executable, "-m", "frobcoord",
               *cli_argv(op, self.lexicon_path)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        return dt, self._cli_output(proc.returncode, proc.stdout, proc.stderr)

    def main(self, op):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.fc.cli.main(cli_argv(op, self.lexicon_path))
        dt = time.perf_counter() - t0
        return dt, self._cli_output(code, out.getvalue(), err.getvalue())

    @staticmethod
    def _cli_output(code, stdout, stderr):
        if code == 0:
            return stdout
        if code == 1 and stderr.startswith("ungrammatical"):
            return UNGRAMMATICAL
        raise OpFailed(f"exit {code}: {stderr.strip()[-300:]}")


def check(op, out) -> str | None:
    """None when ``out`` is the right result for ``op``, else the reason."""
    if op.command == "check":
        links = oracle.parse_check_output(out, op.token_rows)
        if links is None:
            return f"unreadable check output {out[:80]!r}"
        return oracle.check_links(op.row, TARGET, links)
    if op.expected is None:
        return oracle.check_ungrammatical(op.row, TARGET, out is UNGRAMMATICAL)
    if isinstance(out, str):
        out = oracle.parse_eval_json(out)
        if out is None:
            return "unreadable eval output"
    if out is UNGRAMMATICAL:
        return "reported ungrammatical"
    return oracle.compare(out, op.expected)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.times = []          # seconds, one per completed operation
        self.labels = []

    def run(self, ops, run_op) -> float:
        """Run ``ops`` once; return the round's total operation time."""
        spent = 0.0
        for op in ops:
            self.attempted += 1
            try:
                dt, out = run_op(op)
            except Exception as exc:  # counted as failed; the run goes on
                self._fail(op, exc)
                continue
            problem = check(op, out)
            if problem:
                self.mismatches.append(f"{op.label} {' '.join(op.words)}: "
                                       f"{problem}")
            self.times.append(dt)
            self.labels.append(op.label)
            spent += dt
        return spent

    def absorb(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches += other.mismatches

    def _fail(self, op, exc):
        self.failed += 1
        if self.failed <= 5:
            print(f"failed: {op.label} {' '.join(op.words)}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)


def load_times(fc, path, count):
    """Time ``count`` loads of the lexicon file; return (lexicon, seconds)."""
    times, lexicon = [], None
    for _ in range(count):
        lexicon = None  # free the previous copy before the next load
        t0 = time.perf_counter()
        lexicon = fc.lexicon.load_lexicon(path)
        times.append(time.perf_counter() - t0)
    return lexicon, times


def child_ms(env, code):
    times = []
    for _ in range(CHILD_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def measure(workload, runner, seconds):
    fc = runner.fc
    run_op = runner.child if workload.via_cli else runner.sentence
    tally = Tally()
    loads = []
    busy = 0.0  # seconds spent in rounds
    rounds = 0
    while rounds == 0 or busy < seconds or len(tally.times) < MIN_OPS:
        # The setup loads are spread over the run rather than made all at
        # its start, so that they meet the same machine conditions as the
        # operations: on a shared machine the speed of the cores drifts
        # over seconds, and a sub-millisecond load repeated for a few
        # milliseconds samples only one moment of it.
        share = min(1.0, busy / seconds)
        due = int(1 + (workload.setup_loads - 1) * share)
        if due > len(loads):
            runner.lexicon = None
            runner.lexicon, more = load_times(fc, runner.lexicon_path,
                                              due - len(loads))
            loads += more
        t0 = time.perf_counter()
        tally.run(workload.ops, run_op)
        busy += time.perf_counter() - t0
        rounds += 1
    runner.lexicon = None
    loads += load_times(fc, runner.lexicon_path,
                        workload.setup_loads - len(loads))[1]
    times_ms = np.asarray(tally.times) * 1000
    who = (resource.RUSAGE_CHILDREN if workload.via_cli
           else resource.RUSAGE_SELF)
    metrics = {
        "sentences_per_s": (len(tally.times) / sum(tally.times), "ops/s"),
        "latency_p50_ms": (float(np.percentile(times_ms, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(times_ms, 90)), "ms"),
        "setup_s": (statistics.median(loads), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    by_label = {}
    for label, t in zip(tally.labels, times_ms):
        by_label.setdefault(label, []).append(t)
    details = {"rounds": rounds, "ops": len(tally.times),
               "setup_loads": len(loads),
               "median_ms_by_class": {k: statistics.median(v)
                                      for k, v in sorted(by_label.items())}}
    return tally, metrics, details


def measure_traced(workload, runner, seconds):
    fc = runner.fc
    tracer = Tracer(patch_points(fc))
    with tracer.installed(-1):
        runner.lexicon, _ = load_times(fc, runner.lexicon_path,
                                       workload.setup_loads)
    # A CLI operation's work happens in a child process, out of the
    # tracer's reach, so the traced rounds run `frobcoord.cli.main` in
    # this process on the same arguments.
    run_op = runner.main if workload.via_cli else runner.sentence
    plain, traced = Tally(), Tally()
    plain_s, traced_s = [], []
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        plain_s.append(plain.run(workload.ops, run_op))
        with tracer.installed(len(traced_s)):
            traced_s.append(traced.run(workload.ops, run_op))
    if workload.via_cli:
        main_times = plain.times
    else:
        probe = Tally()
        probe.run(workload.ops[:CLI_MAIN_PROBES], runner.main)
        plain.absorb(probe)
        main_times = probe.times
    plain.absorb(traced)
    env = child_env()
    interpreter = child_ms(env, "pass")
    metrics = tracer.layer_metrics()
    metrics.update({
        "trace.op_ms": (statistics.median(traced_s) * 1000, "ms"),
        "trace.overhead_pct": ((statistics.median(traced_s)
                                / statistics.median(plain_s) - 1) * 100, "%"),
        "cli.interpreter_ms": (interpreter, "ms"),
        "cli.import_ms":
            (child_ms(env, "import frobcoord.cli") - interpreter, "ms"),
        "cli.main_ms": (statistics.median(main_times) * 1000, "ms"),
    })
    details = {"rounds": len(traced_s), "spans": len(tracer.spans)}
    return plain, metrics, details, tracer


def environment():
    """What the reference figures depend on; the BLAS thread count is read
    from the OpenBLAS that numpy wheels bundle, when there is one."""
    blas_threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        try:
            blas_threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
            break
        except (OSError, AttributeError):
            continue
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "openblas_threads": blas_threads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fc = import_frobcoord()
    workload = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    lexicon_path = WORK / f"{workload.name}-seed{args.seed}.lex"
    lexicon_path.write_text(workload.lexicon_text, encoding="utf-8")
    runner = Runner(fc, lexicon_path)

    tracer = None
    if args.trace:
        tally, metrics, details, tracer = measure_traced(workload, runner,
                                                         args.seconds)
    else:
        tally, metrics, details = measure(workload, runner, args.seconds)
    for line in tally.mismatches[:10]:
        print(f"mismatch: {line}", file=sys.stderr)
    result = {
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        dict(result, workload=workload.name, seed=args.seed,
             seconds=args.seconds, environment=environment(), **details),
        indent=1) + "\n")
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "round",
                        "measure"], "spans": tracer.spans}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
