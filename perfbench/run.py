#!/usr/bin/env python3
"""Seeded, self-checking benchmark of the diskinterp command-line pipelines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

One process runs one workload through ``diskinterp.cli.main`` in-process,
as a closed loop with a single caller: the next op starts when the
previous one returns.  Each pass runs the workload's whole op list once;
a run makes a fixed number of passes, sized so that it measures about
``--seconds`` on the reference machine.  Every op's stdout is checked
with the benchmark's own numpy code outside the timed window, and every
repetition must reproduce the first run's bytes and exit code.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the passes alternate untraced and traced, and it
reports the per-layer metrics of the traced passes.  See README.md.
"""

from __future__ import annotations

import os

# Single-threaded BLAS; set before numpy is imported here or in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402  (stdlib-only at import)

OUT = ROOT / "perfbench" / "out"

# Set-ups per run, spread over the run; setup_s is their median.
SETUP_REPEATS = 7

SETUP_TIMEOUT_S = 120

# Every op runs at least this often, so its fastest time is meaningful.
MIN_PASSES = 3

# The tail percentile is the highest one with this many samples beyond it.
TAIL_SAMPLES = 10


# glibc mallopt parameters.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_freed_memory() -> str:
    """Stop glibc malloc from handing freed memory back to the kernel.

    By default every large numpy temporary is a fresh mmap, and freed heap
    beyond a small threshold is trimmed, so the next allocation faults its
    pages in again.  On a shared 2-core x86_64 virtual machine those page
    faults took half of a `chain` op's time, and their cost swung with the
    host's load.
    Keeping freed memory in the process leaves the program's own work in
    the op times.  Returns the allocator setting for the environment record.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default (no mallopt)"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) and mallopt(_M_TRIM_THRESHOLD, 1 << 30):
        return "glibc malloc: mmap threshold 32 MiB, trim threshold 1 GiB"
    return "default (mallopt refused)"


class BenchError(Exception):
    """The benchmark cannot run here (no program to build, set-up failed)."""


@dataclass
class Op:
    id: str
    n: int
    seed: int
    kind: str
    argv: list
    points: object  # complex ndarray, for the checks


@dataclass
class First:
    """What the first run of an op produced; repetitions must match it."""

    digest: str
    exit: object  # exit code, or the name of the exception main raised
    outcome: str  # "ok", "fail" or "wrong"
    reason: str | None


def setup(workload: str, seed: int, dest: Path) -> float:
    """One timed set-up in a fresh interpreter; returns its seconds."""
    dest.mkdir()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workloads.py"),
         workload, str(seed), str(dest)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def check_same_inputs(first: Path, other: Path) -> None:
    """A repeated set-up must write the same bytes as the first one."""
    for path in sorted(first.iterdir()):
        if path.read_bytes() != (other / path.name).read_bytes():
            raise BenchError(f"set-up is not deterministic: {path.name} differs")


def load_ops(inputs: Path) -> list[Op]:
    import numpy as np

    manifest = json.loads((inputs / workloads.MANIFEST).read_text())
    ops, points = [], {}
    for rec in manifest:
        doc = rec["doc"]
        if doc not in points:
            data = json.loads((inputs / doc).read_text())
            points[doc] = np.array(
                [complex(p["re"], p["im"]) for p in data["points"]], dtype=complex)
        argv = [str(inputs / doc) if a == doc else a for a in rec["argv"]]
        ops.append(Op(rec["id"], rec["n"], rec["seed"], rec["kind"], argv, points[doc]))
    return ops


class Runner:
    """Runs ops through the CLI, times them, and checks their answers."""

    def __init__(self, workload: str, ops: list[Op], cli, checks, recorder):
        self.workload = workload
        self.ops = ops
        self.cli = cli
        self.checks = checks
        self.recorder = recorder
        self.first: dict[int, First] = {}
        self.mismatches: list[str] = []

    def call(self, op: Op, traced: bool):
        out, err = io.StringIO(), io.StringIO()
        rec = self.recorder
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            span = rec.begin("cli.main") if traced else None
            try:
                exit_ = self.cli.main(list(op.argv))
            except Exception as exc:
                exit_ = type(exc).__name__
            if traced:
                rec.end(span)
        return perf_counter() - start, exit_, out.getvalue()

    def execute(self, i: int, traced: bool) -> tuple[float, str]:
        """Run op i once; return its seconds and outcome."""
        op = self.ops[i]
        seconds, exit_, text = self.call(op, traced)
        data = text.encode()
        digest = hashlib.sha256(f"{exit_}\0".encode() + data).hexdigest()
        if traced:
            self.recorder.counts["cli.bytes_out"] += len(data)
            self.recorder.counts["cli.exit_nonzero"] += exit_ != 0
        first = self.first.get(i)
        if first is None:
            reason = None
            if text:
                reason = self.checks.check(self.workload, op.points, op.argv, exit_, text)
            if exit_ != 0:
                outcome = "fail"
            else:
                outcome = "ok" if reason is None else "wrong"
            self.first[i] = First(digest, exit_, outcome, reason)
            return seconds, outcome
        if digest != first.digest:
            self.mismatches.append(f"{op.id}: output differs between runs "
                                   f"({'traced' if traced else 'untraced'} run)")
            return seconds, "wrong"
        return seconds, first.outcome


@dataclass
class Pass:
    traced: bool
    results: list  # (op index, seconds, outcome)

    @property
    def seconds(self) -> float:
        return sum(s for _, s, _ in self.results)


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Passes of one run: about `seconds` of op time on the reference machine.

    The count depends only on the arguments, so a seed always attempts the
    same ops and fails the same ones.  Traced runs make an even number of
    passes, half of them traced.
    """
    count = max(MIN_PASSES, math.ceil(seconds / workloads.PASS_S[workload]))
    return count + count % 2 if trace else count


def run_passes(runner: Runner, count: int, trace: bool, between) -> list[Pass]:
    """Closed loop over the op list, `count` times.

    Traced runs alternate untraced and traced passes.  `between(k)` runs
    untimed after pass k.
    """
    passes = []
    for k in range(count):
        traced = trace and k % 2 == 1
        with runner.recorder.installed() if traced else nullcontext():
            results = []
            for i in range(len(runner.ops)):
                if traced:
                    runner.recorder.op += 1
                results.append((i, *runner.execute(i, traced)))
        passes.append(Pass(traced, results))
        between(k)
    return passes


def latency_metrics(passes: list[Pass]) -> dict:
    """ops_per_s, p50 and tail over the given passes.

    An op's time is the fastest of its repetitions, the usual estimate of
    its cost on an otherwise idle machine: slowdowns of a shared machine
    only ever add time.  The pass time is the sum of those op times.  The
    median is taken over ops.  A tail needs more samples than there are
    ops, so it is taken over repetitions: the faster half of each op's
    repetitions, which leaves out the time a busy machine added and keeps
    the spread of the op's own cost.  A failed or wrong op never answered,
    so it ranks above every answer: it counts as one whole pass.
    """
    samples: dict[int, list[float]] = {}
    good: dict[int, bool] = {}
    for p in passes:
        for i, s, outcome in p.results:
            samples.setdefault(i, []).append(s)
            good[i] = good.get(i, True) and outcome == "ok"
    pass_s = sum(min(v) for v in samples.values())
    per_op = sorted(min(samples[i]) if good[i] else pass_s for i in samples)
    results = [r for p in passes for r in p.results]
    ok = sum(1 for _, _, outcome in results if outcome == "ok")
    lat = sorted(s if good[i] else pass_s
                 for i, v in samples.items() for s in sorted(v)[:(len(v) + 1) // 2])
    n = len(lat)
    tail_rank = max(n - TAIL_SAMPLES - 1, 0)
    return {
        "ops": len(per_op),
        "executions": len(results),
        "tail_samples": n,
        "ok": ok,
        "seconds": sum(p.seconds for p in passes),
        "pass_s": pass_s,
        "ops_per_s": ok / len(passes) / pass_s,
        "p50_s": per_op[math.ceil(len(per_op) / 2) - 1],
        "tail_s": lat[tail_rank],
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(allocator: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "allocator": allocator,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def op_listing(runner: Runner, passes: list[Pass]) -> list[dict]:
    """Every op with its size, input seed, how it ended and its fastest time."""
    times: dict[int, list[float]] = {}
    for p in passes:
        for i, s, _ in p.results:
            times.setdefault(i, []).append(s)
    rows = []
    for i, op in enumerate(runner.ops):
        first = runner.first[i]
        rows.append({
            "id": op.id, "n": op.n, "seed": op.seed, "kind": op.kind,
            "exit": first.exit, "outcome": first.outcome, "check": first.reason,
            "best_ms": 1e3 * min(times[i]),
        })
    return rows


def summary_lines(listing: list[dict]) -> list[str]:
    """One line per (n, kind): how many ops ended how."""
    groups: dict[tuple, Counter] = {}
    for row in listing:
        label = row["outcome"] if row["outcome"] != "fail" else f"exit {row['exit']}"
        groups.setdefault((row["n"], row["kind"]), Counter())[label] += 1
    return [
        f"  n={n:<4d} {kind:<15s} " + ", ".join(f"{k}: {v}" for k, v in sorted(c.items()))
        for (n, kind), c in groups.items()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    allocator = keep_freed_memory()
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    count = pass_count(args.workload, args.seconds, bool(args.trace))
    # The first set-up makes the inputs; the others run between passes,
    # spread over the run, so that their median is not that of one moment
    # of a shared machine.
    setup_after = Counter(k * count // SETUP_REPEATS for k in range(1, SETUP_REPEATS))
    setup_times = []
    with tempfile.TemporaryDirectory(prefix=tag + "-", dir=OUT) as tmp:
        inputs = Path(tmp) / "inputs"

        def setup_between(k: int) -> None:
            for _ in range(setup_after[k]):
                again = Path(tmp) / f"inputs{len(setup_times)}"
                setup_times.append(setup(args.workload, args.seed, again))
                check_same_inputs(inputs, again)
                shutil.rmtree(again)

        try:
            setup_times.append(setup(args.workload, args.seed, inputs))
            package = workloads.import_diskinterp()
        except (BenchError, ImportError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark cannot run: {exc}", file=sys.stderr)
            return 1
        from diskinterp import cli

        from perfbench import checks, trace

        ops = load_ops(inputs)
        recorder = trace.Recorder(package)
        runner = Runner(args.workload, ops, cli, checks, recorder)
        for op in {(op.n, op.kind): op for op in reversed(ops)}.values():
            runner.call(op, traced=False)  # warm-up: lazy imports, caches
        try:
            passes = run_passes(runner, count, bool(args.trace), setup_between)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark cannot run: {exc}", file=sys.stderr)
            return 1

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    lm = latency_metrics(untraced)
    results = [r for p in passes for r in p.results]
    attempted = len(results)
    failed = sum(1 for r in results if r[2] == "fail")
    wrong = sum(1 for r in results if r[2] == "wrong")
    correct = wrong == 0 and not runner.mismatches
    setup_s = statistics.median(setup_times)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0

    if args.trace:
        tm = latency_metrics(traced)
        metrics = trace.layer_metrics(recorder, len(traced))
        metrics["trace.overhead_ratio"] = (tm["ops_per_s"] / lm["ops_per_s"], "ratio")
        metrics["ops.fail_ratio"] = (failed / attempted, "ratio")
        metrics["ops.wrong_ratio"] = (wrong / attempted, "ratio")
    else:
        metrics = {
            "ops_per_s": (lm["ops_per_s"], "1/s"),
            "op_p50_ms": (1e3 * lm["p50_s"], "ms"),
            "op_tail_ms": (1e3 * lm["tail_s"], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    listing = op_listing(runner, passes)
    env = environment(allocator)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "passes": [{"traced": p.traced, "seconds": p.seconds} for p in passes],
        "untraced": lm, "setup_s": setup_times, "peak_rss_mb": peak_rss_mb,
        "cpu_user_s": usage.ru_utime, "cpu_system_s": usage.ru_stime,
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "mismatches": runner.mismatches,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": listing,
    }
    details_path = OUT / f"{tag}.json"
    details_path.write_text(json.dumps(details, indent=1))
    if args.trace:
        spans_path = OUT / f"{tag}.spans.jsonl"
        recorder.write(spans_path)

    print("environment: " + json.dumps(env))
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops in "
          f"{len(passes)} passes ({len(traced)} traced), one closed-loop caller")
    print(*summary_lines(listing), sep="\n")
    for m in runner.mismatches:
        print("  MISMATCH " + m)
    for row in listing:
        if row["outcome"] == "wrong":
            print(f"  WRONG {row['id']} (seed {row['seed']}): {row['check']}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed}/{attempted}), "
          f"wrong_ratio = {wrong / attempted:.6g} ({wrong}/{attempted})")
    print(f"untraced: {lm['executions']} executions of {lm['ops']} ops, {lm['ok']} "
          f"answered correctly, in {lm['seconds']:.3f} s; an op's time is its fastest "
          f"repetition; p50 is the median over the {lm['ops']} ops, the tail is "
          f"p{lm['tail_percentile']:.2f} over the {lm['tail_samples']} faster halves "
          f"of each op's repetitions, the highest percentile with {TAIL_SAMPLES} "
          f"beyond it; a failed or wrong op "
          f"counts as one pass, {1e3 * lm['pass_s']:.1f} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"details: {details_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed + wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
