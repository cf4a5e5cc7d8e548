"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

from perfbench import checks, run, trace, workloads

package = workloads.import_diskinterp()
from diskinterp import cli  # noqa: E402


def _ops(tmp_path, workload: str, seed: int = 3):
    workloads.generate(workload, seed, tmp_path)
    return run.load_ops(tmp_path)


def _smallest(ops):
    """The first op of each distinct size and kind."""
    seen, out = set(), []
    for op in ops:
        if (op.n, op.kind) not in seen:
            seen.add((op.n, op.kind))
            out.append(op)
    return out


def test_generation_is_deterministic_per_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        dirs = [tmp_path / f"{workload}-{k}" for k in ("a", "b", "c")]
        for d, seed in zip(dirs, (5, 5, 6)):
            d.mkdir()
            workloads.generate(workload, seed, d)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        assert (dirs[0] / workloads.MANIFEST).read_bytes() != (
            dirs[2] / workloads.MANIFEST).read_bytes()


# Where to corrupt each workload's report: the first digit of the number
# that follows these markers, in order.
CORRUPTIONS = {
    "chain": ('"step_a"', '"value": '),
    "interpolate": ('"schur_parameters"', '"re": '),
    "field": ("\n", ",", ","),
    "analyze": ('"per_point"', '"modulus": '),
}


def _corrupt(text: str, markers) -> str:
    at = 0
    for marker in markers:
        at = text.index(marker, at) + len(marker)
    while not text[at].isdigit():
        at += 1
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_a_changed_number_is_flagged_wrong(tmp_path, workload):
    op = next(op for op in _ops(tmp_path, workload) if op.n <= 128)
    _, rc, text = run.Runner(workload, [op], cli, checks, None).call(op, traced=False)
    assert rc == 0
    assert checks.check(workload, op.points, op.argv, rc, text) is None
    bad = _corrupt(text, CORRUPTIONS[workload])
    assert bad != text
    assert checks.check(workload, op.points, op.argv, rc, bad) is not None


def test_chain_exit_code_must_match_report(tmp_path):
    ops = _ops(tmp_path, "chain")
    _, rc, text = run.Runner("chain", ops, cli, checks, None).call(ops[0], traced=False)
    assert rc == 0
    assert "exit code" in checks.check("chain", ops[0].points, ops[0].argv, 2, text)


class _RaisingCli:
    @staticmethod
    def main(argv):
        raise RuntimeError("boom")


def test_nonzero_exits_and_exceptions_count_as_failures(tmp_path):
    op = _ops(tmp_path, "analyze")[0]
    missing = run.Op(op.id, op.n, op.seed, op.kind, ["analyze", str(tmp_path / "none.json")],
                     op.points)
    runner = run.Runner("analyze", [missing], cli, checks, None)
    assert runner.execute(0, traced=False)[1] == "fail"
    assert runner.first[0].exit == 1
    runner = run.Runner("analyze", [op], _RaisingCli, checks, None)
    assert runner.execute(0, traced=False)[1] == "fail"
    assert runner.first[0].exit == "RuntimeError"


@pytest.mark.parametrize("workload", ["interpolate", "field", "analyze"])
def test_traced_bypass_workloads_never_call_hoffman(tmp_path, workload):
    ops = _smallest(_ops(tmp_path, workload))
    recorder = trace.Recorder(package)
    runner = run.Runner(workload, ops, cli, checks, recorder)
    untraced = [runner.execute(i, traced=False) for i in range(len(ops))]
    with recorder.installed():
        traced = [runner.execute(i, traced=True) for i in range(len(ops))]
    assert not runner.mismatches, "tracing changed an op's output"
    assert [o for _, o in traced] == [o for _, o in untraced]
    metrics = trace.layer_metrics(recorder, passes=1)
    hoffman = {k: v for k, (v, _) in metrics.items() if k.startswith("hoffman.")}
    assert hoffman and all(v == 0 for v in hoffman.values()), hoffman
    assert metrics["cli.calls"][0] == len(ops)


def test_trace_covers_every_layer_on_chain_and_restores_bindings(tmp_path):
    ops = [op for op in _ops(tmp_path, "chain") if op.n == 8][:1]
    recorder = trace.Recorder(package)
    runner = run.Runner("chain", ops, cli, checks, recorder)
    original = package.hoffman.decompose
    with recorder.installed():
        assert package.hoffman.decompose is not original
        runner.execute(0, traced=True)
    assert package.hoffman.decompose is original
    assert package.cli.verify_theorem_chain is package.harness.verify_theorem_chain
    layers = {name.split(".")[0] for name, *_ in recorder.spans}
    assert layers == set(trace.LAYERS)
    metrics = trace.layer_metrics(recorder, passes=1)
    assert metrics["hoffman.decompose.calls"][0] == 1
    assert metrics["hoffman.partition_evals"][0] == 127 * metrics["hoffman.grid_points"][0]
    for name in ("cli", "harness", "hoffman", "pick", "blaschke", "geometry"):
        assert metrics[f"{name}.self_s"][0] > 0


def test_latency_metrics_take_fastest_runs_and_charge_failures_a_pass():
    ok = [(i, 0.001 * (i + 1), "ok") for i in range(20)]
    bad = [(20 + i, 0.5, "fail") for i in range(11)]
    slow = [(i, 2 * s, outcome) for i, s, outcome in ok + bad]
    lm = run.latency_metrics([run.Pass(False, r) for r in (ok + bad, slow, ok + bad)])
    pass_s = sum(s for _, s, _ in ok + bad)
    assert lm["pass_s"] == pytest.approx(pass_s)
    assert lm["ops_per_s"] == pytest.approx(20 / pass_s)
    assert lm["p50_s"] == pytest.approx(0.016)  # rank 16 of 31 ops
    # The tail takes the faster 2 of each op's 3 runs: 62 samples, the
    # 22 of the failed ops at the top.
    assert lm["tail_samples"] == 62
    assert lm["tail_s"] == lm["pass_s"]
    assert lm["tail_percentile"] == pytest.approx(100 * 52 / 62)
    lm = run.latency_metrics([run.Pass(False, r) for r in (ok, slow[:20], ok)])
    assert lm["tail_s"] == pytest.approx(0.015)  # rank 30 of 40 samples


def test_run_length_depends_only_on_the_arguments():
    for workload in workloads.WORKLOADS:
        count = run.pass_count(workload, 18, trace=False)
        assert count == run.pass_count(workload, 18, trace=False) >= run.MIN_PASSES
        assert run.pass_count(workload, 18, trace=True) % 2 == 0
        assert run.pass_count(workload, 0.01, trace=False) == run.MIN_PASSES


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
    assert "cannot run" in proc.stderr
