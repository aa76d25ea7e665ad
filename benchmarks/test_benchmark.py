"""Tests of the benchmark itself: the span recorder, the exact output checks
(including negative controls), seeded inputs and the result contract.

    python -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qrelay  # noqa: E402
import qrelay.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span_counts(recorder: spans.SpanRecorder) -> Counter:
    return Counter(recorder.names[i] for i in recorder.name_of)


def test_forced_single_hop_span_counts():
    psi = qrelay.make_state(3, [0.6, 0.0, 0.8j])
    original, original_init = qrelay.teleport_hop, qrelay.PureState.__post_init__
    with spans.SpanRecorder(qrelay) as recorder:
        qrelay.teleport_hop(psi, qrelay.CorrectionMode.LOCAL_EACH_HOP, forced=(2, 1))
    counts = span_counts(recorder)
    assert counts["teleport.teleport_hop"] == 1
    assert counts["teleport.prepare_hop"] == 1
    assert counts["teleport.hop_circuit"] == 1
    assert counts["teleport.measure_standard"] == 2
    assert counts["teleport.apply_correction"] == 1
    assert counts["core.PureState"] > 0
    # uninstalling restores every binding
    assert qrelay.teleport_hop is original
    assert qrelay.PureState.__post_init__ is original_init


def test_names_bound_in_other_modules_are_traced():
    psi = qrelay.make_state(2, [1.0, 0.0])
    config = qrelay.ChainConfig(2, 2, qrelay.CorrectionMode.LOCAL_EACH_HOP, qrelay.NoiseSpec.noiseless(2), 0)
    with spans.SpanRecorder(qrelay, op_function="chain.run_chain") as recorder:
        qrelay.enumerate_branches(config, psi)
    counts = span_counts(recorder)
    # chain binds teleport_hop by name; enumerate_branches calls run_chain per path
    assert counts["chain.enumerate_branches"] == 1
    assert counts["chain.run_chain"] == 4
    assert counts["teleport.teleport_hop"] == 8
    assert recorder.op_count == 4
    arrays = recorder.arrays()
    top = arrays["op"][arrays["parent"] < 0]
    assert set(top) == {-1}
    assert set(arrays["op"][arrays["op"] >= 0]) == {0, 1, 2, 3}


def test_self_times_sum_to_root_duration():
    argv = ["run", "--d", "2", "--n", "3", "--trials", "5", "--noise", "0.5,0.5", "--out", "/dev/null"]
    with spans.SpanRecorder(qrelay, op_function="chain.run_chain") as recorder:
        assert qrelay.cli.main(argv) == 0
    metrics = spans.layer_metrics(recorder, "cli.main", hops_per_call=15)
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert metrics["trace.root_s"] > 0
    assert abs(layers - metrics["trace.root_s"]) <= 1e-9
    assert metrics["chain.run_chain.calls"] == 5
    assert metrics["teleport.measure_standard.used_ratio"] == 0.5
    assert metrics["core.PureState.inits_per_hop"] > 1


def test_benchmark_json_per_layer_metrics_are_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with spans.SpanRecorder(qrelay) as recorder:
        qrelay.cli.main(["run", "--d", "2", "--n", "1", "--out", "/dev/null"])
    produced = set(spans.layer_metrics(recorder, "cli.main", hops_per_call=1))
    # the child adds these two from its untraced calls and workload shape
    produced |= {"trace.overhead_ratio", "chain.enumerate_branches.unique_hop_ratio"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_give_different_inputs_of_identical_size(name):
    a, b = workloads.make_inputs(name, 1), workloads.make_inputs(name, 2)
    assert workloads.make_inputs(name, 1) == a
    assert a["psi"] != b["psi"]
    assert {k: np.shape(v) for k, v in a.items()} == {k: np.shape(v) for k, v in b.items()}
    assert abs(np.linalg.norm(workloads.psi_of(a)) - 1.0) < 1e-15


# -- exact checks and negative controls ----------------------------------------


@pytest.fixture(scope="module")
def run_output():
    inputs = workloads.make_inputs("run_qutrit", 5)
    _, output = workloads.timed_call(qrelay, "run_qutrit", inputs)
    return inputs, output


def test_run_check_accepts_real_output(run_output):
    inputs, output = run_output
    assert workloads.check_run(output, inputs) == 0


def test_run_check_counts_a_corrupted_trial(run_output):
    inputs, (code, text) = run_output
    report = json.loads(text)
    report["trials"][17]["fidelity"] += 1e-9
    assert workloads.check_run((code, json.dumps(report)), inputs) == 1
    report = json.loads(text)
    report["trials"][3]["deferred_exponent"] = (report["trials"][3]["deferred_exponent"] + 1) % 3
    assert workloads.check_run((code, json.dumps(report)), inputs) == 1


def test_run_check_fails_every_trial_on_bad_histogram_or_exit(run_output):
    inputs, (code, text) = run_output
    report = json.loads(text)
    report["aggregate"]["outcome_histogram"][0] += 1
    assert workloads.check_run((code, json.dumps(report)), inputs) == workloads.RUN_TRIALS
    assert workloads.check_run((1, ""), inputs) == workloads.RUN_TRIALS


def fake_enumerate_report(psi: np.ndarray) -> dict:
    w = workloads.WORKLOADS["enumerate_d8"]
    paths = [
        {
            "path": [(i // w.d**k) % w.d for k in reversed(range(w.n))],
            "final_state": [[float(a.real), float(a.imag)] for a in psi],
        }
        for i in range(w.d**w.n)
    ]
    return {"paths": paths, "aggregate": {"path_count": len(paths), "probability_sum": 1.0}}


def test_enumerate_check_and_negative_controls():
    inputs = workloads.make_inputs("enumerate_d8", 3)
    report = fake_enumerate_report(workloads.psi_of(inputs))
    assert workloads.check_enumerate((0, json.dumps(report)), inputs) == 0
    report["paths"][100]["final_state"][2][1] += 1e-9
    assert workloads.check_enumerate((0, json.dumps(report)), inputs) == 1
    report = fake_enumerate_report(workloads.psi_of(inputs))
    report["paths"][7]["path"] = report["paths"][8]["path"]  # a duplicated path
    assert workloads.check_enumerate((0, json.dumps(report)), inputs) == 1
    report = fake_enumerate_report(workloads.psi_of(inputs))
    report["aggregate"]["probability_sum"] = 1.0 + 1e-9
    assert workloads.check_enumerate((0, json.dumps(report)), inputs) == 4096


def test_joint_check_and_negative_controls():
    inputs = workloads.make_inputs("joint_register", 3)
    psi = workloads.psi_of(inputs)

    def result(amps, entropies=(0.0,) * 6):
        return SimpleNamespace(final=SimpleNamespace(amps=amps), boundary_entropies=entropies)

    assert workloads.check_joint(result(psi), inputs) == 0
    assert workloads.check_joint(result(psi * np.exp(1e-9j)), inputs) == 1
    assert workloads.check_joint(result(psi, (0.0,) * 5 + (1e-9,)), inputs) == 1
    assert workloads.check_joint(ValueError("boom"), inputs) == 1


def test_joint_check_accepts_real_output():
    inputs = workloads.make_inputs("joint_register", 4)
    psi = qrelay.make_state(2, workloads.psi_of(inputs))
    result = qrelay.full_register_chain(2, 7, psi, [tuple(p) for p in inputs["path"]])
    assert workloads.check_joint(result, inputs) == 0


# -- the result contract ---------------------------------------------------------


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_result_line_contract():
    proc = run_benchmark(ROOT, "--workload", "run_qutrit", "--seed", "9", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "joint_register", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
