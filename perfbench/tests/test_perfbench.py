"""Self-tests of the benchmark (tiny scale; about a minute in all)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import calls
import churn
import common
import harness
import live

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("calls", "churn", "live")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(workload, trace, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [entry[:3] for entry in harness.PER_LAYER]
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    spec = _spec()
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert [
        (name, entry["unit"]) for name, entry in result["metrics"].items()
    ] == [(m["name"], m["unit"]) for m in wanted]
    human = "\n".join(lines[:-1])
    for metric in wanted:
        assert f"{metric['name']} " in human
    if trace:
        assert "traced digest == untraced digest" in human


@pytest.mark.parametrize("module", [calls, churn, live])
def test_inputs_follow_the_seed(module):
    first = module.input_fingerprint(5, "tiny")
    assert module.input_fingerprint(5, "tiny") == first
    assert module.input_fingerprint(6, "tiny") != first


def test_corrupted_answer_fails_the_check(monkeypatch):
    real_send = common.send

    def corrupting_send(client, payloads, epoch, on_query=None):
        served = real_send(client, payloads, epoch, on_query)
        body = json.loads(served.bodies[0])
        body["result"] = {"tampered": True}
        served.bodies[0] = json.dumps(body).encode("utf-8")
        return served

    monkeypatch.setattr(common, "send", corrupting_send)
    rep = calls.run(calls.setup(2, "tiny"))
    covered, failed = rep.checks["served answers == plan_query"]
    assert failed >= 1
    assert rep.failed >= 1 and rep.failed / rep.attempted > 0


def test_digest_mismatch_between_traced_and_untraced_fails(monkeypatch,
                                                          tmp_path):
    real_run = calls.run

    def drifting_run(state, obs=None):
        rep = real_run(state, obs)
        if obs is not None:
            rep.digest["tables"] = "0" * 64
        return rep

    monkeypatch.setattr(calls, "run", drifting_run)
    values, reps, _, attempted, failed = harness.run_traced(
        "calls", 2, "tiny", str(tmp_path), str(tmp_path)
    )
    assert failed >= reps[1].attempted
    assert values["error_rate"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = _run("calls", 0, cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert done.stdout == ""
