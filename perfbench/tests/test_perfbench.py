"""Tests for the repository benchmark (``perfbench``).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q

The smoke tests run every workload at a tiny virtual budget through the
real command line, so they exercise the fresh-process campaigns, the
digest gate (serial reference; trial-mp2 against steady-64k) and the
metric report exactly as a full run does.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())
TINY = "0.2"


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", list(WORKLOADS["workloads"]))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--virtual-seconds", TINY)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in out["metrics"].items()}
    for value in out["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        for name in ("execs_per_s", "setup_s", "peak_rss_mb",
                     "modeled_execs_per_s", "edges"):
            assert out["metrics"][name]["value"] > 0


def test_trial_mp2_matches_steady_and_serial_reference():
    spec = WORKLOADS["workloads"]
    tiny = float(TINY)

    def shrunk(name):
        return dict(spec[name], config=dict(spec[name]["config"],
                                            virtual_seconds=tiny))

    serial = child.run_campaign(shrunk("steady-64k"), 5, serial=True)
    steady = child.run_campaign(shrunk("steady-64k"), 5)
    mp = child.run_campaign(shrunk("trial-mp2"), 5)
    assert serial["digest"] == steady["digest"] == mp["digest"]
    assert mp["stopped_by"] == steady["stopped_by"] == "budget"
    other = child.run_campaign(shrunk("steady-64k"), 6)
    assert other["digest"] != steady["digest"]


def test_gate_rejects_mismatch_missing_and_exec_cap():
    good = {"stopped_by": "budget", "digest": "a"}
    assert run.gate(good, "a")
    assert not run.gate(good, "b")
    assert not run.gate(good, None)
    assert not run.gate(None, "a")
    assert not run.gate(dict(good, stopped_by="execs"), "a")


def test_span_accounting_nests_and_sums_to_fuzz_wall():
    spec = WORKLOADS["workloads"]["steady-64k"]
    spec = dict(spec, config=dict(spec["config"], virtual_seconds=0.3))
    recorder = spantrace.SpanRecorder()
    recorder.install()
    try:
        record = child.run_campaign(spec, 3, recorder=recorder)
    finally:
        recorder.uninstall()
    spans, table = recorder.arrays()
    parent = spans["parent"]
    inner = parent >= 0
    # Children nest inside their parents.
    assert np.all(spans["start"][inner] >= spans["start"][parent[inner]])
    assert np.all(spans["end"][inner] <= spans["end"][parent[inner]])
    # Self times of the fuzz subtree add up to the traced fuzz wall.
    names = np.array(table)[spans["name"]]
    root = np.flatnonzero((parent < 0) & (names == spantrace.FUZZ))
    assert root.size == 1
    in_fuzz = spantrace.roots(parent) == root[0]
    own = spantrace.self_times(spans)
    assert np.all(own >= -1e-9)
    wall = spans["end"][root[0]] - spans["start"][root[0]]
    assert own[in_fuzz].sum() == pytest.approx(wall, rel=1e-9, abs=1e-9)
    layers = spantrace.layer_metrics(recorder)
    assert layers["fuzz_wall_s"] == pytest.approx(wall)
    assert layers["fuzz_wall_s"] == pytest.approx(record["fuzz_s"],
                                                  rel=0.05, abs=0.01)
    # Every layer the workload loads reports work.
    for name in ("mutation.havoc_apply.s", "target.execute_batch.s",
                 "core.update_compare_batch.s", "campaign.self_s"):
        assert layers[name] > 0
    assert layers["mutation.rows"] == layers["target.execute_batch.rows"]


def test_self_time_subtracts_only_direct_children():
    recorder = spantrace.SpanRecorder()
    with recorder.span("a"):
        with recorder.span("b"):
            with recorder.span("c"):
                pass
        with recorder.span("d"):
            pass
    spans, _ = recorder.arrays()
    dur = spans["end"] - spans["start"]
    own = spantrace.self_times(spans)
    assert spans["parent"].tolist() == [-1, 0, 1, 0]
    assert own[0] == pytest.approx(dur[0] - dur[1] - dur[3])
    assert own[1] == pytest.approx(dur[1] - dur[2])
    assert own.sum() == pytest.approx(dur[0])


def test_uninstall_restores_every_entry_point():
    from repro.fuzzer.mutation import Mutator
    from repro.fuzzer import campaign
    before = (Mutator.havoc_apply, campaign.build_instrumentation)
    recorder = spantrace.SpanRecorder()
    recorder.install()
    assert Mutator.havoc_apply is not before[0]
    recorder.uninstall()
    assert (Mutator.havoc_apply, campaign.build_instrumentation) == before


def test_benchmark_json_matches_workload_record():
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name, spec in WORKLOADS["workloads"].items()
        if "dropped" not in spec]
    assert [m["name"] for m in SPEC["per_layer"]] == \
        list(WORKLOADS["metric_map"])
    record = {"execs_per_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0,
              "modeled_execs_per_s": 1.0, "edges": 1, "unique_crashes": 1}
    assert set(run.end_to_end([record], [1.0])) == \
        {m["name"] for m in SPEC["end_to_end"]}
    assert WORKLOADS["held_out_seed"] != WORKLOADS["default_seed"]
    for spec in WORKLOADS["workloads"].values():
        ref = spec["reference"]
        assert ref == "serial" or ref in WORKLOADS["workloads"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "steady-64k", "--seed", "3", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
