"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The workloads run at their smoke size; the full sizes run only through
``run.py``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace, tmp_path):
    results = tmp_path / "results.jsonl"
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace,
                "--size", "smoke", "--results", str(results))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= run.MIN_REPEATS
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    record = json.loads(results.read_text())
    assert record["result"] == result and record["env"]["src_lines"] > 0


def test_spec_matches_the_benchmark():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [m["name"] for m in SPEC["per_layer"]] == run.per_layer_names()
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "campaign", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_depend_only_on_the_seed(tmp_path):
    made = []
    for name in ("a", "b", "c"):
        work = tmp_path / name
        work.mkdir()
        prepared = workloads.prepare("scenario_long", 7 if name != "c" else 8, work, "smoke", ROOT)
        made.append(((work / "leader.json").read_bytes(), prepared.argv))
    assert made[0] == made[1]
    assert made[0] != made[2]


def _brute_worst_slack(ids, n0, na):
    prefix = np.concatenate(([0, 0], np.cumsum(np.diff(ids) != 0)))
    k = len(ids)
    return min(n0 + (b - a) / na - (prefix[b] - prefix[a])
               for a in range(k + 1) for b in range(a, k + 1))


def test_worst_slack_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ids = rng.integers(0, 3, size=int(rng.integers(1, 40)))
        na = float(rng.uniform(0.5, 4.0))
        assert workloads.worst_slack(ids, 1.5, na) == pytest.approx(
            _brute_worst_slack(ids, 1.5, na), abs=1e-12)


def test_edge_signal_sits_on_the_budget_edge():
    ids = workloads.edge_signal(np.random.default_rng(1), 2000)
    slack = workloads.worst_slack(ids, workloads.SIGNAL_N0, float(workloads.SIGNAL_NA))
    assert abs(slack) <= 1e-9


def test_snapshot_masks_only_the_duration(tmp_path):
    (tmp_path / "run_manifest.json").write_text('{\n  "duration_seconds": 1.25,\n  "seed": 3\n}\n')
    first = run.snapshot(tmp_path)
    (tmp_path / "run_manifest.json").write_text('{\n  "duration_seconds": 9.5,\n  "seed": 3\n}\n')
    assert run.snapshot(tmp_path) == first
    (tmp_path / "run_manifest.json").write_text('{\n  "duration_seconds": 9.5,\n  "seed": 4\n}\n')
    assert run.snapshot(tmp_path) != first


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer(clock=_FakeClock())
    leaf = tracer.wrap(lambda: None, "leaf")
    middle = tracer.wrap(lambda: (leaf(), leaf()), "middle")
    outer = tracer.wrap(lambda: middle(), "outer")
    outer()
    assert tracer.self_times() == {"leaf": 2.0, "middle": 3.0, "outer": 2.0}
    assert tracer.call_counts() == {"leaf": 2, "middle": 1, "outer": 1}
    assert list(tracer.parent) == [-1, 0, 1, 1]


def test_missing_names_are_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "PATCHES", tracing.PATCHES + (
        ("switchcert.no_such_module", None, "f", "gone", None),
        ("switchcert.cli", None, "no_such_function", "gone", None),
        ("switchcert.switching", "NoSuchClass", "request", "gone", None),
    ))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import switchcert.cli
    import switchcert.switching

    saved = {}
    for module_name, class_name, attr, _, _ in tracing.PATCHES:
        module = sys.modules.get(module_name)
        owner = getattr(module, class_name, None) if class_name else module
        if owner is not None and attr in vars(owner):
            saved[(owner, attr)] = vars(owner)[attr]
    try:
        missing = tracing.install(tracing.Tracer())
        supervisor = switchcert.switching.Supervisor(
            0, switchcert.switching.DwellTimeBudget(2.0, 1.5))
        assert supervisor.request(0) is True
    finally:
        for (owner, attr), value in saved.items():
            setattr(owner, attr, value)
    assert missing == ["switchcert.no_such_module.f", "switchcert.cli.no_such_function",
                       "switchcert.switching.NoSuchClass.request"]
    metrics = tracing.layer_metrics(tracing.Tracer())
    assert all(value == 0.0 for value in metrics.values())


def _write_results(path, workload, walls):
    with open(path, "w") as fh:
        for seed, wall in enumerate(walls):
            fh.write(json.dumps({"workload": workload, "seed": seed, "result": {
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}}) + "\n")


@pytest.mark.parametrize("change, expected", [
    ([1.0 + 0.001 * i for i in range(10)], "-"),
    ([0.5 + 0.001 * i for i in range(10)], "gain"),
    ([1.5 + 0.001 * i for i in range(10)], "REGRESSION"),
])
def test_compare_applies_the_pair_rule(tmp_path, capsys, change, expected):
    base = [1.0 + 0.001 * ((7 * i) % 10) for i in range(10)]
    _write_results(tmp_path / "base.jsonl", "campaign", base)
    _write_results(tmp_path / "change.jsonl", "campaign", change)
    code = compare.main([str(tmp_path / "base.jsonl"), str(tmp_path / "change.jsonl")])
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("wall_s"))
    assert row.split()[-1] == expected
    assert code == (1 if expected == "REGRESSION" else 0)


def test_compare_marks_a_spread_wider_than_the_bound_unresolved():
    spec = {"better": "lower", "bound": 0.1}
    base = [1.0, 1.5, 0.7, 1.2, 0.9]
    change = [1.05, 1.4, 0.8, 1.3, 0.95]
    assert compare.verdict(spec, base, change, list(zip(base, change))) == "unresolved"
    faster = [0.5, 0.55, 0.6, 0.52, 0.58]
    assert compare.verdict(spec, base, faster, list(zip(base, faster))) == "gain"
