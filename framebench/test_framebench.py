"""Self-tests of the framelab benchmark on tiny corpora (n <= 3).

Run from the root of the repository:

    python3 -m pytest framebench -q
"""

import dataclasses
import json
import random
import shutil
import subprocess
import time
import types

import pytest

import run
from layertrace import Tracer
from pace import Meter, NOMINAL_S

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def fl():
    modules, _ = run.load_framelab()
    return modules


def tiny(name, size=3):
    return dataclasses.replace(run.WORKLOADS[name], size=size)


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_workload_runs_and_emits_the_declared_metrics(fl, name, trace):
    result, _ = run.run_workload(tiny(name), 1, 1, bool(trace), fl, 0.01)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_a_wrong_pinned_hash_is_a_failure(fl, name, monkeypatch):
    monkeypatch.setitem(run.PINS, 3, ("0" * 16, run.PINS[3][1]))
    result, _ = run.run_workload(tiny(name), 1, 1, False, fl, 0.01)
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] < 1


def _failing(lattice, corpus, cap):
    return {"planted": True}


def _raising(lattice, corpus, cap):
    raise RuntimeError("planted")


@pytest.mark.parametrize("validator", [_failing, _raising])
def test_a_failing_or_raising_validator_is_a_failure(fl, validator, monkeypatch):
    monkeypatch.setitem(fl.duality._VALIDATORS, "cenSubReg", validator)
    result = run.sweep_pass(fl, tiny("sweep-n6-local"), random.Random(1))
    entries = run.PINS[3][1]
    names = len(fl.duality.VALIDATOR_NAMES)
    # a raise loses the whole validate_all call, a fail only its own report
    expected = entries * (names if validator is _raising else 1)
    assert result.failed == expected
    assert result.attempted == 1 + entries * names


def test_a_missing_report_is_a_failure(fl, monkeypatch):
    original = fl.duality.validate_all
    monkeypatch.setattr(
        fl.duality, "validate_all", lambda *args: original(*args)[:-1]
    )
    result = run.sweep_pass(fl, tiny("sweep-n6-local"), random.Random(1))
    assert result.failed == run.PINS[3][1]


def test_the_seed_changes_the_order_but_not_the_reports(fl):
    workload = tiny("sweep-n5-homs")
    first = run.sweep_pass(fl, workload, random.Random(1)).records
    second = run.sweep_pass(fl, workload, random.Random(2)).records
    assert first != second
    assert sorted(first) == sorted(second)


def test_the_traced_pass_reports_what_the_untraced_pass_reports(fl):
    workload = tiny("sweep-n5-homs")
    plain = run.sweep_pass(fl, workload, random.Random(5))
    tracer = Tracer()
    traced = run.sweep_pass(fl, workload, random.Random(5), tracer)
    assert traced.failed == 0
    assert traced.records == plain.records
    assert tracer.fold()["lattices.enumerate_homs"][0] > 0
    assert not hasattr(fl.lattices.hom_predicate, "__wrapped__")
    assert not hasattr(fl.posets.Poset.canonical, "__wrapped__")


def test_record_mismatches_sees_a_changed_status():
    records = [("a", "coreChain", "pass", "null"), ("b", "coreChain", "pass", "null")]
    assert run.record_mismatches(records, records[::-1]) == 0
    changed = [records[0], ("b", "coreChain", "fail", "null")]
    assert run.record_mismatches(records, changed) == 2


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_of_nested_spans_sum_to_the_parent():
    module = types.ModuleType("synthetic")
    module._busy = _busy
    exec(
        "def leaf():\n    _busy(0.002)\n"
        "def middle():\n    leaf()\n    _busy(0.002)\n    leaf()\n"
        "def top():\n    middle()\n    _busy(0.002)\n    leaf()\n",
        vars(module),
    )
    tracer = Tracer()
    for name in ("leaf", "middle", "top"):
        setattr(module, name, tracer.wrap(name, getattr(module, name)))
    module.top()
    folded = tracer.fold()
    assert {k: v[0] for k, v in folded.items()} == {"leaf": 3, "middle": 1, "top": 1}
    top_duration = folded["top"][2]
    assert sum(v[1] for v in folded.values()) == pytest.approx(top_duration, rel=1e-9)
    assert folded["middle"][1] == pytest.approx(
        folded["middle"][2] - 2 * folded["leaf"][2] / 3, rel=0.2
    )
    for calls, self_s, _ in folded.values():
        assert self_s >= 0.0015 * calls


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.ROOT / "framebench", tmp_path / "framebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        BENCHMARK["command"]
        + ["--workload", "build-n6", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_units_are_scaled_by_the_pace_sampled_around_them():
    meter = Meter()
    meter.units = [(0.0, 1.0), (5.0, 5.2), (10.0, 10.5)]
    meter.samples = [(0.9, 0.002), (1.1, 0.004), (10.4, 0.0005)]
    # the middle unit has no sample within the window and takes the nearest
    assert meter.scaled() == pytest.approx(
        [1.0 * NOMINAL_S / 0.002, 0.2 * NOMINAL_S / 0.004, 0.5 * NOMINAL_S / 0.0005]
    )
    assert meter.measured() == pytest.approx([1.0, 0.2, 0.5])
