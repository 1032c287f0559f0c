"""Tests of the benchmark itself: smoke-sized runs of every workload, the
oracle check, and the failure count of a deliberately wrong reference.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

pytest.importorskip("numpy")
if shutil.which("gcc") is None and shutil.which("cc") is None:
    pytest.skip("the compiled workloads need a C compiler", allow_module_level=True)

import child  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, monkeypatch, capsys):
    # One measured process per run keeps the smoke runs short.
    monkeypatch.setitem(run.WORKLOADS, workload,
                        dataclasses.replace(WORKLOADS[workload], processes=1))
    status = run.main(["--workload", workload, "--seed", "7",
                       "--seconds", "0.5", "--trace", str(trace)])
    captured = capsys.readouterr()
    assert status == 0, captured.err[-3000:]
    return json.loads(captured.out.strip().splitlines()[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric_and_passes_the_oracle(workload, monkeypatch,
                                                            capsys):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace, monkeypatch, capsys)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= WORKLOADS[workload].lanes
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
    assert result["metrics"]["trace.lane_cps_traced"]["value"] > 0


def test_wrong_reference_is_counted_as_failed(tmp_path, monkeypatch, capsys):
    from repro.serve import artifacts

    workload = "gemmini-b16"
    inputs = str(tmp_path / "inputs.pkl")
    real_reference = child.scalar_reference

    def wrong_reference(*args):
        reference = real_reference(*args)
        first = reference[0]
        reference[0] = (first[0] ^ 1,) + tuple(first[1:])
        return reference

    monkeypatch.setattr(child, "scalar_reference", wrong_reference)
    try:
        artifacts.configure_cache(tmp_path / "cache")
        assert child.main(["prep", "--workload", workload, "--inputs", inputs,
                           "--seed", "7"]) == 0
        capsys.readouterr()
        # A fresh handle on the now-warm cache, so prep's misses don't count.
        artifacts.configure_cache(tmp_path / "cache")
        assert child.main(["measure", "--workload", workload, "--inputs", inputs,
                           "--seconds", "0.3"]) == 0
    finally:
        artifacts.disable_cache()
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # One wrong cycle of the reference, replayed for both sampled lanes.
    assert result["failed"] == len(child.checked_lanes(WORKLOADS[workload].lanes))
    assert any("differ from the scalar reference" in p for p in result["problems"])
