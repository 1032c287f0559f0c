"""End-to-end benchmark of the RTeAAL simulator: set-up time and lane-cycles/s.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gemmini-b16 --seed 1 --seconds 10 --trace 0

Each workload is measured in fresh Python processes (``child.py``):

1. ``prep`` (untimed): generate the seeded stimulus table and, for a
   warm workload, fill a new, empty artifact cache by building the
   engine once.  No cache outlives the run, so every run measures the
   artifacts of the code in the checkout.
2. ``measure``, in several fresh processes: time one set-up -- FIRRTL
   text to the engine constructor until the first testbench cycle is
   done (a cold workload starts each from an empty cache) -- then run
   an equal share of the timed testbench loop (poke every input, peek
   every output, ``step(1)``), then replay the first and last lane
   through the scalar SU simulator and compare every output.

``--trace 0`` prints the end-to-end metrics: ``lane_cps`` (median of
the 0.2 s loop samples of all processes, each scaled to a nominal host
speed by a probe taken right after it, except on rocket-cold-b256; see
``child.Probe`` and ``Workload.scale_loop``),
``setup_s`` (median over the processes of the set-up time, each scaled
the same way by probes taken right before and after it) and
``peak_rss_mb`` (the largest peak resident memory of a measured process
at the end of its set-up).  The unscaled figures are stored with the
result.  ``--trace 1`` runs
one traced process instead and prints the per-layer metrics: set-up
stage times in seconds, loop self times in microseconds per simulated
cycle, cache and exchange counters, and the untraced beside the traced
``lane_cps`` of the same process.  Spans go to
``.perfbench/trace-<workload>.jsonl``.

A run fails -- non-zero exit, every affected lane-cycle counted in
``failed`` -- when a sampled lane differs from the scalar reference,
when a compiled kernel falls back, or when cache hits, misses or new entries
contradict the cold/warm start.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import loop_rate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Everything the benchmark writes lives under this checkout directory.
WORK = ROOT / ".perfbench"

#: A measured process taking longer than this is a failure, not a result.
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"lane_cps": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in (
        "firrtl.parse", "firrtl.elaborate", "graph.build", "graph.optimize",
        "oim.build", "lower.program", "lower.emit_c", "lower.cc",
        "artifacts.get", "artifacts.put", "repcut.partition")},
    "lower.records": "count",
    "lower.c_bytes": "bytes",
    "lower.so_bytes": "bytes",
    "artifacts.hits": "count",
    "artifacts.misses": "count",
    "artifacts.corrupt_drops": "count",
    "repcut.replication": "fraction",
    **{f"{name}_us": "us/cycle" for name in (
        "batch.settle", "batch.commit", "batch.poke", "batch.peek",
        "shard.poke", "shard.peek", "shard.step_collect", "shard.apply_sync",
        "shard.coord", "shard.worker_max", "shard.transport_wait", "loop.other")},
    "batch.settles": "1/cycle",
    "activity.op_skip_rate": "fraction",
    "activity.lane_skip_rate": "fraction",
    "shard.rows_sent": "rows/cycle",
    "shard.rows_suppressed": "rows/cycle",
    "trace.lane_cps_untraced": "1/s",
    "trace.lane_cps_traced": "1/s",
    "trace.overhead": "fraction",
}


class BenchError(RuntimeError):
    """A measured process failed or printed no result."""


def host_record() -> Dict[str, object]:
    record: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    record["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        record["numpy"] = numpy.__version__
    except ImportError:
        record["numpy"] = None
    try:
        done = subprocess.run(["gcc", "--version"], capture_output=True,
                              text=True, timeout=30)
        record["gcc"] = done.stdout.splitlines()[0] if done.stdout else None
    except (OSError, subprocess.SubprocessError):
        record["gcc"] = None
    return record


def child_env(cache_dir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    # Compiler scratch files and loaded kernels stay inside the checkout.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_CC", None)
    return env


def run_child(args: List[str], cache_dir: Path) -> Dict[str, object]:
    # A process group of its own, so a timeout can stop the child with
    # anything it started, such as the C compiler.
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=child_env(cache_dir), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"child.py {args[0]} timed out") from error
    if child.returncode != 0:
        raise BenchError(
            f"child.py {args[0]} exited {child.returncode}:\n{stderr[-4000:]}"
        )
    if args[0] == "prep":
        return {}
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child.py {args[0]} printed no result")
    return json.loads(lines[-1])


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(workload_name: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, object]:
    """Run the workload's processes; returns the summary record."""
    workload = WORKLOADS[workload_name]
    WORK.mkdir(exist_ok=True)
    inputs = WORK / f"inputs-{workload_name}.pkl"
    cache_dir = fresh_dir(WORK / "cache" / workload_name)
    try:
        results = _measured_runs(workload, inputs, cache_dir, seed, seconds, trace)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    main = results[-1]
    problems = [p for r in results for p in r["problems"]]
    summary = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "engine": main["engine"],
        "cycles": sum(r["cycles"] for r in results),
        "setups_s": [r["setup_s"] for r in results],
        "setup_slowdowns": [r["setup_slowdown"] for r in results],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "problems": problems,
    }
    summary["failed_frac"] = summary["failed"] / summary["attempted"]
    if trace:
        layers = dict(main["layers"])
        for key in ("hits", "misses", "corrupt_drops"):
            layers[f"artifacts.{key}"] = main["cache"][key]
        layers["trace.lane_cps_untraced"] = main["lane_cps"]
        layers["trace.lane_cps_traced"] = main["lane_cps_traced"]
        layers["trace.overhead"] = main["lane_cps"] / main["lane_cps_traced"] - 1.0
        summary["metrics"] = {name: layers[name] for name in PER_LAYER_UNITS}
        summary["units"] = PER_LAYER_UNITS
        summary["dominant"] = dominant_layers(workload, layers)
    else:
        rates = [rate for r in results for rate in r["rates"]]
        slowdowns = [s for r in results for s in r["slowdowns"]]
        summary["lane_cps_raw"] = statistics.median(rates)
        summary["lane_cps_per_process"] = [
            loop_rate(workload, r["rates"], r["slowdowns"]) for r in results]
        summary["rates"] = rates
        summary["slowdowns"] = slowdowns
        summary["metrics"] = {
            "lane_cps": loop_rate(workload, rates, slowdowns),
            "setup_s": statistics.median(
                r["setup_s"] / r["setup_slowdown"] for r in results),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }
        summary["units"] = END_TO_END_UNITS
    return summary


def _measured_runs(workload, inputs: Path, cache_dir: Path, seed: int,
                   seconds: float, trace: bool) -> List[Dict[str, object]]:
    run_child(["prep", "--workload", workload.name, "--inputs", str(inputs),
               "--seed", str(seed)], cache_dir)

    def measured(extra: List[str]) -> Dict[str, object]:
        if workload.cache == "cold":
            fresh_dir(cache_dir)
        try:
            return run_child(["measure", "--workload", workload.name,
                              "--inputs", str(inputs), *extra], cache_dir)
        finally:
            shutil.rmtree(WORK / "tmp", ignore_errors=True)

    if trace:
        return [measured(["--seconds", str(seconds), "--trace", "1",
                          "--trace-out", str(WORK / f"trace-{workload.name}.jsonl")])]
    return [measured(["--seconds", str(seconds / workload.processes)])
            for _ in range(workload.processes)]


def dominant_layers(workload, layers: Dict[str, float]) -> Dict[str, object]:
    """The largest loop layer (and set-up stage) against the expected one."""
    loop = {k: v for k, v in layers.items()
            if k.endswith("_us") and k not in ("shard.worker_max_us",
                                               "shard.transport_wait_us")}
    top_loop = max(loop, key=loop.get)
    report: Dict[str, object] = {
        "loop": top_loop,
        "loop_expected": list(workload.dominant_loop),
        "loop_confirmed": top_loop in workload.dominant_loop,
    }
    if workload.dominant_setup:
        setup = {k: v for k, v in layers.items() if k.endswith("_s")}
        top_setup = max(setup, key=setup.get)
        report.update(setup=top_setup, setup_expected=list(workload.dominant_setup),
                      setup_confirmed=top_setup in workload.dominant_setup)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    host = host_record()
    print("host " + json.dumps(host), flush=True)
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    summary["host"] = host
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{tag}.json", "w") as handle:
        json.dump(summary, handle, indent=2)
    for problem in summary["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("run " + json.dumps({k: summary[k] for k in (
        "workload", "seed", "engine", "cycles", "setups_s", "failed_frac",
        "setup_slowdowns",
        "lane_cps_raw", "lane_cps_per_process") if k in summary}))
    if "dominant" in summary:
        print("dominant " + json.dumps(summary["dominant"]))
    correct = summary["failed"] == 0 and not summary["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": summary["units"][name]}
            for name, value in summary["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
