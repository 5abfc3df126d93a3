"""Host-time benchmark of the ipcnn simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Each run is a child process (``worker.py``) that sets up, does one
workload's fixed work, and checks the output, so that peak memory is counted
per run.  Runs repeat until ``--seconds`` is spent (at least one).  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics, taken from traced runs only.  A full report (every run, every
check, the environment) is written under ``perfbench/out/``.  The exit code is 0 only when every run passed its
checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
CACHE_DIR = HERE / ".cache"
WORKER = HERE / "worker.py"

WORKLOADS = ("infer-noisy", "sweep-imbalance", "train", "oracle")

# BLAS and OpenMP pools stay at one thread; sweep-imbalance's pool of two
# then matches the two cores the benchmark is sized for.
THREAD_VARS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}

# The benchmark's own model: one deterministic epoch on the synthetic set.
FIXTURE_PARAMS = {"epochs": 1, "learning_rate": 0.01, "momentum": 0.9,
                  "batch_size": 64, "seed": 0}

SETUP_SAMPLES = 9          # set-ups timed per invocation, at least
RUN_DEADLINE_S = 170       # whole invocation, after the fixture exists
FIXTURE_TIMEOUT_S = 600


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child(opts: dict, timeout: float) -> dict:
    env = {**os.environ, **THREAD_VARS}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(opts)], env=env,
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False,
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}


def ensure_fixture() -> tuple[Path, str]:
    """Path and cache key of the model, training it if the key is new.

    The key covers the package source and the training parameters, so a
    model from other code is never reused.
    """
    package = ROOT / "src" / "ipcnn"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no ipcnn package under {package}")
    h = hashlib.sha256(json.dumps(FIXTURE_PARAMS, sort_keys=True).encode())
    for f in sorted(package.rglob("*.py")):
        h.update(f.relative_to(package).as_posix().encode())
        h.update(f.read_bytes())
    key = h.hexdigest()[:16]
    path = CACHE_DIR / f"model-{key}.npz"
    if path.is_file():
        return path, key
    CACHE_DIR.mkdir(exist_ok=True)
    for stale in CACHE_DIR.glob("model-*.npz"):
        stale.unlink()
    partial = CACHE_DIR / f"partial-{key}.npz"
    result = _child({"mode": "fixture", "path": str(partial),
                     "params": FIXTURE_PARAMS}, FIXTURE_TIMEOUT_S)
    if not result["ok"]:
        raise BenchmarkError(f"fixture training failed: {result['error']}")
    partial.replace(path)
    return path, key


def _median(values):
    return statistics.median(values) if values else None


def tail(values: list[float]) -> dict | None:
    """Highest percentile of the runs with at least ten runs above it."""
    n = len(values)
    if n < 20:
        return None
    return {"percentile": 100 * (n - 10) / n, "value": sorted(values)[n - 11]}


def _run_opts(workload, seed, fixture, trace=False, setup_only=False,
              spans_out=None) -> dict:
    return {"mode": "run", "workload": workload, "seed": seed,
            "fixture": str(fixture), "trace": trace,
            "setup_only": setup_only, "spans_out": spans_out}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            fixture: Path) -> tuple[list[dict], list[float]]:
    """Runs and extra set-up times of one invocation."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    start = time.perf_counter()
    runs, setups = [], []
    while True:
        spans_out = (str(OUT_DIR / f"spans-{workload}-seed{seed}"
                             f"-run{len(runs)}.json") if trace else None)
        runs.append(_child(_run_opts(workload, seed, fixture, trace=trace,
                                     spans_out=spans_out),
                           deadline - time.perf_counter()))
        if not runs[-1]["ok"]:
            break
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runs) > seconds:
            break
    if not trace and all(r["ok"] for r in runs):
        while len(runs) + len(setups) < SETUP_SAMPLES:
            r = _child(_run_opts(workload, seed, fixture, setup_only=True),
                       deadline - time.perf_counter())
            if not r["ok"]:
                runs.append(r)
                break
            setups.append(r["setup_s"])
    return runs, setups


def first_decile(values: list[float]) -> float:
    """1st decile of ``values``, interpolated between them."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def end_to_end(runs: list[dict], setups: list[float]) -> dict:
    """The invocation's metrics.

    On a shared host the speed of interpreted code jumps, for seconds at a
    time, between a slow level that nearly every invocation reaches and
    faster levels, up to twice as fast, that come and go with the
    neighbours' load.  A median of short runs lands on whichever level
    lasted longest, so the timings of the work are read at the slow end:
    ``wall_s`` is the slowest run and ``samples_per_s`` the 1st decile of
    the timed blocks' rates.  A workload whose run lasts most of an
    invocation makes one run of one block, which these read as it is.
    """
    ok = [r for r in runs if r["ok"]]
    return {
        "setup_s": _median([r["setup_s"] for r in ok] + setups),
        "wall_s": max(r["wall_s"] for r in ok),
        "samples_per_s": first_decile([x for r in ok for x in r["rates"]]),
        "peak_rss_mib": _median([r["peak_rss_mib"] for r in ok]),
    }


def per_layer(names: list[str], runs: list[dict]) -> dict:
    """Median over the traced runs of each declared per-layer metric.

    ``<span>.s``, ``<span>.calls`` and ``<span>.self_s`` read the span
    totals; a span the workload never reached reads 0, but a span no traced
    run can record is an error.  Other names are figures the worker
    computed, ``trace.overhead_s`` among them.
    """
    known = tracing.span_names()
    values = {}
    for name in names:
        if name in runs[0]["extras"]:
            values[name] = _median([r["extras"][name] for r in runs])
            continue
        span, _, field = name.rpartition(".")
        if field not in ("s", "calls", "self_s") or span not in known:
            raise BenchmarkError(f"per-layer metric {name!r} is not measured")
        values[name] = _median([r["spans"].get(span, {}).get(field, 0)
                                for r in runs])
    return values


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, key: str, runs: list[dict]) -> dict:
    child_env = next((r["environment"] for r in runs if "environment" in r),
                     {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **child_env,
        "threads": THREAD_VARS,
        "workload_seed": seed,
        "fixture_key": key,
        "src_lines": sum(len(f.read_bytes().splitlines())
                         for f in (ROOT / "src").rglob("*.py")),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool,
          spec: dict) -> dict:
    fixture, key = ensure_fixture()
    runs, setups = measure(workload, seed, seconds, trace, fixture)
    failed = sum(not r["ok"] for r in runs)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    if not failed:
        if trace:
            values = per_layer([m["name"] for m in declared], runs)
        else:
            values = end_to_end(runs, setups)
        for m in declared:
            if m["name"] not in values:
                raise BenchmarkError(f"metric {m['name']!r} is not measured")
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    walls = [r["wall_s"] for r in runs if r["ok"]]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "result": {"correct": failed == 0, "attempted": len(runs),
                   "failed": failed, "metrics": metrics},
        "wall_s_distribution": {"runs": len(walls), "median": _median(walls),
                                "tail": tail(walls)},
        "setup_only_s": setups,
        "environment": environment(seed, key, runs),
        "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs],
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1))
    report["path"] = path.relative_to(ROOT).as_posix()
    return report


def _print_metrics(reports: list[dict]) -> None:
    for rep in reports:
        res = rep["result"]
        print(f"{rep['workload']}: {res['attempted']} runs, "
              f"{res['failed']} failed, report {rep['path']}")
        for name, m in res["metrics"].items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds or spec["run_seconds"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = [bench(w, args.seed, seconds, bool(args.trace), spec)
                   for w in names]
    except (BenchmarkError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for rep in reports:
        for r in rep["runs"]:
            if not r["ok"]:
                print(f"{rep['workload']}: failed run: "
                      f"{r.get('error') or r.get('checks')}", file=sys.stderr)
    results = [rep["result"] for rep in reports]
    _print_metrics(reports)
    if len(reports) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{rep['workload']}.{k}": v for rep in reports
                        for k, v in rep["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
