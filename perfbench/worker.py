"""One benchmark run, in a process of its own: set up, work, check.

    python3 perfbench/worker.py '<JSON options>'

Options: ``mode`` ("fixture" or "run"); for "fixture", ``path`` and
``params``; for "run", ``workload``, ``seed``, ``fixture``, ``trace``,
``setup_only`` and, when traced, ``spans_out``.  The last line of standard
output is one JSON object describing the run.  ``run.py`` starts this
script; it is not meant to be called by hand.
"""

import time

T0 = time.perf_counter()  # before ipcnn (and numpy) are imported

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def run(opts: dict) -> dict:
    import workloads  # imports numpy and ipcnn: counted in set-up

    tracer = tracing.Tracer()
    cfg, data, model = workloads.setup(tracer, Path(opts["fixture"]))
    workload = workloads.WORKLOADS[opts["workload"]](cfg, data, model,
                                                      opts["seed"])
    t_work = time.perf_counter()
    out = {"setup_s": t_work - T0}
    if opts["setup_only"]:
        return out

    if opts["trace"]:
        with tracing.instrument(tracer, workloads.MODULES, workload.models):
            items = workload.work()
    else:
        items = workload.work()
    t_end = time.perf_counter()
    out.update(
        work_s=t_end - t_work,
        wall_s=t_end - T0,
        items=items,
        rates=workload.block_rates(items, t_end - t_work),
        # Linux reports ru_maxrss in KiB; taken before the checks allocate
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    out["checks"] = workload.check()
    out["environment"] = workloads.environment(model)
    if opts["trace"]:
        tracer.dump(Path(opts["spans_out"]))
        spans = tracer.summary()
        draws = tracer.counts.get("noise_draws", 0)
        samples = tracer.counts.get("conv1.samples", 0)
        sweep = spans.get("hybrid.sweep_imbalance")
        trials = spans.get("hybrid.infer_hybrid", {"s": 0.0})
        out["spans"] = spans
        out["extras"] = {
            "analog.noise_draws_per_sample": draws / samples if samples else 0,
            "hybrid.sweep.pool_utilization":
                trials["s"] / (workload.threads * sweep["s"]) if sweep else 0,
            "trace.overhead_s": tracing.span_cost() * len(tracer.spans),
            "analog.forward_batch.conv1.peak_mib": 0.0,
            "analog.forward_batch.conv2.peak_mib": 0.0,
            **workload.peak_probe(),
        }
    return out


def main() -> int:
    opts = json.loads(sys.argv[1])
    try:
        if opts["mode"] == "fixture":
            import workloads
            workloads.build_fixture(opts["path"], opts["params"])
            result = {"ok": True}
        else:
            result = run(opts)
            checks = result.get("checks", {})
            result["ok"] = all(c["ok"] for c in checks.values())
    except Exception:  # a failed run is reported, not raised
        result = {"ok": False, "error": traceback.format_exc()}
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
