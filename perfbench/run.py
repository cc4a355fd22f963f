"""structprop benchmark: seeded corpora, timed pipelines, per-layer traces.

Run from the repository root::

    python3 perfbench/run.py --workload solve-planted --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and the tracing overhead.  Every metric is printed as a text line
with its unit; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics listed in ``BENCHMARK.json``.
The full result, host stamp and metric definitions go to
``.perfbench/<workload>-seed<n>-trace<t>.json``.  Logs go to stderr.

The benchmark imports structprop from ``src/`` next to this directory and
exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS_DIR = Path(".perfbench")


def host_stamp() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import metrics
    import workloads

    workload = workloads.WORKLOADS[name]
    log = workloads.run_workload(workload, seed, seconds, trace)
    workloads.check_repeats(log)
    kind = "layer" if trace else "e2e"
    values = workloads.per_layer(log) if trace else workloads.end_to_end(log, peak_rss_mb())
    attempted, failed = workloads.outcome(log)
    for line in workloads.failures(log):
        print(f"FAILED {name}: {line}", file=sys.stderr)
    shown = {k: {"value": v, "unit": metrics.BY_NAME[k].unit} for k, v in values.items()}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": {
            "untraced": len(log.passes),
            "traced": len(log.traced),
            "instances": len(log.setup.items),
            "first_pass_s": log.passes[0].wall,
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": shown,
        "gated": {m.name: shown[m.name] for m in metrics.gated(kind)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="solve-planted, detect-merged, feasibility or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "structprop" / "__init__.py").is_file():
        print(f"structprop sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import metrics
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or args.seconds <= 0:
        parser.error(f"unknown workload {args.workload!r} or non-positive --seconds")

    host = host_stamp()
    print(f"# host {json.dumps(host, sort_keys=True)}")
    results = []
    for name in names:
        print(f"# {name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
              file=sys.stderr)
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        results.append(result)
        p = result["passes"]
        print(f"# {name} instances={p['instances']} untraced_passes={p['untraced']} "
              f"traced_passes={p['traced']} first_pass_s={p['first_pass_s']:.2f} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, shown in result["metrics"].items():
            print(f"{name} {metric} = {_fmt(shown['value'])} {shown['unit']}".rstrip())

    RESULTS_DIR.mkdir(exist_ok=True)
    definitions = {m.name: {k: v for k, v in vars(m).items() if k != "name"}
                   for m in metrics.METRICS}
    out_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"host": host, "results": results, "definitions": definitions},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")

    if len(results) == 1:
        gated = results[0]["gated"]
    else:
        gated = {f"{r['workload']}.{k}": v for r in results for k, v in r["gated"].items()}
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": gated,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
