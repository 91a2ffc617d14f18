"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload pipeline|client|serve \\
        --seed N --seconds S --trace 0|1

Prints every metric by name, unit and sample count, the correctness
checks, and -- as the last line -- one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs the workload with ``repro.obs`` spans and aggregated entry-point
timers on and reports the per-layer metrics.  Each run also writes its
full result (provenance, metrics with sample counts, checks, layer
table, span rollup) to ``perfbench/out/``; ``perfbench/compare.py``
reads two such sets.

Every run reports every end-to-end metric, so each names one quantity
per workload (each workload's docstring says which):

==================  ====================  ===================  ==============
metric              pipeline              client               serve
==================  ====================  ===================  ==============
price_p50_ms        YAV replay observe    observe              /estimate
price_p90_ms        YAV replay observe    observe              /estimate
throughput_per_s    weblog rows/s         encrypted prices/s   service rate/s
install_ms          YAV install           YAV install          download+YAV
accuracy            price-class accuracy  price-class accuracy same, served
peak_rss_mb         this process          this process         server child
setup_s             interpreter import    train a package      train + start
==================  ====================  ===================  ==============

Timed metrics are read on a reference clock, each item's median over
identical repeats spread over the run (see ``common``).  Extras -- the
p99s, the pipeline time and its stages, the serve capacity and
generator lag -- are printed and recorded but not gated; ``error_share`` (failed / attempted, a failed correctness check
counting as a failure) likewise: it is 0 on a correct program.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
import time

from common import CPUS, OUT, ROOT, provenance, require_source

WORKLOADS = ("pipeline", "client", "serve")

#: Per-layer metric -> (end-to-end metric it should move, workloads).
#: ``pipeline_s`` is the pipeline extra that ``throughput_per_s`` of the
#: pipeline is computed from.
SHOULD_MOVE = {
    "trace.": ("pipeline_s; setup_s", "pipeline; client, serve"),
    "rtb.": ("pipeline_s", "pipeline"),
    "campaigns.": ("pipeline_s", "pipeline"),
    "analyzer.": ("pipeline_s", "pipeline"),
    "ml.train": ("pipeline_s, accuracy", "pipeline"),
    "ml.tree": ("pipeline_s, accuracy", "pipeline"),
    "ml.max_depth": ("pipeline_s, accuracy", "pipeline"),
    "ml.predict_batch": ("pipeline_s", "pipeline"),
    "ml.predict_one": ("price_p50_ms", "pipeline, client, serve"),
    "core.user_costs": ("pipeline_s", "pipeline"),
    "core.yav_replay": ("pipeline_s", "pipeline"),
    "core.package": ("pipeline_s", "pipeline"),
    "core.from_package": ("install_ms", "pipeline, client, serve"),
    "core.observe_parse": ("throughput_per_s, price_p50_ms",
                           "pipeline, client"),
    "serve.": ("price_p50_ms, price_p90_ms, throughput_per_s, error_share",
               "serve"),
    "obs.": ("none (guard)", "all"),
    "loadgen.": ("none (validity check)", "serve"),
}


def should_move(name: str) -> tuple[str, str]:
    prefix = max((p for p in SHOULD_MOVE if name.startswith(p)), key=len)
    return SHOULD_MOVE[prefix]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    require_source()
    # Terminated, a run still unwinds, so the server it started stops.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The workload, the processes it starts and the reference clock
    # share one core, so the clock reads the speed of the core the work
    # runs on (see ``common``; ``wl_serve`` says why the server shares it).
    os.sched_setaffinity(0, {CPUS[0]})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prov = provenance(args.seed)
    started = time.time()
    module = importlib.import_module(f"wl_{args.workload}")
    report = module.run(args.seed, args.seconds, bool(args.trace))
    prov["loadavg_1m_end"] = os.getloadavg()[0]
    prov["run_wall_s"] = time.time() - started
    prov["sizes"] = report["sizes"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = {m["name"]: float(report["layers"].get(m["name"], 0.0))
                  for m in wanted}
    else:
        values = {m["name"]: float(report["metrics"][m["name"]][0])
                  for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failed = int(report["attempted"]), int(report["failed"])
    correct = failed == 0 and all(report["checks"].values())

    _print_report(args, report, metrics, attempted, failed)
    OUT.mkdir(exist_ok=True)
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": prov,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_share": failed / attempted,
        "checks": report["checks"],
        "samples": {k: n for k, (_, _, n) in report.get("metrics", {}).items()},
        "extras": {k: {"value": v, "unit": u, "samples": n}
                   for k, (v, u, n) in report["extras"].items()},
        "metrics": metrics,
        **{k: report[k] for k in ("coverage", "spans") if k in report},
    }
    if args.trace:
        result["layer_table"] = [
            {"name": name, **m, **dict(zip(("should_move", "on"),
                                           should_move(name)))}
            for name, m in metrics.items()
        ]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_report(args, report, metrics, attempted, failed) -> None:
    print(f"== {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit, n) in {**report.get("metrics", {}),
                                   **report["extras"]}.items():
        print(f"  {name:<24} {value:>14.4f} {unit:<9} n={n}")
    print(f"  {'error_share':<24} {failed / attempted:>14.4f} {'fraction':<9} "
          f"n={attempted}")
    for name, ok in report["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    if args.trace:
        print("  per-layer (should move / on):")
        for name, m in metrics.items():
            moves, on = should_move(name)
            print(f"    {name:<30} {m['value']:>14.4f} {m['unit']:<7} "
                  f"{moves} / {on}")
        if "coverage" in report:
            cov = report["coverage"]
            print(f"  stages cover {cov['share']:.1%} of pipeline_s; "
                  f"unattributed {cov['unattributed_s']:.3f} s")
        if "spans" in report:
            print("  span rollup (count, total s, self s):")
            _print_spans(report["spans"], 2)


def _print_spans(node: dict, depth: int) -> None:
    for child in node["children"]:
        print(f"{'  ' * depth}{child['name']:<{40 - 2 * depth}} "
              f"{child['count']:>6} {child['total_s']:>10.3f} "
              f"{child['self_s']:>10.3f}")
        _print_spans(child, depth + 1)


if __name__ == "__main__":
    sys.exit(main())
