"""``pipeline``: the PME back-end as one batch job, no arrival loop.

One pass simulates dataset D, analyses it, runs the A1/A2 probe
campaigns, trains, packages, scores every user's cost and replays the
users through YourAdValue -- the steps of ``quickstart_pipeline``.
Dataset D comes from the workload seed; the
market the probe campaigns run in, and the PME, from ``MODEL_SEED``,
as in the other workloads: markets of different seeds differ ~30% in
probe and training work and forests in per-row inference cost, which
would make pass time a property of the seed rather than of the code.
A run makes ``repeats`` identical passes, a number that follows
``--seconds`` alone, so each stage is timed ``repeats`` times on the
reference clock and its median kept (see ``common``); the pipeline
time is the sum of the stages' medians.

Metrics: ``setup_s`` is starting the program -- the batch job has no
inputs to prepare -- i.e. a fresh interpreter importing the package,
timed before every pass, median reported.  ``throughput_per_s`` is
weblog rows per second of pipeline time.  ``price_p*_ms`` and
``install_ms`` come from the YourAdValue replay, each encrypted row's
and each install's median time over the repeats.  ``accuracy`` is the
model's price-class accuracy on the held-out weblog (see ``common``).

The YourAdValue replay takes every user of D, as the ``client``
workload does, rather than the heaviest user the quickstart replays:
the heaviest users' notifications share their features, so a replay of
a few of them prices a narrow, seed-dependent slice of the forest, and
their median latency moved 50% from seed to seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
import time

from common import (
    AUCTIONS_PER_SETUP, MODEL_SEED, ROOT, SRC, Speed, Tracer, backend_layers,
    client_layers, heldout_accuracy, median, overhead_pct, peak_rss_mb,
    replay_metrics, replay_users, rollup, rows_by_user, settle, train_package,
)

#: A run makes one pass per this many of its ``--seconds``, at least
#: two.  (A pass takes ~8 s on a 2-core box.)
PASS_S = 5.0
#: The stages of a pass; their times sum to the pipeline time.
STAGES = ("simulate", "analyze", "probes", "train", "package", "user_costs",
          "yav_replay")

#: Golden digests of the stage outputs the auction-kernel work must not
#: change: ``simulate_dataset(small_config())`` weblog rows, and the
#: A1/A2 impression records of ``run_probe_campaigns`` on that market at
#: ``GOLDEN_AUCTIONS`` per setup, both at the default seed.
GOLDEN_AUCTIONS = 2
GOLDEN = {
    "weblog_rows":
        "9711efab930d12012349732dfd98a212c6f82ca3fcbed5e4932a0b16c05a1632",
    "campaign_a1":
        "352e5df159d510a8bd03ddcf565046f0e451e5afee060aacbe6c2a9250289ae5",
    "campaign_a2":
        "bce715d5c98980e8fe3b196959c032b10a054aef76de0b3c0ff8a2d2e66ed515",
}

#: What a fresh interpreter imports before the pipeline can start.
IMPORTS = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import repro, repro.trace, repro.analyzer, repro.core.pme, repro.core.cost"
)


def start_program(tracer: Tracer) -> float:
    """Set-up: a fresh interpreter imports the package."""
    with tracer.stage("setup"):
        subprocess.run([sys.executable, "-c", IMPORTS, str(SRC)], check=True,
                       cwd=ROOT)
    return tracer.stage_s["setup"]


def sha256_lines(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def row_digest(rows) -> str:
    """Digest of weblog rows, every field in declaration order."""
    return sha256_lines(
        json.dumps(dataclasses.astuple(row)) for row in rows
    )


def impression_digest(impressions) -> str:
    """Digest of probe-campaign impression records."""
    return sha256_lines(
        json.dumps([
            i.setup_id, i.charge_price_cpm, i.encrypted_channel,
            i.request.auction_id, i.request.timestamp, i.request.publisher,
            i.request.adx, str(i.request.imp.slot_size),
        ])
        for i in impressions
    )


def golden_digests() -> dict[str, str]:
    from repro import PriceModelingEngine
    from repro.trace import build_market, simulate_dataset, small_config
    from repro.util.rng import DEFAULT_SEED, RngRegistry

    config = small_config()
    weblog = simulate_dataset(config)
    pme = PriceModelingEngine(seed=DEFAULT_SEED)
    a1, a2 = pme.run_probe_campaigns(
        build_market(config, RngRegistry(config.seed)),
        auctions_per_setup=GOLDEN_AUCTIONS,
    )
    return {
        "weblog_rows": row_digest(weblog.rows),
        "campaign_a1": impression_digest(a1.impressions),
        "campaign_a2": impression_digest(a2.impressions),
    }


def one_pass(tracer: Tracer, seed: int) -> dict:
    """One full pipeline; returns its stage times, replay and checks."""
    from repro import compute_user_costs

    settle()
    start = time.perf_counter()
    with tracer.stage("pipeline"):
        ctx = train_package(tracer, seed, MODEL_SEED)
        with tracer.stage("user_costs"):
            costs = compute_user_costs(ctx["analysis"], ctx["estimator"],
                                       ctx["time_correction"])
        replay = replay_users(tracer, ctx["package"], ctx["directory"],
                              list(rows_by_user(ctx["dataset"]).items()))
    wall = time.perf_counter() - start

    ledger_ok = True
    for user_id, ledger in replay["ledgers"].items():
        cost = costs[user_id]
        enc = [e.amount_cpm for e in ledger if e.encrypted]
        clr = [e.amount_cpm for e in ledger if not e.encrypted]
        ledger_ok &= (
            len(enc) == cost.n_encrypted and len(clr) == cost.n_cleartext
            and sum(enc) == cost.encrypted_estimated_cpm
            and sum(clr) == cost.cleartext_cpm
        )
    return {
        "wall_s": wall,
        "stage_s": {name: tracer.stage_s[name] for name in STAGES},
        "rows": len(ctx["dataset"].rows),
        "users": len(ctx["dataset"].users),
        "replay": replay,
        "estimator": ctx["estimator"],
        "ledger_ok": ledger_ok,
        "package": ctx["package"],
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.util.rng import derive_seed

    pass_seed = derive_seed(seed, "pipeline")
    if trace:
        return _traced(pass_seed)
    repeats = max(2, round(seconds / PASS_S))
    speed = Speed()
    setup_s: list[float] = []
    passes: list[dict] = []
    for _ in range(repeats):
        # Set-up samples alternate with passes, so both see the machine
        # at several moments of the run.
        setup_s.append(start_program(Tracer(enabled=False, speed=speed)))
        passes.append(one_pass(Tracer(enabled=False, speed=speed), pass_seed))
        if len(passes) > 1:
            # A repeat's model and weblog equal the first's; holding
            # them would only inflate the peak memory.
            for key in ("estimator", "package"):
                del passes[-1][key]

    first = passes[0]
    checks = {
        "ledger_matches_cost_table": all(p["ledger_ok"] for p in passes),
        **{f"golden_{k}": v == GOLDEN[k] for k, v in golden_digests().items()},
    }
    stage_s = {name: median([p["stage_s"][name] for p in passes])
               for name in STAGES}
    pipeline_s = sum(stage_s.values())
    replay = replay_metrics([p["replay"] for p in passes])
    accuracy, n = heldout_accuracy(first["estimator"])
    return {
        "metrics": {
            "price_p50_ms": replay["price_p50_ms"],
            "price_p90_ms": replay["price_p90_ms"],
            "throughput_per_s": (first["rows"] / pipeline_s, "rows/s",
                                 first["rows"]),
            "install_ms": replay["install_ms"],
            "accuracy": (accuracy, "fraction", n),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
            "setup_s": (median(setup_s), "s", len(setup_s)),
        },
        "extras": {
            "pipeline_s": (pipeline_s, "s", repeats),
            "price_p99_ms": replay["price_p99_ms"],
            **{f"{name}_s": (t, "s", repeats) for name, t in stage_s.items()},
        },
        "checks": checks,
        "attempted": len(passes) + len(checks),
        "failed": sum(not ok for ok in checks.values()),
        "sizes": {
            "repeats": repeats,
            "pass_wall_s": [round(p["wall_s"], 3) for p in passes],
            "weblog_rows": first["rows"],
            "users": first["users"],
            "auctions_per_setup": AUCTIONS_PER_SETUP,
            "replayed_users": len(first["replay"]["ledgers"]),
            "accuracy_notifications": n,
        },
    }


def _traced(pass_seed: int) -> dict:
    """Untraced, traced and again untraced passes on one seed: the layer
    metrics come from the traced pass, the tracing overhead from its
    wall time against the two around it."""
    tracer = Tracer(enabled=True)
    before = one_pass(Tracer(enabled=False), pass_seed)
    with tracer.traced("perfbench.pipeline") as collector:
        traced = one_pass(tracer, pass_seed)
    after = one_pass(Tracer(enabled=False), pass_seed)
    checks = {"ledger_matches_cost_table": traced["ledger_ok"]}
    spans = rollup([collector])
    root = next(c for c in spans["children"][0]["children"]
                if c["name"] == "pipeline")
    covered = root["total_s"] - root["self_s"]
    coverage = {
        "pipeline_s": root["total_s"],
        "stages_s": covered,
        "unattributed_s": root["self_s"],
        "share": covered / root["total_s"],
    }
    checks["stages_cover_95pct"] = coverage["share"] >= 0.95
    return {
        "layers": {
            **backend_layers(tracer, traced["package"]),
            **client_layers(tracer),
            "ml.predict_batch_rows_per_s": _batch_rate(tracer),
            "core.user_costs_s": tracer.stage_s["user_costs"],
            "core.yav_replay_s": tracer.stage_s["yav_replay"],
            "obs.overhead_pct": overhead_pct(
                [before["wall_s"], after["wall_s"]], traced["wall_s"]),
        },
        "extras": {"pipeline_s": (traced["wall_s"], "s", 1)},
        "coverage": coverage,
        "spans": spans,
        "checks": checks,
        "attempted": 3 + len(checks),
        "failed": sum(not ok for ok in checks.values()),
        "sizes": {"pass_seed": pass_seed, "weblog_rows": traced["rows"],
                  "users": traced["users"],
                  "auctions_per_setup": AUCTIONS_PER_SETUP},
    }


def _batch_rate(tracer: Tracer) -> float:
    """Rows per second of the ``compute_user_costs`` estimate call."""
    _, seconds, _ = tracer.probe("ml.estimate", {"user_costs"})
    rows = tracer.counts["analyzer.encrypted"]
    return rows / seconds if seconds else 0.0
