"""``client``: the YourAdValue extension in a closed loop.

Set-up trains a model package as the pipeline does; its forest learns
from the probe campaigns of the ``MODEL_SEED`` market, and the client
replays dataset D, drawn from the workload seed, so the model prices
traffic it never saw.  The timed loop installs the package once per
user (``YourAdValue(package, directory)``) and feeds that user's rows
one by one through ``observe``; the next row goes in only after the
previous ``observe`` returned.  There are no auctions and no training
in the timed part.

A run makes ``rounds`` rounds of set-up then a replay of every user of
D; the number of rounds follows ``--seconds`` alone.  The set-ups are
identical, so every replay times the same rows against the same
package, on the reference clock, and each row's and each install's
median time over the rounds is kept (see ``common``).

Metrics: ``price_p*_ms`` is ``observe`` latency on encrypted win
notifications; ``throughput_per_s`` is encrypted prices estimated per
second of replay (every row's time counted, installs excluded) rather
than rows per second, because the encrypted share of rows is set by
each seed's encryption policy, spreads ~10% between seeds, and an
encrypted row costs ~300x any other row; ``install_ms`` is the median
install; ``accuracy`` is the model's price-class accuracy on the
held-out weblog (see ``common``); ``setup_s`` is the median set-up.
"""

from __future__ import annotations

from collections import defaultdict

from common import (
    MODEL_SEED, Speed, Tracer, backend_layers, client_layers, heldout_accuracy,
    median, overhead_pct, peak_rss_mb, replay_metrics, replay_users, rollup,
    rows_by_user, settle, train_package,
)

#: A run makes one round per this many of its ``--seconds``, at least
#: two.  (A round takes ~10 s on a 2-core box.)
ROUND_S = 7.5


def setup(tracer: Tracer, seed: int) -> dict:
    """The model package and the weblog the client replays.

    The weblog is dataset D of the package's own training run, drawn
    from the workload seed; the forest learns only from the probe
    campaigns of the ``MODEL_SEED`` market, so D is traffic it never
    saw.
    """
    from repro.util.rng import derive_seed

    return train_package(tracer, derive_seed(seed, "client"), MODEL_SEED)


def replay(tracer: Tracer, ctx: dict) -> dict:
    """Every user of D through YourAdValue, in weblog order of users."""
    settle()
    return replay_users(tracer, ctx["package"], ctx["directory"],
                        list(rows_by_user(ctx["dataset"]).items()))


def ledger_check(estimator, analysis, ledgers: dict) -> bool:
    """Every encrypted ledger amount equals the batched estimate."""
    from repro.core.cost import observation_features

    by_user = defaultdict(list)
    for o in analysis.encrypted():
        by_user[o.user_id].append(observation_features(o))
    expected = estimator.estimate(
        [row for user in ledgers for row in by_user[user]]).prices
    got = [e.amount_cpm for user in ledgers for e in ledgers[user]
           if e.encrypted]
    return len(got) == len(expected) and all(
        a == b for a, b in zip(got, expected.tolist()))


def run(seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        return _traced(seed)
    rounds = max(2, round(seconds / ROUND_S))
    speed = Speed()
    setup_s, replays = [], []
    # Set-up and replay alternate, so the replays sample the machine at
    # several moments of the run.
    for _ in range(rounds):
        quiet = Tracer(enabled=False, speed=speed)
        with quiet.stage("setup"):
            ctx = setup(quiet, seed)
        setup_s.append(quiet.stage_s["setup"])
        replays.append(replay(quiet, ctx))

    checks = {
        "ledger_matches_batch_estimate": all(
            ledger_check(ctx["estimator"], ctx["analysis"], r["ledgers"])
            for r in replays),
    }
    accuracy, n = heldout_accuracy(ctx["estimator"])
    replayed = replay_metrics(replays)
    estimates = sum(replays[0]["encrypted"])
    return {
        "metrics": {
            "price_p50_ms": replayed["price_p50_ms"],
            "price_p90_ms": replayed["price_p90_ms"],
            "throughput_per_s": replayed["replay_estimates_per_s"],
            "install_ms": replayed["install_ms"],
            "accuracy": (accuracy, "fraction", n),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
            "setup_s": (median(setup_s), "s", len(setup_s)),
        },
        "extras": {"price_p99_ms": replayed["price_p99_ms"]},
        "checks": checks,
        "attempted": rounds * estimates + len(checks),
        "failed": sum(not ok for ok in checks.values()),
        "sizes": {
            "rounds": rounds,
            "replay_users": len(ctx["dataset"].users),
            "replay_rows": len(ctx["dataset"].rows),
            "replay_encrypted": estimates,
            "accuracy_notifications": n,
        },
    }


def _traced(seed: int) -> dict:
    """One traced set-up, then untraced, traced and again untraced
    replays: the layer metrics come from the traced steps, the tracing
    overhead from the traced replay's row time against the two around
    it."""
    tracer = Tracer(enabled=True)
    with tracer.traced("perfbench.client.setup") as setup_trace:
        ctx = setup(tracer, seed)
    before = replay(Tracer(enabled=False), ctx)
    with tracer.traced("perfbench.client.replay") as replay_trace:
        traced = replay(tracer, ctx)
    after = replay(Tracer(enabled=False), ctx)
    checks = {
        "ledger_matches_batch_estimate": ledger_check(
            ctx["estimator"], ctx["analysis"], traced["ledgers"]),
    }
    return {
        "layers": {
            **backend_layers(tracer, ctx["package"]),
            **client_layers(tracer),
            "obs.overhead_pct": overhead_pct(
                [sum(before["row_s"]), sum(after["row_s"])],
                sum(traced["row_s"])),
        },
        "extras": {},
        "spans": rollup([setup_trace, replay_trace]),
        "checks": checks,
        "attempted": 3 * sum(traced["encrypted"]) + len(checks),
        "failed": sum(not ok for ok in checks.values()),
        "sizes": {"replay_users": len(ctx["dataset"].users),
                  "replay_rows": len(ctx["dataset"].rows)},
    }
