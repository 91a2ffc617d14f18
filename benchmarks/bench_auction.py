"""Auction-kernel benchmark: trace simulation and probe campaigns.

The two pipeline stages that run RTB auctions -- ``simulate_dataset``
(dataset D) and ``run_probe_campaigns`` (A1 + A2) -- both spend their
time in ``AdExchange.run_auction`` -> ``Dsp.respond``.  This benchmark
times each stage best-of-N at a given scale and, while at it, checks
the kernel's contract: the golden sha256 digests of the simulated
weblog rows and the A1/A2 impression records
(``tests/integration/test_golden_digests.py``) are unchanged, and every
timed repeat reproduces the first one's output.

Two entry points:

* standalone script (no pytest needed)::

      PYTHONPATH=src python benchmarks/bench_auction.py \\
          --scale 1.0 --repeats 2 --json benchmarks/output/BENCH_auction.json

* pytest smoke (scaled by ``REPRO_BENCH_SCALE``, identity only -- the
  timings are recorded, never gated)::

      pytest benchmarks/bench_auction.py -s
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.pme import PriceModelingEngine
from repro.trace.simulate import (
    build_market,
    default_config,
    simulate_dataset,
    small_config,
)
from repro.util.rng import DEFAULT_SEED, RngRegistry

try:  # package import under pytest, sibling import as a script
    from ._record import provenance
except ImportError:  # pragma: no cover - script mode
    from _record import provenance

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.integration.test_golden_digests import (
    GOLDEN,
    GOLDEN_AUCTIONS,
    _impression_digest,
    _row_digest,
)


def _probes(config, auctions_per_setup: int):
    market = build_market(config, RngRegistry(config.seed))
    return PriceModelingEngine(seed=DEFAULT_SEED).run_probe_campaigns(
        market, auctions_per_setup=auctions_per_setup
    )


def check_golden() -> None:
    """The simulator and probe campaigns still emit the golden outputs."""
    config = small_config()
    assert _row_digest(simulate_dataset(config).rows) == GOLDEN["weblog_rows"]
    a1, a2 = _probes(config, GOLDEN_AUCTIONS)
    assert _impression_digest(a1.impressions) == GOLDEN["campaign_a1"]
    assert _impression_digest(a2.impressions) == GOLDEN["campaign_a2"]


def _best_of(fn, repeats: int, digest) -> tuple[float, object]:
    """Fastest of ``repeats`` calls, asserting every call's output
    digest equals the first's."""
    best, first, result = float("inf"), None, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
        fingerprint = digest(result)
        assert first is None or fingerprint == first, "run-to-run drift"
        first = fingerprint
    return best, result


def run(scale: float, repeats: int) -> dict:
    """Time both auction stages at ``scale``; return the JSON record."""
    check_golden()
    config = default_config()
    if scale < 0.999:
        config = config.scaled(scale)
    auctions_per_setup = max(10, int(185 * scale))

    simulate_s, weblog = _best_of(
        lambda: simulate_dataset(config), repeats,
        lambda w: _row_digest(w.rows),
    )
    probes_s, (a1, a2) = _best_of(
        lambda: _probes(config, auctions_per_setup), repeats,
        lambda c: (_impression_digest(c[0].impressions),
                   _impression_digest(c[1].impressions)),
    )
    probe_auctions = 2 * len(a1.setups) * auctions_per_setup
    return {
        "bench": "auction",
        "scale": scale,
        "repeats": repeats,
        "users": config.n_users,
        "target_auctions": config.target_auctions,
        "auctions_per_setup": auctions_per_setup,
        "golden_digests": "match",
        "simulate": {
            "best_s": round(simulate_s, 3),
            "weblog_rows": len(weblog.rows),
            "impressions": len(weblog.impressions),
        },
        "probes": {
            "best_s": round(probes_s, 3),
            "auctions": probe_auctions,
            "auctions_per_s": round(probe_auctions / probes_s, 1),
            "impressions": len(a1.impressions) + len(a2.impressions),
        },
        **provenance(),
    }


def test_auction_kernel():
    """CI smoke: golden digests and repeat identity; timings recorded
    without a wall-clock gate."""
    from .conftest import OUTPUT_DIR, bench_scale, emit

    record = run(bench_scale(), repeats=1)
    emit("BENCH_auction", [json.dumps(record)])
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_auction.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset D and campaign-depth scale (default 1.0)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="best-of-N timing repeats (default 2)")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the JSON record to this path")
    args = parser.parse_args(argv)

    record = run(args.scale, args.repeats)
    print(json.dumps(record, indent=2))
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
