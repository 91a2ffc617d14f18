"""Golden digests of the simulator's and probe campaigns' outputs.

The auction kernel (``Exchange.run_auction`` -> ``Dsp.respond`` ->
``Campaign.eligible_for``) dominates both ``simulate_dataset`` and
``run_probe_campaigns``.  Any rewrite of it must leave their outputs
byte-identical, so both are pinned here by sha256 at the default seed:

* every field of every weblog row of ``simulate_dataset(small_config())``;
* the A1/A2 probe impression records on that market at
  ``GOLDEN_AUCTIONS`` auctions per setup.

The digests are the same ones the benchmark's pipeline workload checks.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import PriceModelingEngine
from repro.trace import build_market, simulate_dataset, small_config
from repro.util.rng import DEFAULT_SEED, RngRegistry

GOLDEN_AUCTIONS = 2
GOLDEN = {
    "weblog_rows":
        "9711efab930d12012349732dfd98a212c6f82ca3fcbed5e4932a0b16c05a1632",
    "campaign_a1":
        "352e5df159d510a8bd03ddcf565046f0e451e5afee060aacbe6c2a9250289ae5",
    "campaign_a2":
        "bce715d5c98980e8fe3b196959c032b10a054aef76de0b3c0ff8a2d2e66ed515",
}


def _sha256_lines(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _row_digest(rows) -> str:
    return _sha256_lines(json.dumps(dataclasses.astuple(row)) for row in rows)


def _impression_digest(impressions) -> str:
    return _sha256_lines(
        json.dumps([
            i.setup_id, i.charge_price_cpm, i.encrypted_channel,
            i.request.auction_id, i.request.timestamp, i.request.publisher,
            i.request.adx, str(i.request.imp.slot_size),
        ])
        for i in impressions
    )


@pytest.mark.tier1
def test_simulated_weblog_digest():
    weblog = simulate_dataset(small_config())
    assert _row_digest(weblog.rows) == GOLDEN["weblog_rows"]


@pytest.mark.tier1
def test_probe_campaign_digests():
    config = small_config()
    a1, a2 = PriceModelingEngine(seed=DEFAULT_SEED).run_probe_campaigns(
        build_market(config, RngRegistry(config.seed)),
        auctions_per_setup=GOLDEN_AUCTIONS,
    )
    assert _impression_digest(a1.impressions) == GOLDEN["campaign_a1"]
    assert _impression_digest(a2.impressions) == GOLDEN["campaign_a2"]
