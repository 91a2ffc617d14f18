"""The DSP's bitmask campaign index against a linear scan.

``scan_respond`` is ``Dsp.respond`` as it was before the index: every
campaign in list order, filtered by ``Campaign.eligible_for``.  The
indexed ``respond`` must return the same bid and draw from the DSP's
RNG exactly as the scan does -- the same campaigns priced, in the same
order -- so simulated weblogs and probe campaigns stay byte-identical.
"""

import numpy as np
import pytest

from repro.rtb.adslots import AdSlotSize
from repro.rtb.bidding import Dsp, FeatureBidEngine
from repro.rtb.campaign import CAMPAIGN_DAYPARTS, Campaign, TargetingSpec
from repro.rtb.openrtb import (
    Bid, BidRequest, BidResponse, Device, Geo, Impression, UserInfo,
)
from repro.util.rng import stream
from repro.util.timeutil import epoch

#: A small vocabulary per targeting dimension, so random specs overlap.
VOCABULARY = {
    "cities": ("Madrid", "Barcelona", "Valencia"),
    "contexts": ("app", "web"),
    "dayparts": CAMPAIGN_DAYPARTS,
    "day_types": ("weekday", "weekend"),
    "device_types": ("smartphone", "tablet"),
    "oses": ("Android", "iOS"),
    "slot_sizes": ("320x50", "300x250", "728x90"),
    "adxs": ("MoPub", "OpenX", "Rubicon"),
    "iab_categories": ("IAB1", "IAB3", "IAB12"),
}


def scan_respond(dsp: Dsp, request: BidRequest) -> BidResponse:
    """Reference ``respond``: a linear ``eligible_for`` scan."""
    best_bid = None
    for campaign in dsp.campaigns:
        if not campaign.eligible_for(request):
            continue
        price = dsp.engine.price_bid(request, campaign, dsp.rng)
        if price is None or price <= 0:
            continue
        if best_bid is None or price > best_bid.price_cpm:
            best_bid = Bid(
                dsp=dsp.name,
                advertiser=campaign.advertiser,
                campaign_id=campaign.campaign_id,
                price_cpm=price,
                creative_domain=f"ads.{campaign.advertiser.lower()}.com",
            )
    bids = (best_bid,) if best_bid is not None else ()
    return BidResponse(auction_id=request.auction_id, dsp=dsp.name, bids=bids)


def value_of(request: BidRequest) -> float:
    """A value that varies with the request, so bids vary too."""
    return 0.5 + (sum(map(ord, request.auction_id)) % 17) / 10.0


def random_spec(rng: np.random.Generator) -> TargetingSpec:
    """Each dimension unconstrained, empty, or a random subset."""
    constraints = {}
    for name, values in VOCABULARY.items():
        if rng.random() < 0.5:
            constraints[name] = None
        else:
            keep = rng.random(len(values)) < 0.6
            constraints[name] = frozenset(v for v, k in zip(values, keep) if k)
    return TargetingSpec(**constraints)


def random_book(rng: np.random.Generator, n: int, tag: str) -> list[Campaign]:
    """Campaigns with partial targeting; some with budgets that run out."""
    return [
        Campaign(
            campaign_id=f"{tag}{i}",
            advertiser=f"Adv{i % 4}",
            targeting=TargetingSpec() if i == 0 else random_spec(rng),
            max_bid_cpm=float(rng.uniform(0.8, 2.5)),
            budget_usd=float(rng.uniform(0.002, 0.02)) if rng.random() < 0.4
            else float("inf"),
        )
        for i in range(n)
    ]


def random_request(rng: np.random.Generator, k: int) -> BidRequest:
    def pick(name):
        values = VOCABULARY[name]
        return values[int(rng.integers(len(values)))]

    ts = epoch(2015, 1, 1) + float(rng.uniform(0, 365 * 86_400))
    return BidRequest(
        auction_id=f"a{k}",
        timestamp=ts,
        imp=Impression(impression_id=f"a{k}-i",
                       slot_size=AdSlotSize.parse(pick("slot_sizes"))),
        publisher="pub.example.es",
        publisher_iab=pick("iab_categories"),
        device=Device(os=pick("oses"), device_type=pick("device_types")),
        geo=Geo(country="ES", city=pick("cities")),
        user=UserInfo(exchange_uid="u"),
        is_app=pick("contexts") == "app",
        adx=pick("adxs"),
    )


def make_pair(seed: int, n_campaigns: int) -> tuple[Dsp, Dsp]:
    """Two DSPs with equal but separate campaign books and RNG streams."""
    def build():
        book = random_book(np.random.default_rng(seed), n_campaigns, "c")
        engine = FeatureBidEngine(value_model=value_of, noise_sigma=0.3,
                                  participation=0.8)
        return Dsp("D", engine, stream(f"dsp-{seed}"), campaigns=book)
    return build(), build()


def replay(indexed: Dsp, reference: Dsp, requests, add_after: int | None = None,
           extra: list[tuple[Campaign, Campaign]] = ()):
    """Answer every request on both DSPs, booking each bid as a win."""
    bids = 0
    for k, request in enumerate(requests):
        if k == add_after:
            for mine, theirs in extra:
                indexed.add_campaign(mine)
                reference.add_campaign(theirs)
        got = indexed.respond(request)
        want = scan_respond(reference, request)
        assert got == want, f"request {k}"
        assert (indexed.rng.bit_generator.state
                == reference.rng.bit_generator.state), f"request {k}"
        for bid in got.bids:
            indexed.notify_win(bid.campaign_id, bid.price_cpm)
            reference.notify_win(bid.campaign_id, bid.price_cpm)
            bids += 1
    return bids


@pytest.mark.tier1
class TestIndexAgainstScan:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_books_same_bids_and_rng(self, seed):
        indexed, reference = make_pair(seed, n_campaigns=12 + 7 * seed)
        rng = np.random.default_rng(1000 + seed)
        requests = [random_request(rng, k) for k in range(300)]
        assert replay(indexed, reference, requests) > 0
        # Finite budgets ran out along the way, and the index saw it.
        assert any(c.exhausted for c in indexed.campaigns)
        assert [c.spent_usd for c in indexed.campaigns] == [
            c.spent_usd for c in reference.campaigns
        ]

    def test_add_campaign_after_first_respond(self):
        indexed, reference = make_pair(7, n_campaigns=5)
        rng = np.random.default_rng(7)
        extra = list(zip(random_book(np.random.default_rng(8), 6, "x"),
                         random_book(np.random.default_rng(8), 6, "x")))
        requests = [random_request(rng, k) for k in range(200)]
        replay(indexed, reference, requests, add_after=50, extra=extra)
        assert len(indexed.campaigns) == 11
        assert sum(c.impressions_won for c in indexed.campaigns[5:]) > 0

    def test_empty_book_never_bids(self):
        dsp = Dsp("D", FeatureBidEngine(value_model=value_of), stream("e"))
        request = random_request(np.random.default_rng(0), 0)
        assert dsp.respond(request).is_no_bid

    def test_notify_win_books_first_duplicate(self):
        first = Campaign("dup", "adv")
        second = Campaign("dup", "adv")
        dsp = Dsp("D", FeatureBidEngine(value_model=value_of), stream("d"),
                  campaigns=[first, second])
        dsp.notify_win("dup", 2.0)
        assert (first.impressions_won, second.impressions_won) == (1, 0)
        assert dsp.wins == 1
