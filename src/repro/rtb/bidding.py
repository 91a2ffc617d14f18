"""DSP bid decision engines.

A DSP's decision engine answers the question the paper poses in section
2.1: "How much is it worth to bid for an ad slot for this user, if
any?".  Our engines decompose a bid into

    bid = base_value(request features) * dsp_noise * campaign aggressiveness

where ``base_value`` is a shared, feature-multiplicative valuation of
the impression (configured by :mod:`repro.trace.pricing` to encode the
paper's observed price structure) and the noise term models the spread
of independent bidder beliefs.  Second-price clearing over several such
bidders yields charge prices that inherit the feature structure --
which is precisely why the paper's Random Forest can learn them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

import numpy as np

from repro.rtb.campaign import Campaign
from repro.rtb.openrtb import Bid, BidRequest, BidResponse

#: A valuation function: request -> fair CPM value of the impression.
ValueModel = Callable[[BidRequest], float]


class BidEngine(Protocol):
    """Strategy interface: price a campaign's bid for one request."""

    def price_bid(self, request: BidRequest, campaign: Campaign,
                  rng: np.random.Generator) -> float | None:
        """CPM bid, or None to no-bid."""


@dataclass
class FeatureBidEngine:
    """Value-based bidding with lognormal belief noise.

    ``noise_sigma`` is the std of the bidder's log-valuation error;
    ``aggressiveness`` scales bids up/down (retargeting-style campaigns
    would use > 1).  ``participation`` is the probability the DSP bids
    at all on an eligible request (models bid throttling / pacing).
    """

    value_model: ValueModel
    noise_sigma: float = 0.35
    aggressiveness: float = 1.0
    participation: float = 1.0

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError(f"negative noise_sigma {self.noise_sigma}")
        if self.aggressiveness <= 0:
            raise ValueError(f"aggressiveness must be positive")
        if not 0.0 <= self.participation <= 1.0:
            raise ValueError(f"participation must be in [0,1]")

    def price_bid(self, request: BidRequest, campaign: Campaign,
                  rng: np.random.Generator) -> float | None:
        if self.participation < 1.0 and rng.random() > self.participation:
            return None
        value = self.value_model(request)
        if value <= 0:
            return None
        noise = float(np.exp(rng.normal(0.0, self.noise_sigma))) if self.noise_sigma else 1.0
        bid = value * noise * self.aggressiveness
        # The bid cap protects the budget (paper section 5.3) -- bids are
        # clipped, not dropped, so capped campaigns still compete.
        return min(bid, campaign.max_bid_cpm)


@dataclass
class FixedBidEngine:
    """Bid a constant CPM on every eligible request (test harness aid)."""

    bid_cpm: float

    def __post_init__(self) -> None:
        if self.bid_cpm <= 0:
            raise ValueError("bid_cpm must be positive")

    def price_bid(self, request: BidRequest, campaign: Campaign,
                  rng: np.random.Generator) -> float | None:
        return min(self.bid_cpm, campaign.max_bid_cpm)


@dataclass
class RetargetingEngine:
    """Audience-retargeting bidding (the paper's deferred future work).

    The paper's probe campaigns deliberately avoided retargeting
    ("studying the effects of retargeting is beyond the scope of this
    paper ... we plan to investigate [it] in a separate study"), while
    hypothesising that aggressive retargeting is one driver of the
    encrypted-price premium.  This engine implements the mechanism so
    the ablation benches can study it: the DSP bids only on users in
    its retargeting audience (recognised through cookie-synced ids) and
    values them at a multiple of the common valuation.

    ``audience_uids`` live in the DSP's own id space
    (:func:`repro.rtb.cookiesync.synced_uid` of ``dsp_name``); a user
    is reachable only when a cookie sync has put the DSP's uid into the
    bid request -- exactly the dependency real retargeting has on sync.
    """

    dsp_name: str
    value_model: ValueModel
    audience_uids: frozenset[str]
    boost: float = 2.0
    noise_sigma: float = 0.25

    def __post_init__(self) -> None:
        if self.boost <= 0:
            raise ValueError("boost must be positive")
        if self.noise_sigma < 0:
            raise ValueError("negative noise_sigma")

    def in_audience(self, request: BidRequest) -> bool:
        uid = request.user.buyer_uids.get(self.dsp_name)
        return uid is not None and uid in self.audience_uids

    def price_bid(self, request: BidRequest, campaign: Campaign,
                  rng: np.random.Generator) -> float | None:
        if not self.in_audience(request):
            return None
        value = self.value_model(request)
        if value <= 0:
            return None
        noise = float(np.exp(rng.normal(0.0, self.noise_sigma))) if self.noise_sigma else 1.0
        return min(value * noise * self.boost, campaign.max_bid_cpm)


class Dsp:
    """A demand-side platform: a bidder holding campaigns and an engine.

    The DSP receives bid requests from exchanges, finds eligible
    campaigns, prices a bid for the best one and responds.  Wins are
    reported back via :meth:`notify_win` so budgets stay accounted.

    Matching goes through a bitmask index built once per campaign book:
    per targeting dimension, each request value maps to the int whose
    bit ``i`` is set when campaign ``i`` accepts it (``None`` = any).
    ``respond`` ANDs the request's nine masks and visits the set bits
    low to high -- list order, so the engine draws from the RNG exactly
    as a scan of :meth:`Campaign.eligible_for` over the list would.
    ``campaigns`` is a tuple that only :meth:`add_campaign` replaces,
    rebuilding the index with it; a campaign's targeting is read when
    it joins the book.
    """

    def __init__(
        self,
        name: str,
        engine: BidEngine,
        rng: np.random.Generator,
        campaigns: Iterable[Campaign] | None = None,
    ):
        if not name:
            raise ValueError("DSP name must be non-empty")
        self.name = name
        self.engine = engine
        self.rng = rng
        self.wins = 0
        self.total_spend_usd = 0.0
        self._set_campaigns(tuple(campaigns or ()))

    @property
    def campaigns(self) -> tuple[Campaign, ...]:
        return self._campaigns

    def add_campaign(self, campaign: Campaign) -> None:
        self._set_campaigns(self._campaigns + (campaign,))

    def _set_campaigns(self, campaigns: tuple[Campaign, ...]) -> None:
        everyone = (1 << len(campaigns)) - 1
        index: list[tuple[int, int, dict[str, int]]] = []
        columns = zip(*(c.targeting.constraints() for c in campaigns))
        for dim, column in enumerate(columns):
            any_mask, by_value = 0, {}
            for i, allowed in enumerate(column):
                if allowed is None:
                    any_mask |= 1 << i
                    continue
                for value in allowed:
                    by_value[value] = by_value.get(value, 0) | 1 << i
            # A dimension no campaign constrains filters nothing.
            if any_mask != everyone:
                index.append((dim, any_mask, by_value))
        by_id: dict[str, Campaign] = {}
        for campaign in campaigns:
            by_id.setdefault(campaign.campaign_id, campaign)
        self._campaigns = campaigns
        self._everyone = everyone
        self._index = index
        self._by_id = by_id

    def respond(self, request: BidRequest) -> BidResponse:
        """Answer a bid request with at most one bid (the best campaign)."""
        mask = self._everyone
        key = request.targeting_key
        for dim, any_mask, by_value in self._index:
            mask &= any_mask | by_value.get(key[dim], 0)
            if not mask:
                break
        best: Campaign | None = None
        best_price = 0.0
        campaigns = self._campaigns
        while mask:
            low = mask & -mask
            mask ^= low
            campaign = campaigns[low.bit_length() - 1]
            if campaign.exhausted:
                continue
            price = self.engine.price_bid(request, campaign, self.rng)
            if price is None or price <= 0:
                continue
            if best is None or price > best_price:
                best, best_price = campaign, price
        if best is None:
            return BidResponse(auction_id=request.auction_id, dsp=self.name)
        bid = Bid(
            dsp=self.name,
            advertiser=best.advertiser,
            campaign_id=best.campaign_id,
            price_cpm=best_price,
            creative_domain=f"ads.{best.advertiser.lower()}.com",
        )
        return BidResponse(auction_id=request.auction_id, dsp=self.name, bids=(bid,))

    def notify_win(
        self,
        campaign_id: str,
        charge_price_cpm: float,
        request: BidRequest | None = None,
    ) -> None:
        """Book a win against the campaign's budget.

        ``request`` carries the auction context; the base DSP ignores it,
        but recording DSPs (probe campaigns) log it as the per-impression
        performance report advertisers receive.  Campaign ids are
        expected to be unique; if not, the first one listed is booked.
        """
        campaign = self._by_id.get(campaign_id)
        if campaign is None:
            raise KeyError(f"DSP {self.name} has no campaign {campaign_id!r}")
        campaign.record_win(charge_price_cpm)
        self.wins += 1
        self.total_spend_usd += charge_price_cpm / 1000.0
