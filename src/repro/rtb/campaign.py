"""Ad campaigns: targeting, budgets, pacing.

Campaigns are what DSPs bid on behalf of.  The targeting vocabulary is
exactly the control-variable set of the paper's probe campaigns
(Table 5): location, web-interaction type, time of day, day of week,
device type, OS, ad size, ADX, IAB category.  The open-market campaigns
of the trace simulator use loose targeting; the probe campaigns of
:mod:`repro.core.campaigns` use one fully pinned setup each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Iterable

from repro.rtb.openrtb import BidRequest
# The daypart windows are part of the targeting vocabulary; re-exported.
from repro.util.timeutil import CAMPAIGN_DAYPARTS, campaign_daypart  # noqa: F401


@dataclass(frozen=True)
class TargetingSpec:
    """Audience filter for a campaign.

    Every field is an optional frozenset; ``None`` means "any".  A
    request matches when every non-None constraint is satisfied.
    """

    cities: frozenset[str] | None = None
    contexts: frozenset[str] | None = None        # {"app", "web"}
    dayparts: frozenset[str] | None = None        # CAMPAIGN_DAYPARTS values
    day_types: frozenset[str] | None = None       # {"weekday", "weekend"}
    device_types: frozenset[str] | None = None    # {"smartphone", "tablet"}
    oses: frozenset[str] | None = None            # {"Android", "iOS", ...}
    slot_sizes: frozenset[str] | None = None      # {"320x50", ...}
    adxs: frozenset[str] | None = None
    iab_categories: frozenset[str] | None = None

    def matches(self, request: BidRequest) -> bool:
        """True when the bid request satisfies every constraint.

        The constraints line up with ``request.targeting_key``; this
        per-campaign scan is the reference the DSP's bitmask index
        (:class:`repro.rtb.bidding.Dsp`) must agree with.
        """
        return all(
            allowed is None or value in allowed
            for allowed, value in zip(self.constraints(), request.targeting_key)
        )

    def constraints(self) -> tuple[frozenset[str] | None, ...]:
        """The per-dimension filters, in ``TARGETING_DIMENSIONS`` order."""
        return tuple(getattr(self, name) for name in TARGETING_DIMENSIONS)

    @classmethod
    def any(cls) -> "TargetingSpec":
        """A spec that matches everything."""
        return cls()


#: The targeting dimensions, in the order of ``BidRequest.targeting_key``.
TARGETING_DIMENSIONS: tuple[str, ...] = tuple(f.name for f in fields(TargetingSpec))


@dataclass
class Campaign:
    """One ad campaign with a budget and targeting.

    Mutable on purpose: the DSP records spend and wins as auctions
    resolve.  ``max_bid_cpm`` is the bid cap the paper gave its DSP "to
    safeguard that the allocated budget will not be consumed quickly".
    """

    campaign_id: str
    advertiser: str
    targeting: TargetingSpec = field(default_factory=TargetingSpec.any)
    max_bid_cpm: float = 10.0
    budget_usd: float = float("inf")
    spent_usd: float = 0.0
    impressions_won: int = 0

    def __post_init__(self) -> None:
        if self.max_bid_cpm <= 0:
            raise ValueError(f"max_bid_cpm must be positive, got {self.max_bid_cpm}")
        if self.budget_usd < 0:
            raise ValueError(f"negative budget {self.budget_usd}")

    @property
    def remaining_budget_usd(self) -> float:
        return max(0.0, self.budget_usd - self.spent_usd)

    @property
    def exhausted(self) -> bool:
        """True when the budget cannot pay for one more impression at cap."""
        return self.remaining_budget_usd < self.max_bid_cpm / 1000.0

    def eligible_for(self, request: BidRequest) -> bool:
        """Can this campaign bid on the request at all?"""
        return not self.exhausted and self.targeting.matches(request)

    def record_win(self, charge_price_cpm: float) -> None:
        """Account for a won impression at the given charge price."""
        if charge_price_cpm < 0:
            raise ValueError(f"negative charge price {charge_price_cpm}")
        self.spent_usd += charge_price_cpm / 1000.0
        self.impressions_won += 1

    @property
    def average_cpm(self) -> float:
        """Realised average CPM across won impressions (0 when none)."""
        if self.impressions_won == 0:
            return 0.0
        return self.spent_usd * 1000.0 / self.impressions_won


def expand_setup_grid(
    cities: Iterable[str],
    contexts: Iterable[str],
    dayparts: Iterable[str],
    day_types: Iterable[str],
    device_oses: Iterable[tuple[str, str, str]],
    adxs: Iterable[str],
) -> list[TargetingSpec]:
    """Cartesian product of campaign control variables (paper section 5.2).

    ``device_oses`` couples device type, OS and slot size since the
    Table-5 ad formats depend on the device class (smartphone formats vs
    tablet formats).  Returns one fully pinned :class:`TargetingSpec`
    per experimental setup.
    """
    specs = []
    for city, ctx, daypart, day_type, (device, os_name, size), adx in itertools.product(
        cities, contexts, dayparts, day_types, device_oses, adxs
    ):
        specs.append(
            TargetingSpec(
                cities=frozenset({city}),
                contexts=frozenset({ctx}),
                dayparts=frozenset({daypart}),
                day_types=frozenset({day_type}),
                device_types=frozenset({device}),
                oses=frozenset({os_name}),
                slot_sizes=frozenset({size}),
                adxs=frozenset({adx}),
            )
        )
    return specs


def clone_for_adx(spec: TargetingSpec, adx: str) -> TargetingSpec:
    """Copy of a setup retargeted at a different exchange (A2 reuses A1)."""
    return replace(spec, adxs=frozenset({adx}))
