"""Tests for nURL building and observer-side parsing."""

from urllib.parse import quote, urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtb.nurl import (
    FORMATS,
    WinNotification,
    build_nurl,
    nurl_params,
    parse_nurl,
)
from repro.rtb.pricecrypto import PriceKeys, encrypt_price

KEYS = PriceKeys.derive("nurl-test")
TOKEN = encrypt_price(1.5, KEYS, bytes(16))


def make_notification(adx="MoPub", price=0.95, encrypted=False, **kwargs):
    defaults = dict(
        adx=adx,
        dsp="Criteo-DSP",
        charge_price_cpm=None if encrypted else price,
        encrypted_price=TOKEN if encrypted else None,
        impression_id="imp-1",
        auction_id="auc-1",
        ad_domain="brand.example.com",
        slot_size="300x250",
        publisher="news.example.es",
        country="ES",
        bid_price_cpm=1.10,
        campaign_id="cmp-7",
    )
    defaults.update(kwargs)
    return WinNotification(**defaults)


class TestWinNotification:
    def test_requires_exactly_one_price(self):
        with pytest.raises(ValueError):
            WinNotification(
                adx="MoPub", dsp="d", charge_price_cpm=1.0, encrypted_price=TOKEN,
                impression_id="i", auction_id="a",
            )
        with pytest.raises(ValueError):
            WinNotification(
                adx="MoPub", dsp="d", charge_price_cpm=None, encrypted_price=None,
                impression_id="i", auction_id="a",
            )

    def test_is_encrypted_flag(self):
        assert make_notification(encrypted=True).is_encrypted
        assert not make_notification().is_encrypted


class TestBuildParse:
    @pytest.mark.parametrize("adx", sorted(FORMATS))
    def test_cleartext_roundtrip_every_exchange(self, adx):
        n = make_notification(adx=adx, price=0.4321)
        parsed = parse_nurl(build_nurl(n))
        assert parsed is not None
        assert parsed.adx == adx
        assert not parsed.is_encrypted
        assert parsed.cleartext_price_cpm == pytest.approx(0.4321, abs=1e-4)
        assert parsed.dsp == "Criteo-DSP"
        assert parsed.campaign_id == "cmp-7"

    @pytest.mark.parametrize("adx", sorted(FORMATS))
    def test_encrypted_roundtrip_every_exchange(self, adx):
        n = make_notification(adx=adx, encrypted=True)
        parsed = parse_nurl(build_nurl(n))
        assert parsed is not None
        assert parsed.is_encrypted
        assert parsed.encrypted_token == TOKEN
        assert parsed.cleartext_price_cpm is None

    def test_slot_size_recovered_from_size_param(self):
        parsed = parse_nurl(build_nurl(make_notification(adx="MoPub")))
        assert parsed.slot_size == "300x250"

    def test_slot_size_recovered_from_width_height(self):
        parsed = parse_nurl(build_nurl(make_notification(adx="Turn")))
        assert parsed.slot_size == "300x250"

    def test_bid_price_never_mistaken_for_charge(self):
        """MoPub carries bid_price too; the parser must take charge_price."""
        n = make_notification(adx="MoPub", price=0.5, bid_price_cpm=9.99)
        parsed = parse_nurl(build_nurl(n))
        assert parsed.cleartext_price_cpm == pytest.approx(0.5, abs=1e-4)

    def test_unknown_exchange_rejected_on_build(self):
        with pytest.raises(ValueError):
            build_nurl(make_notification(adx="NoSuchX"))

    @given(st.floats(min_value=0.001, max_value=99, allow_nan=False))
    @settings(max_examples=30)
    def test_price_roundtrip_precision(self, price):
        parsed = parse_nurl(build_nurl(make_notification(price=price)))
        assert parsed.cleartext_price_cpm == pytest.approx(price, abs=1e-4)


#: Free text for the fields a publisher or advertiser names: reserved
#: and unreserved ASCII, spaces, percent signs and non-ASCII letters.
FIELD_TEXT = st.text(
    st.sampled_from("aZ09-._~!*'();:@&=+$,/?#[] %\"<>\\^`{|}") | st.characters(
        blacklist_categories=("Cs",)
    ),
    max_size=24,
)


class TestEncoding:
    @pytest.mark.parametrize("adx", sorted(FORMATS))
    @given(publisher=FIELD_TEXT, domain=FIELD_TEXT, campaign=FIELD_TEXT,
           encrypted=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_query_is_urlencode_rendering(self, adx, publisher, domain,
                                          campaign, encrypted):
        n = make_notification(adx=adx, encrypted=encrypted, publisher=publisher,
                              ad_domain=domain, campaign_id=campaign)
        query = urlencode(nurl_params(n), quote_via=quote)
        assert build_nurl(n) == f"{FORMATS[adx].base_url()}?{query}"


class TestParserRobustness:
    def test_unknown_host_returns_none(self):
        assert parse_nurl("https://unknown.example.com/win?price=1.0") is None

    def test_content_url_returns_none(self):
        assert parse_nurl("https://news.example.es/page/1") is None

    def test_known_host_without_price_returns_none(self):
        assert parse_nurl("https://cpp.imp.mpx.mopub.com/imp?foo=bar") is None

    def test_negative_price_rejected(self):
        assert parse_nurl("https://cpp.imp.mpx.mopub.com/imp?charge_price=-1") is None

    def test_garbled_price_returns_none(self):
        assert (
            parse_nurl("https://cpp.imp.mpx.mopub.com/imp?charge_price=oops") is None
        )

    def test_malformed_url_returns_none(self):
        assert parse_nurl("not a url at all") is None

    def test_params_preserved(self):
        parsed = parse_nurl(build_nurl(make_notification()))
        assert parsed.params.get("country") == "ES"
        assert parsed.params.get("pub_name") == "news.example.es"
