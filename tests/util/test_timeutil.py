"""Tests for the simulation calendar helpers."""

import datetime as dt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.util.timeutil import (
    CAMPAIGN_A1_PERIOD,
    CAMPAIGN_A2_PERIOD,
    DATASET_PERIOD,
    TIME_OF_DAY_BUCKETS,
    Period,
    campaign_daypart,
    day_name,
    day_of_week,
    epoch,
    from_epoch,
    hour_of,
    is_weekend,
    month_of,
    time_of_day_bucket,
    year_of,
)


class TestEpochConversions:
    def test_roundtrip(self):
        ts = epoch(2015, 6, 15, 13, 30)
        moment = from_epoch(ts)
        assert (moment.year, moment.month, moment.day) == (2015, 6, 15)
        assert (moment.hour, moment.minute) == (13, 30)

    def test_month_and_year(self):
        ts = epoch(2015, 11, 2)
        assert month_of(ts) == 11
        assert year_of(ts) == 2015

    def test_known_weekday(self):
        # 2015-01-01 was a Thursday.
        assert day_of_week(epoch(2015, 1, 1)) == 3
        assert day_name(epoch(2015, 1, 1)) == "Thursday"

    def test_weekend_detection(self):
        assert is_weekend(epoch(2015, 1, 3))        # Saturday
        assert is_weekend(epoch(2015, 1, 4))        # Sunday
        assert not is_weekend(epoch(2015, 1, 5))    # Monday

    @given(st.integers(min_value=0, max_value=23))
    def test_time_of_day_bucket_covers_all_hours(self, hour):
        bucket = time_of_day_bucket(epoch(2015, 3, 10, hour))
        assert bucket in TIME_OF_DAY_BUCKETS
        assert bucket == TIME_OF_DAY_BUCKETS[hour // 4]


_START, _END = epoch(2013, 1, 1), epoch(2019, 1, 1)

#: Epoch floats over 2013-2018, and instants at most 1e-6 s below an
#: hour boundary, where ``fromtimestamp``'s microsecond rounding (half
#: to even) can carry into the next second -- and so the next hour,
#: day, month or year.
CALENDAR_TS = st.floats(min_value=_START, max_value=_END) | st.builds(
    lambda hour, below: hour * 3600.0 - below,
    st.integers(int(_START) // 3600 + 1, int(_END) // 3600),
    st.floats(min_value=0.0, max_value=1e-6),
)


@pytest.mark.tier1
class TestIntegerCalendar:
    """The integer-arithmetic helpers agree with ``fromtimestamp``."""

    @given(CALENDAR_TS)
    @example(epoch(2015, 1, 5) - 4e-7)    # rounds up into Monday 00:00
    @example(epoch(2016, 1, 1) - 5e-7)    # rounds up into 2016
    @example(epoch(2015, 1, 5, 9) - 1e-6)  # stays at 08:59:59.999999
    def test_fields_match_fromtimestamp(self, ts):
        ref = dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc)
        assert hour_of(ts) == ref.hour
        assert day_of_week(ts) == ref.weekday()
        assert is_weekend(ts) == (ref.weekday() >= 5)
        assert month_of(ts) == ref.month
        assert year_of(ts) == ref.year
        expected_daypart = (
            "12am-9am" if ref.hour < 9 else "9am-6pm" if ref.hour < 18
            else "6pm-12am"
        )
        assert campaign_daypart(ts) == expected_daypart


class TestPeriod:
    def test_year_period_days(self):
        assert Period.for_year(2015).days == 365
        assert Period.for_year(2016).days == 366  # leap year

    def test_month_period(self):
        feb = Period.for_month(2015, 2)
        assert feb.days == 28
        dec = Period.for_month(2015, 12)
        assert dec.days == 31

    def test_months_range(self):
        q1 = Period.for_months(2015, 1, 3)
        assert q1.days == 31 + 28 + 31

    def test_invalid_month_range_raises(self):
        with pytest.raises(ValueError):
            Period.for_months(2015, 5, 3)

    def test_contains_is_half_open(self):
        p = Period.for_month(2015, 1)
        assert p.contains(p.start)
        assert not p.contains(p.end)

    def test_reversed_period_raises(self):
        with pytest.raises(ValueError):
            Period(10.0, 5.0)

    def test_clamp(self):
        p = Period(0.0, 100.0)
        assert p.clamp(-5) == 0.0
        assert p.clamp(50) == 50.0
        assert p.clamp(200) < 100.0

    def test_paper_windows(self):
        assert DATASET_PERIOD.days == 365
        assert round(CAMPAIGN_A1_PERIOD.days) == 13
        assert round(CAMPAIGN_A2_PERIOD.days) == 8
