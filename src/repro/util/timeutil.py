"""Simulation calendar utilities.

The reproduction replays the paper's timeline: dataset ``D`` spans the
calendar year 2015; probe campaign A1 runs in May 2016 and A2 in June
2016.  All simulated events are stamped with Unix epoch seconds; the
helpers here convert between epoch seconds and the calendar fields the
feature extractor needs (month, day-of-week, time-of-day bucket).

Times are treated as local time of the observed population (the paper's
users are in one country), so no timezone conversion is applied.
"""

from __future__ import annotations

import calendar
import datetime as dt
import math
from dataclasses import dataclass

SECONDS_PER_DAY = 86_400
SECONDS_PER_HOUR = 3_600

#: Six four-hour buckets used by the paper's Figure 6.
TIME_OF_DAY_BUCKETS = (
    "00:00-03:00",
    "04:00-07:00",
    "08:00-11:00",
    "12:00-15:00",
    "16:00-19:00",
    "20:00-23:00",
)

DAY_NAMES = (
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
)


def epoch(year: int, month: int, day: int, hour: int = 0, minute: int = 0,
          second: int = 0) -> float:
    """Unix timestamp for a calendar instant (UTC-naive, as local time)."""
    moment = dt.datetime(year, month, day, hour, minute, second,
                         tzinfo=dt.timezone.utc)
    return moment.timestamp()


def from_epoch(ts: float) -> dt.datetime:
    """Inverse of :func:`epoch`."""
    return dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc)


#: Proleptic Gregorian ordinal of 1970-01-01, the epoch's day 0.
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


def _second_of(ts: float) -> int:
    """The whole epoch second :func:`from_epoch` lands on.

    ``fromtimestamp`` rounds the fraction to microseconds, half to even,
    and a fraction that rounds to a full 10**6 microseconds carries
    into the next second.  Integer arithmetic on this second then
    reproduces its calendar fields without building a ``datetime``.
    """
    frac, whole = math.modf(ts)
    micros = round(frac * 1e6)
    return int(whole) + (micros >= 1_000_000) - (micros < 0)


def _date_of(ts: float) -> dt.date:
    return dt.date.fromordinal(_EPOCH_ORDINAL + _second_of(ts) // SECONDS_PER_DAY)


def month_of(ts: float) -> int:
    """Calendar month (1-12) of a timestamp."""
    return _date_of(ts).month


def year_of(ts: float) -> int:
    """Calendar year of a timestamp."""
    return _date_of(ts).year


def hour_of(ts: float) -> int:
    """Hour of day (0-23) of a timestamp."""
    return _second_of(ts) % SECONDS_PER_DAY // SECONDS_PER_HOUR


def day_of_week(ts: float) -> int:
    """Day of week of a timestamp: Monday=0 ... Sunday=6."""
    # 1970-01-01 was a Thursday.
    return (_second_of(ts) // SECONDS_PER_DAY + 3) % 7


def day_name(ts: float) -> str:
    """English day-of-week name of a timestamp."""
    return DAY_NAMES[day_of_week(ts)]


def is_weekend(ts: float) -> bool:
    """True when the timestamp falls on Saturday or Sunday."""
    return day_of_week(ts) >= 5


def time_of_day_bucket(ts: float) -> str:
    """Four-hour bucket label used in the paper's Figure 6."""
    return TIME_OF_DAY_BUCKETS[hour_of(ts) // 4]


#: Table-5 time-of-day campaign windows (coarser than the analyzer's
#: six four-hour buckets).
CAMPAIGN_DAYPARTS: tuple[str, ...] = ("12am-9am", "9am-6pm", "6pm-12am")


def campaign_daypart(ts: float) -> str:
    """Map a timestamp into the Table-5 daypart windows."""
    hour = hour_of(ts)
    if hour < 9:
        return "12am-9am"
    if hour < 18:
        return "9am-6pm"
    return "6pm-12am"


def days_in_month(year: int, month: int) -> int:
    """Number of days in a calendar month."""
    return calendar.monthrange(year, month)[1]


@dataclass(frozen=True)
class Period:
    """A half-open time interval ``[start, end)`` in epoch seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"Period end {self.end} precedes start {self.start}")

    @classmethod
    def for_year(cls, year: int) -> "Period":
        """The whole calendar year."""
        return cls(epoch(year, 1, 1), epoch(year + 1, 1, 1))

    @classmethod
    def for_month(cls, year: int, month: int) -> "Period":
        """One calendar month."""
        if month == 12:
            return cls(epoch(year, 12, 1), epoch(year + 1, 1, 1))
        return cls(epoch(year, month, 1), epoch(year, month + 1, 1))

    @classmethod
    def for_months(cls, year: int, first: int, last: int) -> "Period":
        """Consecutive months ``first..last`` (inclusive) of one year."""
        if not 1 <= first <= last <= 12:
            raise ValueError(f"bad month range {first}..{last}")
        return cls(cls.for_month(year, first).start, cls.for_month(year, last).end)

    @property
    def duration(self) -> float:
        """Length of the period in seconds."""
        return self.end - self.start

    @property
    def days(self) -> float:
        """Length of the period in days."""
        return self.duration / SECONDS_PER_DAY

    def contains(self, ts: float) -> bool:
        """True when ``ts`` falls inside the half-open interval."""
        return self.start <= ts < self.end

    def clamp(self, ts: float) -> float:
        """Clip a timestamp into the interval (end-exclusive by epsilon)."""
        return min(max(ts, self.start), self.end - 1e-6)


#: The paper's observation windows.
DATASET_YEAR = 2015
DATASET_PERIOD = Period.for_year(DATASET_YEAR)
CAMPAIGN_A1_PERIOD = Period(epoch(2016, 5, 9), epoch(2016, 5, 22))   # 13 days
CAMPAIGN_A2_PERIOD = Period(epoch(2016, 6, 13), epoch(2016, 6, 21))  # 8 days
