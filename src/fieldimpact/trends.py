"""Per-year indicator series and average-annual-increase statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

from .benchmarks import BenchmarkTables, TopJournalSet
from .corpus import Corpus, CorpusError
from .indicators import IndicatorRow, _entity_id, aggregate
from .reporting import Table, emit


class GrowthError(CorpusError):
    pass


@dataclass(frozen=True, slots=True)
class AnnualSeries:
    """Ordered (year, IndicatorRow) points for one entity."""

    entity: tuple[tuple[str, object], ...]
    points: tuple[tuple[int, IndicatorRow], ...]

    def entity_id(self) -> str:
        return _entity_id(self.entity)


def annual_series(
    corpus: Corpus,
    slice_spec: Sequence[str],
    benchmarks: BenchmarkTables,
    top_set: TopJournalSet,
) -> list[AnnualSeries]:
    """One indicator row per (entity, year), in `aggregate`'s entity order.

    The year key is appended internally and must not appear in slice_spec.
    """
    keys = tuple(slice_spec)
    if "year" in keys:
        raise GrowthError("slice_spec must not include 'year'; it is added internally")
    # aggregate orders rows by entity, then by year (the last key), so each
    # entity's points arrive together and in year order.
    grouped: dict[tuple, list[tuple[int, IndicatorRow]]] = {}
    for row in aggregate(corpus, keys + ("year",), benchmarks, top_set):
        *entity, (_, year) = row.entity
        grouped.setdefault(tuple(entity), []).append((year, row))
    return [AnnualSeries(entity, tuple(points)) for entity, points in grouped.items()]


def avg_annual_increase(series_values: Sequence[float]) -> float:
    """Compound annual growth rate of an ordered positive series, in percent.

    With T points the rate is (last/first)^(1/(T-1)) - 1; any non-positive
    value or a single point leaves growth undefined.
    """
    values = list(series_values)
    if len(values) < 2:
        raise GrowthError("growth needs at least two points")
    return _compound_rate(values, len(values) - 1)


def _compound_rate(values: Sequence[float], steps: int) -> float:
    """(last/first)^(1/steps) - 1 in percent; any non-positive value leaves it undefined."""
    if any(v is None or v <= 0 for v in values):
        raise GrowthError("undefined growth: series contains non-positive values")
    ratio = values[-1] / values[0]
    try:
        growth = ratio ** (1.0 / steps) - 1.0
        if growth == 0.0 and ratio != 1.0:
            # The root of a ratio within a few ulps of 1 rounds to 1.0; the
            # log keeps the sign of the change.
            growth = math.log(ratio) / steps
    except OverflowError:  # a year span past the float range
        raise GrowthError("undefined growth: the series spans more years than a float holds") from None
    return growth * 100.0


#: Metrics eligible for growth statistics.
GROWTH_METRICS = ("mean_cx", "top_share_pct", "mean_cjx", "weight")

#: First-value floor below which percent-metric growth is flagged unstable.
DEFAULT_UNSTABLE_FLOOR = 1.0


@dataclass(frozen=True, slots=True)
class GrowthStat:
    entity: tuple[tuple[str, object], ...]
    metric: str
    first_year: int
    last_year: int
    avg_annual_increase_pct: float
    unstable_base: bool


def series_growth(
    series: AnnualSeries,
    metric: str,
    unstable_floor: float | None = None,
) -> GrowthStat:
    """Growth statistic for one metric of one series.

    The rate compounds over the years from the first point to the last,
    so a year without output counts as a year of growth: points in 2001
    and 2004 give a 3-year rate. Percent metrics with a first value below
    the floor are flagged as having an unstable base (tiny shares make
    growth rates fragile).
    """
    if metric not in GROWTH_METRICS:
        raise GrowthError(f"unknown growth metric {metric!r}, allowed: {GROWTH_METRICS}")
    if len(series.points) < 2:
        raise GrowthError(f"entity {series.entity_id()!r}: single-point series")
    (first_year, _), (last_year, _) = series.points[0], series.points[-1]
    values = [getattr(row, metric) for _, row in series.points]
    rate = _compound_rate(values, last_year - first_year)
    floor = unstable_floor
    if floor is None:
        floor = DEFAULT_UNSTABLE_FLOOR if metric == "top_share_pct" else 0.0
    return GrowthStat(
        entity=series.entity,
        metric=metric,
        first_year=first_year,
        last_year=last_year,
        avg_annual_increase_pct=rate,
        unstable_base=values[0] < floor,
    )


def write_trend_csv(stats: Iterable[GrowthStat], destination: str | Path | IO[str], *,
                    keys: Sequence[str] = ()) -> None:
    """Write `stats` as CSV; without stats the slice-key columns are `keys`."""
    stats = list(stats)
    slice_keys = tuple(k for k, _ in stats[0].entity) if stats else tuple(keys)
    columns = ("metric", "first_year", "last_year", "avg_annual_increase_pct", "unstable_base_flag")
    rows = tuple(
        tuple(v for _, v in stat.entity)
        + (stat.metric, stat.first_year, stat.last_year, stat.avg_annual_increase_pct,
           "true" if stat.unstable_base else "false")
        for stat in stats
    )
    emit(Table(slice_keys + columns, rows, {"avg_annual_increase_pct": 4}), "csv", destination)
