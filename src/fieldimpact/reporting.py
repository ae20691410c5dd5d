"""Threshold-gated rankings and deterministic table emission.

`render` writes every table the package outputs: indicator, trend,
benchmark, top-journal and unmatched-address CSV and JSON, synthetic
registries, and ranked tables. One dialect holds for all of them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field as dataclass_field
from datetime import date
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable

from .corpus import CorpusError, _open_out

if TYPE_CHECKING:
    from .indicators import IndicatorRow

RANK_METRICS = ("mean_cx", "top_share_pct", "mean_cjx", "weight", "top_decile_mean_cx")

FORMATS = ("csv", "json", "markdown")


class ReportError(CorpusError):
    pass


@dataclass(frozen=True, slots=True)
class RankingSpec:
    """What to rank, on which metric, above which publication weight."""

    slice_label: str
    rank_metric: str
    min_weight: float = 50.0
    limit: int = 10

    def __post_init__(self):
        if self.rank_metric not in RANK_METRICS:
            raise ReportError(f"unknown metric {self.rank_metric!r}, allowed: {RANK_METRICS}")
        if self.min_weight < 0:
            raise ReportError("min_weight must be >= 0")
        if self.limit < 1:
            raise ReportError("limit must be >= 1")


@dataclass(frozen=True)
class Table:
    """Column-ordered rows with display precision hints for text formats."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    decimals: dict[str, int] = dataclass_field(default_factory=dict)


#: Display precision for the ranked-table columns (text formats only;
#: JSON always carries full precision).
_RANK_DECIMALS = {
    "weight": 1,
    "mean_cx": 2,
    "top_share_pct": 1,
    "mean_cjx": 2,
    "top_decile_mean_cx": 2,
}


def rank(indicator_rows: Iterable[IndicatorRow], spec: RankingSpec) -> Table:
    """Filter by minimum weight, order by the metric, truncate to the limit.

    Fractional weights are compared to the threshold directly. Ties on
    the metric break by weight descending, then entity id ascending.
    Rows lacking the metric (e.g. no top-journal publications) are not
    rankable and are dropped.
    """
    eligible = [
        row
        for row in indicator_rows
        if row.weight >= spec.min_weight and getattr(row, spec.rank_metric) is not None
    ]
    eligible.sort(key=lambda r: (-getattr(r, spec.rank_metric), -r.weight, r.entity_id()))
    columns = ["entity", "weight", "mean_cx", "top_share_pct", "mean_cjx"]
    if spec.rank_metric == "top_decile_mean_cx":
        columns.append("top_decile_mean_cx")
    rows = tuple(
        tuple([row.entity_id()] + [getattr(row, c) for c in columns[1:]])
        for row in eligible[: spec.limit]
    )
    return Table(tuple(columns), rows, dict(_RANK_DECIMALS))


def emit(table: Table, fmt: str, destination: str | Path | IO[str]) -> None:
    """Write a table as csv, json or markdown; byte-deterministic.

    Text formats round floats to the table's display precision; JSON
    carries full precision and round-trips exactly. Display rounding is
    applied at write time only and never feeds back into computation.
    """
    text = render(table, fmt)
    with _open_out(destination) as fh:
        fh.write(text)


def render(table: Table, fmt: str) -> str:
    for row in table.rows:
        for column, value in zip(table.columns, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise ReportError(f"column {column!r} holds the non-finite value {value!r}")
    if fmt == "json":
        payload = [dict(zip(table.columns, row)) for row in table.rows]
        return json.dumps(payload, indent=2) + "\n"
    if fmt not in FORMATS:
        raise ReportError(f"unknown format {fmt!r}, allowed: {FORMATS}")
    lines = [table.columns]
    lines += ([_display(v, c, table.decimals) for c, v in zip(table.columns, row)] for row in table.rows)
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(lines)
        return buf.getvalue()
    lines.insert(1, ["---"] * len(table.columns))
    return "".join("| " + " | ".join(cells) + " |\n" for cells in lines)


def _display(value, column: str, decimals: dict[str, int]) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        nd = decimals.get(column)
        return f"{value:.{nd}f}" if nd is not None else repr(value)
    return str(value)


_EXTENSIONS = {"csv": "csv", "json": "json", "markdown": "md"}


def default_filename(slice_label: str, metric: str, fmt: str, when: date | None = None) -> str:
    """`{slice}_{metric}_{date}.{ext}` file name for a ranked table."""
    when = when or date.today()
    ext = _EXTENSIONS.get(fmt)
    if ext is None:
        raise ReportError(f"unknown format {fmt!r}")
    return f"{slice_label}_{metric}_{when.isoformat()}.{ext}"
