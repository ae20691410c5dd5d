"""World benchmark tables: expected citation rates and top-journal sets.

The expected citation rate of a (year, field) cell is the exact
arithmetic mean of the census citation counts of every benchmark
publication in that cell; multi-field publications contribute their full
count to each of their field cells. The journal-level table is keyed by
(year, journal). Top journals are those whose impact factor falls in the
top decile of the impact-factor distribution of any of their fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Mapping, NamedTuple, Sequence

import numpy as np

from .columns import exact_dtype, segments
from .corpus import _COUNT_BOUND, Corpus, CorpusError, FieldScheme, Journal, _read_csv
from .reporting import Table, emit


class BenchmarkError(CorpusError):
    """Benchmark construction and lookup failures."""


class BenchmarkCell(NamedTuple):
    n: int
    mean: float


@dataclass(frozen=True, slots=True)
class CitationBenchmarkTable:
    """Mean census citations per (year, key) cell; key is field or journal."""

    kind: str
    cells: Mapping[tuple[int, str], BenchmarkCell]

    def expected(self, year: int, key: str) -> float:
        """The cell's mean; a missing or a degenerate (mean 0) cell raises BenchmarkError."""
        cell = self.cells.get((year, key))
        if cell is None:
            raise BenchmarkError(f"missing benchmark for ({year}, {key}) [{self.kind}]")
        if cell.mean == 0.0:
            raise BenchmarkError(f"degenerate benchmark (mean 0) for ({year}, {key}) [{self.kind}]")
        return cell.mean


def _cell_sums(a: np.ndarray, b: np.ndarray, n_b: int, citations: np.ndarray):
    """Per distinct code pair (a[k], b[k]) of the rows: (i, j, count, exact citation total)."""
    if not len(a):
        raise BenchmarkError("no benchmark data")
    order, starts = segments(a.astype(np.int64) * n_b + b)
    dtype = exact_dtype(int(citations.max()) * len(citations))
    totals = np.add.reduceat(citations[order].astype(dtype, copy=False), starts).tolist()
    counts = np.diff(np.append(starts, len(order))).tolist()
    first = order[starts]
    return zip(a[first].tolist(), b[first].tolist(), counts, totals)


def _mean_table(kind: str, sums: Mapping[tuple[int, str], Sequence[int]]) -> CitationBenchmarkTable:
    """Cells from (count, total) per key; means are Python int/int divisions."""
    return CitationBenchmarkTable(kind, {key: BenchmarkCell(n, total / n) for key, (n, total) in sums.items()})


def compute_xcr(benchmark_corpus: Corpus) -> CitationBenchmarkTable:
    """Expected citation rate per (year, field) over the benchmark corpus."""
    cols = benchmark_corpus.columns
    sums: dict[tuple[int, str], list[int]] = {}
    for y, t, n, total in _cell_sums(cols.year, cols.fields, len(cols.field_tuples), cols.citations):
        for field_id in cols.field_tuples[t]:
            cell = sums.setdefault((cols.years[y], field_id), [0, 0])
            cell[0] += n
            cell[1] += total
    return _mean_table("field", sums)


def compute_jxcr(benchmark_corpus: Corpus) -> CitationBenchmarkTable:
    """Expected citation rate per (year, journal) over the benchmark corpus."""
    cols = benchmark_corpus.columns
    return _mean_table("journal", {
        (cols.years[y], cols.journals[j]): (n, total)
        for y, j, n, total in _cell_sums(cols.year, cols.journal, len(cols.journals), cols.citations)
    })


@dataclass(frozen=True, slots=True)
class BenchmarkTables:
    xcr: CitationBenchmarkTable
    jxcr: CitationBenchmarkTable


def compute_benchmarks(benchmark_corpus: Corpus) -> BenchmarkTables:
    return BenchmarkTables(compute_xcr(benchmark_corpus), compute_jxcr(benchmark_corpus))


@dataclass(frozen=True, slots=True)
class TopJournalSet:
    """Per-field sets of journals in the top impact-factor decile.

    A journal can be top in one of its fields and not another; a
    publication counts as a top-journal publication if its journal is top
    in any of the publication's fields.
    """

    by_field: Mapping[str, frozenset[str]]


def classify_top_journals(
    journals: Mapping[str, Journal],
    field_scheme: FieldScheme,
    fraction: float = 0.10,
) -> TopJournalSet:
    """Per field: top ceil(fraction * n) journals by impact factor, ties included.

    All journals sharing the boundary impact factor are included. Fields
    known to the scheme but carrying no journals map to empty sets. A
    journal counts once in each field it lists, however often it lists it.
    The ceiling is taken of the decimal value of `fraction` times n, exactly.
    """
    if not 0 < fraction <= 1:
        raise BenchmarkError(f"fraction must be in (0, 1], got {fraction}")
    # In floats 0.07 * 100 is 7.000000000000001, whose ceiling is 8.
    cutoff = Fraction(str(fraction))
    per_field: dict[str, list[Journal]] = {field_id: [] for field_id in field_scheme.fields()}
    for journal in journals.values():
        for field_id in dict.fromkeys(journal.field_ids):
            per_field.setdefault(field_id, []).append(journal)

    by_field: dict[str, frozenset[str]] = {}
    for field_id, members in per_field.items():
        if not members:
            by_field[field_id] = frozenset()
            continue
        members.sort(key=lambda j: (-j.impact_factor, j.id))
        k = math.ceil(cutoff * len(members))
        boundary = members[k - 1].impact_factor
        by_field[field_id] = frozenset(j.id for j in members if j.impact_factor >= boundary)
    return TopJournalSet(by_field)


# CSV import/export. Means are written as repr and round-trip at full
# precision, so externally supplied world benchmarks can drive a national analysis.

#: Each table kind's CSV header: the year, the key, the cell size and the mean.
_CSV_HEADERS = {
    "field": ("year", "field_id", "n", "xcr"),
    "journal": ("year", "journal_id", "n", "jxcr"),
}


def export_benchmark_csv(table: CitationBenchmarkTable, destination: str | Path | IO[str]) -> None:
    rows = tuple((year, key, cell.n, cell.mean) for (year, key), cell in sorted(table.cells.items()))
    emit(Table(_CSV_HEADERS[table.kind], rows), "csv", destination)


def load_benchmark_csv(source: str | Path | IO[str], kind: str) -> CitationBenchmarkTable:
    header = _CSV_HEADERS.get(kind)
    if header is None:
        raise BenchmarkError(f"unknown benchmark kind {kind!r}")
    _, key_col, _, value_col = header
    cells: dict[tuple[int, str], BenchmarkCell] = {}
    for lineno, row in _read_csv(source, header, "benchmark CSV", BenchmarkError):
        if len(row) != 4:
            raise BenchmarkError(f"benchmark CSV line {lineno}: expected 4 columns, got {len(row)}")
        try:
            year, key, n, mean = int(row[0]), row[1].strip(), int(row[2]), float(row[3])
        except ValueError as exc:
            raise BenchmarkError(f"benchmark CSV line {lineno}: {exc}") from exc
        if not key:
            raise BenchmarkError(f"benchmark CSV line {lineno}: empty {key_col}")
        if n < 1:
            raise BenchmarkError(f"benchmark CSV line {lineno}: n must be >= 1")
        if n >= _COUNT_BOUND:
            raise BenchmarkError(f"benchmark CSV line {lineno}: n must be below 2**53")
        if not math.isfinite(mean) or mean < 0:
            raise BenchmarkError(
                f"benchmark CSV line {lineno}: {value_col} must be finite and non-negative, "
                f"got {row[3].strip()!r}"
            )
        if 0.0 < mean < 1 / n:  # a total of k >= 1 citations gives k / n >= 1 / n, rounding included
            raise BenchmarkError(
                f"benchmark CSV line {lineno}: {value_col} must be 0 or at least 1/n (n = {n}), "
                f"got {row[3].strip()!r}"
            )
        if (year, key) in cells:
            raise BenchmarkError(f"benchmark CSV line {lineno}: duplicate cell ({year}, {key})")
        cells[(year, key)] = BenchmarkCell(n, mean)
    if not cells:
        raise BenchmarkError("no benchmark data")
    return CitationBenchmarkTable(kind, cells)


def export_top_journals_csv(top_set: TopJournalSet, destination: str | Path | IO[str]) -> None:
    rows = tuple(
        (field_id, journal_id)
        for field_id in sorted(top_set.by_field)
        for journal_id in sorted(top_set.by_field[field_id])
    )
    emit(Table(("field_id", "journal_id"), rows), "csv", destination)


def load_top_journals_csv(source: str | Path | IO[str]) -> TopJournalSet:
    by_field: dict[str, set[str]] = {}
    for lineno, row in _read_csv(source, ("field_id", "journal_id"), "top-journal CSV", BenchmarkError):
        if len(row) != 2:
            raise BenchmarkError(f"top-journal CSV line {lineno}: expected 2 columns, got {len(row)}")
        field_id, journal_id = (cell.strip() for cell in row)
        if not field_id or not journal_id:
            raise BenchmarkError(f"top-journal CSV line {lineno}: empty field_id or journal_id")
        by_field.setdefault(field_id, set()).add(journal_id)
    return TopJournalSet({f: frozenset(js) for f, js in by_field.items()})
