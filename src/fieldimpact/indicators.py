"""Standardized per-publication impact and grouped indicator rows.

A publication's field-standardized impact is its census citation count
divided by the expected citation rate of its (year, field) cell; for
multi-field publications the denominator is the arithmetic mean of the
expected rates of all its fields. Inside a single-field slice the
denominator is that field's rate alone, and inside a discipline slice
the mean runs over the publication's fields belonging to that
discipline. Aggregation weights are exact rationals (fractional
counting), summed as integer numerators over the lcm of the call's
weight denominators, and float reductions use exact compensated
summation, so results do not depend on evaluation order or thread count.

`aggregate` is one numpy kernel over the corpus's record columns. It
expands every record into one row per (context, share), groups the rows
by one stable sort and reduces each group. Benchmark values come from
tables indexed by column codes: expected rates per (year code, field set
code), journal rates per (year code, journal code), and top-journal
flags per (journal code, field-list code), true where the journal is top
in any field of the list. A rate cell that `expected` refuses (missing or
mean 0) reads as NaN. Weights and slice labels are made once per distinct
attribution. Its exactness contract:

- the float expressions are those of the scalar definition: per (year,
  field set) cell, the rates of its fields added left to right in plain
  float arithmetic, over their count (the same bits on every Python; the
  built-in `sum` compensates from 3.12 on); `citations / rate`,
  `(numerator / denominator) * ratio`, and one `math.fsum` per group,
  which is correctly rounded, so the grouping order cannot move a bit;
- exact sums (weights, weighted citations, top-journal weights) are
  int64 numerators over the lcm, or Python ints when
  lcm * max(citations) * rows could reach 2**63;
- the top-decile mean is the `fsum` of a group's k = ceil(0.10 * n_pubs)
  largest first-touch ratios, over k: a multiset that ties do not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .benchmarks import (
    BenchmarkError,
    BenchmarkTables,
    CitationBenchmarkTable,
    TopJournalSet,
)
from .columns import RecordColumns, encode, exact_dtype, expand, segments
from .corpus import Corpus, CorpusError, OrgType
from .reporting import Table, emit

SLICE_KEYS = ("nation", "discipline", "field", "org_type", "org", "subunit", "year", "doc_type")
_ORG_KEYS = frozenset({"org_type", "org", "subunit"})


class IndicatorError(CorpusError):
    pass


@dataclass(frozen=True, slots=True)
class IndicatorRow:
    """Aggregate indicators for one entity within one slice."""

    entity: tuple[tuple[str, object], ...]
    weight: float
    weight_exact: Fraction
    n_pubs: int
    n_excluded: int
    mean_cx: float
    mean_citations: float
    top_share_pct: float
    mean_cjx: float | None
    top_decile_mean_cx: float | None = None

    def entity_id(self) -> str:
        return _entity_id(self.entity)


def _entity_id(entity: tuple[tuple[str, object], ...]) -> str:
    """Pipe-joined entity values, the stable label used for ranking and sorting."""
    return "|".join("" if v is None else str(v) for _, v in entity)


def _validate_slice(slice_spec: Sequence[str]) -> tuple[str, ...]:
    keys = tuple(slice_spec)
    if not keys:
        raise IndicatorError("slice_spec must name at least one grouping key")
    unknown = [k for k in keys if k not in SLICE_KEYS]
    if unknown:
        raise IndicatorError(f"unknown slice key(s) {unknown}, allowed: {SLICE_KEYS}")
    if len(set(keys)) != len(keys):
        raise IndicatorError("slice_spec keys must be unique")
    return keys


def aggregate(
    corpus: Corpus,
    slice_spec: Sequence[str],
    benchmarks: BenchmarkTables,
    top_set: TopJournalSet,
    *,
    with_top_decile: bool = False,
) -> list[IndicatorRow]:
    """Aggregate standardized impacts over the requested grouping keys.

    Weights follow fractional counting on organizational slices and are
    1 per publication elsewhere; a multi-field publication belongs to
    every field/discipline group it maps to. Publications whose required
    benchmark cells are missing or degenerate are excluded from the
    group and counted in its n_excluded. Empty groups are omitted. On
    the `subunit` key, a share attributed to an organization as a whole
    is labelled with the organization's id.

    Exact sums are integer numerators over the lcm of the call's weight
    denominators (1 on non-organizational slices).

    Rows are ordered by entity, key by key in slice order: integer values
    (years) numerically, all others as strings. Callers may rely on that
    order; rows that agree on all but the last key are adjacent.
    """
    keys = _validate_slice(slice_spec)
    cols = corpus.columns
    years, field_tuples = cols.years, cols.field_tuples
    discipline_of = corpus.field_scheme.discipline_of

    # Standardization contexts per distinct field tuple: the fields whose
    # expected rates are averaged, and the context's slice values.
    if "field" in keys:
        contexts = [[((f,), {"field": f, "discipline": discipline_of(f)}) for f in t] for t in field_tuples]
    elif "discipline" in keys:
        contexts = [
            [(tuple([f for f in t if discipline_of(f) == d]), {"discipline": d})
             for d in sorted({discipline_of(f) for f in t})]
            for t in field_tuples
        ]
    else:
        contexts = [[(t, {})] for t in field_tuples]
    # Shares per distinct attribution, keyed by its plain values: float
    # weight, exact weight over `scale`, and slice values. `share_of_item`
    # names the share of every item of the attribution tuples laid end to
    # end. Off organizational slices every record has one share of 1; on
    # them an unattributed record has none.
    if any(k in _ORG_KEYS for k in keys):
        share_of_item, distinct = encode(
            (a.org_id, a.subunit_id, a.weight.numerator, a.weight.denominator)
            for t in cols.attribution_tuples for a in t
        )
        scale = math.lcm(*{den for _, _, _, den in distinct})
        org_type = {org.id: org.org_type.value for org in corpus.organizations.values()}
        shares = [(
            num / den,
            num * (scale // den),
            # An org-level share is labelled with its organization; org and
            # sub-unit ids share one registry.
            {"org_type": org_type[org], "org": org, "subunit": subunit or org},
        ) for org, subunit, num, den in distinct]
        share_of, n_shares = cols.attributions, [len(t) for t in cols.attribution_tuples]
    else:
        scale, shares, share_of_item, n_shares = 1, [(1.0, 1, {})], np.zeros(1, np.int32), [1]
        share_of = np.zeros(len(cols.citations), np.int32)

    # Context rows, one per record x context, and their ratios; NaN marks a
    # missing or degenerate benchmark cell.
    crec, cid = expand(cols.fields, [len(c) for c in contexts])
    contexts = [c for cs in contexts for c in cs]
    sub_of, subs = encode(fields for fields, _ in contexts)
    rate = _mean_expected_rates(years, subs, benchmarks.xcr)
    with np.errstate(over="ignore"):
        ratio = cols.citations[crec] / rate[cols.year[crec], sub_of[cid]]
    # Group code: mixed radix over the slice's record, context and share values.
    code, span = np.zeros(len(crec), np.int64), 1
    if "year" in keys:
        code, span = _combine(code, span, cols.year[crec], len(years))
    if "doc_type" in keys:
        code, span = _combine(code, span, cols.doc_type[crec], len(cols.doc_types))
    label_of, labels = encode(tuple(v.get(k) for k in keys) for _, v in contexts)
    code, span = _combine(code, span, label_of[cid], len(labels))

    # Rows, one per context row x share: record-major, so within a group
    # records keep corpus order after a stable sort, and a record's first
    # touch of the group starts a run of its record index.
    row_ctx, item = expand(share_of[crec], n_shares)
    if not len(item):
        return []
    sid = share_of_item[item]
    del item
    label_of, labels = encode(tuple(v.get(k) for k in keys) for _, _, v in shares)
    code, span = _combine(code[row_ctx], span, label_of[sid], len(labels))
    order, starts = segments(code)
    del code
    ends = np.append(starts[1:], len(order))
    pick = row_ctx[order]
    rec, ratio, sid, group_ctx = crec[pick], ratio[pick], sid[order], cid[pick[starts]]
    del row_ctx, order, pick, crec, cid

    with np.errstate(over="ignore"):
        cjx = (cols.citations / _journal_rates(cols, benchmarks.jxcr)[cols.year, cols.journal])[rec]
    valid = ~np.isnan(ratio)
    first = np.concatenate(([True], rec[1:] != rec[:-1]))
    first[starts] = True
    top = _top_flags(cols, top_set)[cols.journal, cols.fields][rec] & valid
    top_cjx = top & ~np.isnan(cjx)

    def total(x, dtype=None) -> list:
        return np.add.reduceat(x, starts, dtype=dtype).tolist()

    dtype = exact_dtype(scale * max(1, int(cols.citations.max())) * len(rec))
    weight = np.where(valid, np.array([w for _, w, _ in shares], dtype)[sid], 0)
    sums = (
        total(weight), total(weight * cols.citations[rec].astype(dtype, copy=False)),
        total(np.where(top, weight, 0)), total(np.where(top_cjx, weight, 0)),
        total(first & valid, np.int64), total(first & ~valid, np.int64),
    )
    del weight
    share = np.array([s for s, _, _ in shares])[sid]
    with np.errstate(over="ignore"):
        wcjx_parts = share * cjx
        wr_parts = np.multiply(share, ratio, out=share)
    wcjx_parts[~top_cjx] = 0.0
    wr_parts[~valid] = 0.0
    del top, top_cjx, cjx
    if with_top_decile:
        # Each group's first-touch ratios, largest first; ties do not change
        # the multiset of the k largest.
        scored = np.flatnonzero(first & valid)
        group = np.repeat(np.arange(len(starts)), ends - starts)[scored]
        best = ratio[scored][np.lexsort((-ratio[scored], group))]
        best_start = np.searchsorted(group, np.arange(len(starts)))
        del scored, group

    rows = []
    for g, (start, end, w, cit, top_w, cjx_w, n_pubs, n_excluded) in enumerate(
        zip(starts.tolist(), ends.tolist(), *sums)
    ):
        if w == 0:
            continue
        r = rec[start]
        values = {"nation": "all", "year": years[cols.year[r]], "doc_type": cols.doc_types[cols.doc_type[r]].value,
                  **contexts[group_ctx[g]][1], **shares[sid[start]][2]}
        weight_exact = Fraction(w, scale)
        top_decile = None
        if with_top_decile:
            k = math.ceil(0.10 * n_pubs)
            top_decile = math.fsum(best[best_start[g]:best_start[g] + k].tolist()) / k
        rows.append(
            IndicatorRow(
                entity=tuple((k, values[k]) for k in keys),
                weight=float(weight_exact),
                weight_exact=weight_exact,
                n_pubs=n_pubs,
                n_excluded=n_excluded,
                mean_cx=math.fsum(wr_parts[start:end].tolist()) / float(weight_exact),
                mean_citations=float(Fraction(cit, w)),
                top_share_pct=100.0 * float(Fraction(top_w, w)),
                mean_cjx=math.fsum(wcjx_parts[start:end].tolist()) / float(Fraction(cjx_w, scale)) if cjx_w else None,
                top_decile_mean_cx=top_decile,
            )
        )
    rows.sort(key=lambda row: tuple((k, (0, v) if isinstance(v, int) else (1, str(v))) for k, v in row.entity))
    return rows


def _combine(code: np.ndarray, span: int, label: np.ndarray, radix: int) -> tuple[np.ndarray, int]:
    """`code * radix + label` and its span; `code` is first made dense when the
    product of the spans could pass int64."""
    if span * radix >= 2**63:
        distinct, code = np.unique(code, return_inverse=True)
        code, span = code.reshape(-1), len(distinct)
    code *= radix
    code += label
    return code, span * radix


def _mean_expected_rates(
    years: Sequence[int], field_sets: Sequence[Sequence[str]], xcr: CitationBenchmarkTable
) -> np.ndarray:
    """Per (year, field set): the arithmetic mean of the expected rates of the
    set's fields, the denominator of every standardized impact; NaN where
    `xcr.expected` refuses any of those cells.

    Each (year, field) rate is read once. The sums run left to right over
    the set's positions, a shorter set adding 0.0 past its end, so every
    cell is the set's rates added in order, uncompensated, over their
    count: not the built-in `sum`, which compensates from Python 3.12 on.
    """
    field_of, fields = encode(f for s in field_sets for f in s)
    # The last column is the padding's 0.0.
    per_field = np.zeros((len(years), len(fields) + 1))
    for y, year in enumerate(years):
        for f, field in enumerate(fields):
            try:
                per_field[y, f] = xcr.expected(year, field)
            except BenchmarkError:
                per_field[y, f] = math.nan
    lengths = np.array([len(s) for s in field_sets], np.int64)
    position = np.full((len(field_sets), int(lengths.max(initial=0))), len(fields))
    position[np.arange(position.shape[1]) < lengths[:, None]] = field_of
    total = np.zeros((len(years), len(field_sets)))
    for column in position.T:
        total += per_field[:, column]
    return total / lengths


def _journal_rates(cols: RecordColumns, jxcr: CitationBenchmarkTable) -> np.ndarray:
    """Expected rate per (year code, journal code) of `cols`, read through
    `jxcr.expected`; NaN where that cell is missing or degenerate."""
    year_code = {y: i for i, y in enumerate(cols.years)}
    journal_code = {j: i for i, j in enumerate(cols.journals)}
    rates = np.full((len(cols.years), len(cols.journals)), math.nan)
    for year, journal in jxcr.cells:
        if year in year_code and journal in journal_code:
            try:
                rates[year_code[year], journal_code[journal]] = jxcr.expected(year, journal)
            except BenchmarkError:
                pass
    return rates


def _top_flags(cols: RecordColumns, top_set: TopJournalSet) -> np.ndarray:
    """Per (journal code, field-list code) of `cols`: is the journal top in
    any field of the list?"""
    journal_code = {j: i for i, j in enumerate(cols.journals)}
    field_of, fields = encode(f for t in cols.field_tuples for f in t)
    top = np.zeros((len(cols.journals), len(fields)), bool)
    for f, field in enumerate(fields):
        top[[journal_code[j] for j in top_set.by_field.get(field, ()) if j in journal_code], f] = True
    # Field lists are never empty, so each list's first item starts its run.
    lengths = np.array([len(t) for t in cols.field_tuples], np.int64)
    return np.logical_or.reduceat(top[:, field_of], np.cumsum(lengths) - lengths, axis=1)


# Concentration of organization types across disciplines.


def concentration_index_from_shares(
    group_share_in_discipline: float | Fraction, group_overall_share: float | Fraction
) -> float | Fraction:
    """Ratio of a group's within-discipline share to its overall share; exact
    `Fraction` shares give an exact `Fraction`."""
    if group_overall_share <= 0:
        raise IndicatorError("group overall share must be positive")
    if group_share_in_discipline < 0:
        raise IndicatorError("shares must be non-negative")
    return group_share_in_discipline / group_overall_share


def org_type_discipline_weights(corpus: Corpus):
    """Exact attributed weights: per (org_type, discipline), per discipline,
    per org_type overall, and the overall total.

    Multi-field publications count once per distinct discipline (double
    counting, as in discipline-level output tables); the overall totals
    count each publication once. Unattributed records are excluded. Each
    distinct (attribution tuple, field tuple) pair adds its weights times
    its record count.
    """
    scheme, cols = corpus.field_scheme, corpus.columns
    n_fields = len(cols.field_tuples)
    pairs, counts = np.unique(cols.attributions.astype(np.int64) * n_fields + cols.fields, return_counts=True)
    w_td: dict[tuple[OrgType, str], Fraction] = {}
    w_d: dict[str, Fraction] = {}
    w_t: dict[OrgType, Fraction] = {}
    total = Fraction(0)
    for pair, n in zip(pairs.tolist(), counts.tolist()):
        a, t = divmod(pair, n_fields)
        discs = sorted({scheme.discipline_of(f) for f in cols.field_tuples[t]})
        for att in cols.attribution_tuples[a]:
            org_type, weight = corpus.organizations[att.org_id].org_type, att.weight * n
            w_t[org_type] = w_t.get(org_type, Fraction(0)) + weight
            total += weight
            for d in discs:
                w_td[(org_type, d)] = w_td.get((org_type, d), Fraction(0)) + weight
                w_d[d] = w_d.get(d, Fraction(0)) + weight
    return w_td, w_d, w_t, total


def concentration_table(corpus: Corpus) -> dict[tuple[OrgType, str], float]:
    """Concentration index for every (org_type, discipline) with output, from
    the exact shares of org_type_discipline_weights, rounded to float once."""
    w_td, w_d, w_t, total = org_type_discipline_weights(corpus)
    return {
        (org_type, d): float(concentration_index_from_shares(
            w_td.get((org_type, d), Fraction(0)) / w_d[d], w_t[org_type] / total
        ))
        for d in sorted(w_d)
        for org_type in OrgType
        if w_t.get(org_type, Fraction(0)) != 0
    }


# Delimited output: fixed 4-decimal CSV plus a full-precision JSON mirror.

_INDICATOR_COLUMNS = ("weight", "n_excluded", "mean_cx", "top_share_pct", "mean_cjx")


def _indicator_table(rows: Iterable[IndicatorRow], keys: Sequence[str]) -> Table:
    """The table of `rows`; without rows its slice-key columns are `keys`."""
    rows = list(rows)
    slice_keys = tuple(k for k, _ in rows[0].entity) if rows else tuple(keys)
    body = tuple(
        tuple(v for _, v in row.entity) + tuple(getattr(row, c) for c in _INDICATOR_COLUMNS) for row in rows
    )
    return Table(slice_keys + _INDICATOR_COLUMNS, body, dict.fromkeys(_INDICATOR_COLUMNS, 4))


def write_indicator_csv(rows: Iterable[IndicatorRow], destination: str | Path | IO[str], *,
                        keys: Sequence[str] = ()) -> None:
    emit(_indicator_table(rows, keys), "csv", destination)


def write_indicator_json(rows: Iterable[IndicatorRow], destination: str | Path | IO[str], *,
                         keys: Sequence[str] = ()) -> None:
    emit(_indicator_table(rows, keys), "json", destination)
