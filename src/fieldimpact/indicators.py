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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Sequence

from .benchmarks import (
    BenchmarkError,
    BenchmarkTables,
    CitationBenchmarkTable,
    TopJournalSet,
)
from .corpus import Corpus, CorpusError, OrgType, PublicationRecord
from .reporting import Table, emit

SLICE_KEYS = ("nation", "discipline", "field", "org_type", "org", "subunit", "year", "doc_type")
_ORG_KEYS = frozenset({"org_type", "org", "subunit"})


class IndicatorError(CorpusError):
    pass


def standardized_impact(pub: PublicationRecord, xcr_table: CitationBenchmarkTable) -> float:
    """Citations over the mean expected citation rate of the publication's fields."""
    return pub.citations / _mean_expected_rate(pub.year, pub.field_ids, xcr_table)


def _mean_expected_rate(
    year: int, field_ids: Sequence[str], xcr_table: CitationBenchmarkTable
) -> float:
    """Arithmetic mean of the expected rates of `field_ids` in `year`: the
    denominator of every standardized impact.

    Raises BenchmarkError when any of those cells is missing or degenerate.
    """
    rates = [xcr_table.expected(year, f) for f in field_ids]
    return sum(rates) / len(rates)


def journal_standardized_impact(
    pub: PublicationRecord, jxcr_table: CitationBenchmarkTable
) -> float:
    """Citations over the expected citation rate of the publication's journal-year."""
    return pub.citations / jxcr_table.expected(pub.year, pub.journal_id)


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

    def value(self, metric: str) -> float | None:
        if metric in ("weight", "mean_cx", "mean_citations", "top_share_pct", "mean_cjx", "top_decile_mean_cx"):
            return getattr(self, metric)
        raise IndicatorError(f"unknown metric {metric!r}")


def _entity_id(entity: tuple[tuple[str, object], ...]) -> str:
    """Pipe-joined entity values, the stable label used for ranking and sorting."""
    return "|".join("" if v is None else str(v) for _, v in entity)


class _Acc:
    """Running sums of one group; `weight`, `cit`, `top` and `cjx` are numerators over `scale`."""

    __slots__ = (
        "weight",
        "wr_parts",
        "top",
        "cjx",
        "wcjx_parts",
        "cit",
        "n_pubs",
        "n_excluded",
        "scored",
    )

    def __init__(self, keep_scored: bool):
        self.weight = 0
        self.wr_parts: list[float] = []
        self.top = 0
        self.cjx = 0
        self.wcjx_parts: list[float] = []
        self.cit = 0
        self.n_pubs = 0
        self.n_excluded = 0
        self.scored: list[tuple[float, str]] | None = [] if keep_scored else None


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
    """
    keys = _validate_slice(slice_spec)
    org_sliced = any(k in _ORG_KEYS for k in keys)
    by_field = "field" in keys
    by_discipline = "discipline" in keys
    scheme = corpus.field_scheme
    xcr = benchmarks.xcr
    jxcr = benchmarks.jxcr

    scale = 1
    if org_sliced:
        scale = math.lcm(*{a.weight.denominator for rec in corpus.records for a in rec.attributions})
    accs: dict[tuple, _Acc] = {}
    # Denominator per (year, fields) context; None marks an excluded context.
    mean_rates: dict[tuple, float | None] = {}

    for rec in corpus.records:
        if org_sliced and not rec.attributions:
            continue

        # Standardization contexts: the fields whose expected rates are averaged.
        if by_field:
            contexts = [
                ({"field": f, "discipline": scheme.discipline_of(f)}, (f,))
                for f in rec.field_ids
            ]
        elif by_discipline:
            discs = sorted({scheme.discipline_of(f) for f in rec.field_ids})
            contexts = [
                ({"discipline": d}, tuple([f for f in rec.field_ids if scheme.discipline_of(f) == d]))
                for d in discs
            ]
        else:
            contexts = [({}, rec.field_ids)]

        # Shares: (float weight, exact weight over `scale`, entity values).
        if org_sliced:
            shares = [
                (
                    att.weight.numerator / att.weight.denominator,
                    att.weight.numerator * (scale // att.weight.denominator),
                    {
                        "org_type": corpus.organizations[att.org_id].org_type.value,
                        "org": att.org_id,
                        # An org-level share is labelled with its organization;
                        # org and sub-unit ids share one registry.
                        "subunit": att.subunit_id or att.org_id,
                    },
                )
                for att in rec.attributions
            ]
        else:
            shares = [(1.0, 1, {})]

        try:
            cjx = journal_standardized_impact(rec, jxcr)
        except BenchmarkError:
            cjx = None
        is_top = top_set.is_top_for(rec.journal_id, rec.field_ids)

        touched: set[tuple] = set()
        for ctx_vals, field_ids in contexts:
            cell = (rec.year, field_ids)
            if cell not in mean_rates:
                try:
                    mean_rates[cell] = _mean_expected_rate(rec.year, field_ids, xcr)
                except BenchmarkError:
                    mean_rates[cell] = None
            rate = mean_rates[cell]
            ratio = None if rate is None else rec.citations / rate
            for share, w, org_vals in shares:
                key = _group_key(keys, rec, ctx_vals, org_vals)
                acc = accs.get(key)
                if acc is None:
                    acc = accs[key] = _Acc(with_top_decile)
                # The key fixes the context, so a record's touches of one key share one ratio.
                if key not in touched:
                    touched.add(key)
                    if ratio is None:
                        acc.n_excluded += 1
                    else:
                        acc.n_pubs += 1
                        if acc.scored is not None:
                            acc.scored.append((ratio, rec.id))
                if ratio is None:
                    continue
                acc.weight += w
                acc.cit += w * rec.citations
                acc.wr_parts.append(share * ratio)
                if is_top:
                    acc.top += w
                    if cjx is not None:
                        acc.cjx += w
                        acc.wcjx_parts.append(share * cjx)

    rows = []
    for key in sorted(accs, key=_key_sort):
        acc = accs[key]
        if acc.weight == 0:
            continue
        weight_exact = Fraction(acc.weight, scale)
        rows.append(
            IndicatorRow(
                entity=key,
                weight=float(weight_exact),
                weight_exact=weight_exact,
                n_pubs=acc.n_pubs,
                n_excluded=acc.n_excluded,
                mean_cx=math.fsum(acc.wr_parts) / float(weight_exact),
                mean_citations=float(Fraction(acc.cit, acc.weight)),
                top_share_pct=100.0 * float(Fraction(acc.top, acc.weight)),
                mean_cjx=math.fsum(acc.wcjx_parts) / float(Fraction(acc.cjx, scale)) if acc.cjx else None,
                top_decile_mean_cx=top_decile_mean(acc.scored)[1] if acc.scored else None,
            )
        )
    return rows


def _group_key(keys, rec, ctx_vals, org_vals) -> tuple:
    parts = []
    for k in keys:
        if k == "nation":
            parts.append((k, "all"))
        elif k == "year":
            parts.append((k, rec.year))
        elif k == "doc_type":
            parts.append((k, rec.doc_type.value))
        elif k in ("field", "discipline"):
            parts.append((k, ctx_vals[k]))
        else:
            parts.append((k, org_vals[k]))
    return tuple(parts)


def _key_sort(key: tuple) -> tuple:
    return tuple((k, (0, v) if isinstance(v, int) else (1, str(v))) for k, v in key)


def top_decile_mean(scored: Sequence[tuple[float, str]], fraction: float = 0.10) -> tuple[list[tuple[float, str]], float]:
    """Top ceil(fraction*n) of (ratio, id) pairs by ratio, and their mean."""
    if not scored:
        raise IndicatorError("no scored publications")
    if not 0 < fraction <= 1:
        raise IndicatorError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(scored, key=lambda item: (-item[0], item[1]))
    k = math.ceil(fraction * len(ordered))
    subset = ordered[:k]
    return subset, math.fsum(r for r, _ in subset) / k


# Concentration of organization types across disciplines.


@dataclass(frozen=True, slots=True)
class ConcentrationIndex:
    org_type: OrgType
    discipline: str
    value: float


def concentration_index_from_shares(
    group_share_in_discipline: float, group_overall_share: float
) -> float:
    """Ratio of a group's within-discipline share to its overall share."""
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
    count each publication once. Unattributed records are excluded.
    """
    scheme = corpus.field_scheme
    w_td: dict[tuple[OrgType, str], Fraction] = {}
    w_d: dict[str, Fraction] = {}
    w_t: dict[OrgType, Fraction] = {}
    total = Fraction(0)
    for rec in corpus.records:
        if not rec.attributions:
            continue
        discs = sorted({scheme.discipline_of(f) for f in rec.field_ids})
        for att in rec.attributions:
            org_type = corpus.organizations[att.org_id].org_type
            w_t[org_type] = w_t.get(org_type, Fraction(0)) + att.weight
            total += att.weight
            for d in discs:
                w_td[(org_type, d)] = w_td.get((org_type, d), Fraction(0)) + att.weight
                w_d[d] = w_d.get(d, Fraction(0)) + att.weight
    return w_td, w_d, w_t, total


def concentration_index(corpus: Corpus, org_type: OrgType | str, discipline: str) -> float:
    """Within-discipline output share of an org type over its overall share."""
    if isinstance(org_type, str):
        org_type = OrgType(org_type)
    weights = org_type_discipline_weights(corpus)
    _, w_d, w_t, _ = weights
    if w_d.get(discipline, Fraction(0)) == 0:
        raise IndicatorError(f"discipline {discipline!r} has no attributed publications")
    if w_t.get(org_type, Fraction(0)) == 0:
        raise IndicatorError(f"org type {org_type.value} has no attributed publications")
    return _concentration(weights, org_type, discipline)


def concentration_table(corpus: Corpus) -> list[ConcentrationIndex]:
    """Concentration index for every (org_type, discipline) with output."""
    weights = org_type_discipline_weights(corpus)
    _, w_d, w_t, _ = weights
    return [
        ConcentrationIndex(org_type, d, _concentration(weights, org_type, d))
        for d in sorted(w_d)
        for org_type in OrgType
        if w_t.get(org_type, Fraction(0)) != 0
    ]


def _concentration(weights, org_type: OrgType, discipline: str) -> float:
    """Exact within-discipline share over overall share, from the weights of
    org_type_discipline_weights; the discipline and org-type totals must be nonzero."""
    w_td, w_d, w_t, total = weights
    share_in_discipline = w_td.get((org_type, discipline), Fraction(0)) / w_d[discipline]
    return float(share_in_discipline / (w_t[org_type] / total))


# Delimited output: fixed 4-decimal CSV plus a full-precision JSON mirror.

_INDICATOR_COLUMNS = ("weight", "n_excluded", "mean_cx", "top_share_pct", "mean_cjx")


def _indicator_table(rows: Iterable[IndicatorRow]) -> Table:
    rows = list(rows)
    slice_keys = tuple(k for k, _ in rows[0].entity) if rows else ()
    body = tuple(
        tuple(v for _, v in row.entity) + tuple(getattr(row, c) for c in _INDICATOR_COLUMNS) for row in rows
    )
    return Table(slice_keys + _INDICATOR_COLUMNS, body, dict.fromkeys(_INDICATOR_COLUMNS, 4))


def write_indicator_csv(rows: Iterable[IndicatorRow], destination: str | Path | IO[str]) -> None:
    emit(_indicator_table(rows), "csv", destination)


def write_indicator_json(rows: Iterable[IndicatorRow], destination: str | Path | IO[str]) -> None:
    emit(_indicator_table(rows), "json", destination)
