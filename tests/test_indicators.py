import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fieldimpact.benchmarks import (
    BenchmarkCell,
    BenchmarkTables,
    BenchmarkError,
    CitationBenchmarkTable,
    TopJournalSet,
    classify_top_journals,
    compute_benchmarks,
)
from fieldimpact.corpus import DocType, OrgType, PublicationRecord
from fieldimpact.indicators import (
    IndicatorError,
    _combine,
    _mean_expected_rates,
    aggregate,
    concentration_index_from_shares,
    concentration_table,
    org_type_discipline_weights,
    write_indicator_csv,
    write_indicator_json,
)

from conftest import _mean_expected_rate, att, journal_standardized_impact, mk_corpus, pub, standardized_impact


def record(id="p1", year=2003, journal="J1", fields=("F1",), citations=0):
    return PublicationRecord(
        id=id,
        year=year,
        doc_type=DocType.ARTICLE,
        journal_id=journal,
        field_ids=tuple(fields),
        citations=citations,
    )


def xcr_table(cells: dict) -> CitationBenchmarkTable:
    return CitationBenchmarkTable("field", {k: BenchmarkCell(1, v) for k, v in cells.items()})


def jxcr_table(cells: dict) -> CitationBenchmarkTable:
    return CitationBenchmarkTable("journal", {k: BenchmarkCell(1, v) for k, v in cells.items()})


def tables(xcr_cells, jxcr_cells=None) -> BenchmarkTables:
    return BenchmarkTables(xcr_table(xcr_cells), jxcr_table(jxcr_cells or {}))


NO_TOP = TopJournalSet({})


class TestStandardizedImpact:
    def test_identity(self):
        assert standardized_impact(record(citations=5), xcr_table({(2003, "F1"): 5.0})) == 1.0

    def test_multi_field_uses_mean_of_rates(self):
        table = xcr_table({(2003, "F1"): 4.0, (2003, "F2"): 6.0})
        assert standardized_impact(record(fields=("F1", "F2"), citations=10), table) == 2.0

    def test_zero_citations(self):
        assert standardized_impact(record(citations=0), xcr_table({(2003, "F1"): 3.0})) == 0.0

    def test_missing_cell_names_year_and_field(self):
        with pytest.raises(BenchmarkError, match=r"^missing benchmark for \(2003, F1\) \[field\]$"):
            standardized_impact(record(citations=1), xcr_table({}))

    def test_degenerate_cell(self):
        with pytest.raises(BenchmarkError, match=r"^degenerate benchmark \(mean 0\) for \(2003, F1\) \[field\]$"):
            standardized_impact(record(citations=1), xcr_table({(2003, "F1"): 0.0}))


class TestJournalStandardizedImpact:
    def test_identity(self):
        assert journal_standardized_impact(record(citations=6), jxcr_table({(2003, "J1"): 6.0})) == 1.0

    def test_sole_publication_is_one(self):
        corpus = mk_corpus([pub("p1", citations=13)])
        benchmarks = compute_benchmarks(corpus)
        assert journal_standardized_impact(corpus.records[0], benchmarks.jxcr) == 1.0

    def test_direct_division(self):
        assert journal_standardized_impact(record(citations=3), jxcr_table({(2003, "J1"): 2.0})) == 1.5


class TestMeanExpectedRates:
    """The rate table's fixed rows: each reordered or pairwise sum gives other bits."""

    def rates(self, field_rates):
        fields = tuple(f"F{i}" for i in range(len(field_rates)))
        table = xcr_table({(2003, f): r for f, r in zip(fields, field_rates)})
        value = _mean_expected_rates([2003], [fields], table)[0, 0]
        assert value == _mean_expected_rate(2003, fields, table)
        return value

    def test_left_to_right_sum(self):
        # 1e16 + 1.0 rounds back to 1e16; adding the ones first gives 1e16 + 2.
        assert (1e16 + 2) / 3 != 1e16 / 3
        assert self.rates([1e16, 1.0, 1.0]) == 1e16 / 3

    def test_nine_fields_are_not_summed_pairwise(self):
        field_rates = [1e16] + [1.0] * 8
        assert np.sum(field_rates) / 9 != 1e16 / 9
        assert self.rates(field_rates) == 1e16 / 9

    def test_unusable_cell_reads_nan(self):
        table = xcr_table({(2003, "F1"): 2.0, (2003, "F2"): 0.0})
        rates = _mean_expected_rates([2003, 2004], [("F1",), ("F1", "F2"), ("F2",), ("F3", "F1")], table)
        assert rates[0, 0] == 2.0
        assert np.isnan(rates[0, 1:]).all() and np.isnan(rates[1]).all()


class TestAggregate:
    def test_symmetric_ratios_mean_one(self):
        corpus = mk_corpus([pub("p1", citations=8), pub("p2", citations=12)])
        bm = tables({(2003, "F1"): 10.0}, {(2003, "J1"): 10.0})
        rows = aggregate(corpus, ("nation",), bm, NO_TOP)
        assert len(rows) == 1
        assert rows[0].mean_cx == pytest.approx(1.0)
        assert rows[0].weight == 2.0

    def test_benchmark_corpus_self_normalizes_per_field_year(self):
        pubs = [
            pub(f"p{i:02d}", year=2001 + i % 2, fields=[f"F{i % 3}"], citations=(i * 7) % 11)
            for i in range(40)
        ]
        corpus = mk_corpus(pubs)
        bm = compute_benchmarks(corpus)
        top = classify_top_journals(corpus.journals, corpus.field_scheme)
        for row in aggregate(corpus, ("field", "year"), bm, top):
            assert row.mean_cx == pytest.approx(1.0, rel=1e-9)

    def test_top_share_ten_percent(self):
        pubs = [pub(f"p{i}", journal="JTOP" if i == 0 else "JPLAIN") for i in range(10)]
        corpus = mk_corpus(pubs)
        bm = tables({(2003, "F1"): 1.0})
        top = TopJournalSet({"F1": frozenset({"JTOP"})})
        rows = aggregate(corpus, ("nation",), bm, top)
        assert rows[0].top_share_pct == pytest.approx(10.0)

    def test_multi_field_pub_belongs_to_every_discipline(self):
        corpus = mk_corpus(
            [pub("p1", fields=["F1", "F2"], citations=6), pub("p2", fields=["F1"], citations=2)],
            scheme={"F1": "Physics", "F2": "Biology"},
        )
        bm = tables({(2003, "F1"): 4.0, (2003, "F2"): 2.0})
        rows = aggregate(corpus, ("discipline",), bm, NO_TOP)
        by_disc = {dict(r.entity)["discipline"]: r for r in rows}
        # Discipline weights double count the multi-field publication.
        assert by_disc["Physics"].weight == 2.0
        assert by_disc["Biology"].weight == 1.0
        assert sum(r.weight for r in rows) == 3.0 > corpus.summary().n_records
        # Within a discipline, standardization uses that discipline's fields only.
        assert by_disc["Biology"].mean_cx == pytest.approx(6 / 2.0)
        assert by_disc["Physics"].mean_cx == pytest.approx((6 / 4.0 + 2 / 4.0) / 2)

    def test_single_field_slice_vs_cross_field_average(self):
        corpus = mk_corpus([pub("p1", fields=["F1", "F2"], citations=10)])
        bm = tables({(2003, "F1"): 4.0, (2003, "F2"): 6.0})
        nation = aggregate(corpus, ("nation",), bm, NO_TOP)[0]
        per_field = {dict(r.entity)["field"]: r for r in aggregate(corpus, ("field",), bm, NO_TOP)}
        assert nation.mean_cx == pytest.approx(10 / 5.0)
        assert per_field["F1"].mean_cx == pytest.approx(10 / 4.0)
        assert per_field["F2"].mean_cx == pytest.approx(10 / 6.0)

    def test_weighted_mean_consistency_not_mean_of_discipline_means(self):
        corpus = mk_corpus(
            [
                pub("p1", fields=["F1"], citations=4),
                pub("p2", fields=["F2"], citations=2),
                pub("p3", fields=["F2"], citations=2),
                pub("p4", fields=["F2"], citations=2),
            ],
            scheme={"F1": "Physics", "F2": "Biology"},
        )
        bm = tables({(2003, "F1"): 2.0, (2003, "F2"): 2.0})
        nation = aggregate(corpus, ("nation",), bm, NO_TOP)[0]
        per_pub = [4 / 2.0, 2 / 2.0, 2 / 2.0, 2 / 2.0]
        assert nation.mean_cx == pytest.approx(sum(per_pub) / 4)  # 1.25
        disc_means = [r.mean_cx for r in aggregate(corpus, ("discipline",), bm, NO_TOP)]
        assert nation.mean_cx != pytest.approx(sum(disc_means) / len(disc_means))  # 1.5

    def test_org_slice_uses_fractional_weights(self):
        corpus = mk_corpus(
            [
                pub("p1", citations=4, attributions=[att("A", "1/2"), att("B", "1/2")]),
                pub("p2", citations=8, attributions=[att("A")]),
            ],
            orgs=[("A", "Alpha", "U", None), ("B", "Beta", "RI", None)],
        )
        bm = tables({(2003, "F1"): 4.0})
        rows = aggregate(corpus, ("org",), bm, NO_TOP)
        by_org = {dict(r.entity)["org"]: r for r in rows}
        assert by_org["A"].weight_exact == Fraction(3, 2)
        assert by_org["A"].mean_cx == pytest.approx((0.5 * 1.0 + 1.0 * 2.0) / 1.5)
        assert by_org["B"].weight_exact == Fraction(1, 2)

    def test_unattributed_records_kept_in_national_dropped_from_org(self):
        corpus = mk_corpus(
            [pub("p1", citations=2, attributions=[att("ORG_A")]), pub("p2", citations=2)]
        )
        bm = tables({(2003, "F1"): 2.0})
        assert aggregate(corpus, ("nation",), bm, NO_TOP)[0].weight == 2.0
        org_rows = aggregate(corpus, ("org",), bm, NO_TOP)
        assert len(org_rows) == 1
        assert org_rows[0].weight == 1.0

    def test_exclusions_counted_per_slice(self):
        corpus = mk_corpus(
            [pub("p1", citations=1), pub("p2", citations=1), pub("p3", year=2005, citations=1)]
        )
        bm = tables({(2003, "F1"): 1.0})  # no 2005 cell
        row = aggregate(corpus, ("nation",), bm, NO_TOP)[0]
        assert row.weight == 2.0
        assert row.n_excluded == 1
        assert row.n_pubs == 2

    def test_degenerate_cell_excludes_too(self):
        corpus = mk_corpus([pub("p1", citations=1), pub("p2", year=2004, citations=1)])
        bm = tables({(2003, "F1"): 1.0, (2004, "F1"): 0.0})
        row = aggregate(corpus, ("nation",), bm, NO_TOP)[0]
        assert row.n_excluded == 1

    def test_empty_groups_omitted(self):
        corpus = mk_corpus([pub("p1", year=2005, citations=1)])
        bm = tables({(2003, "F1"): 1.0})
        assert aggregate(corpus, ("nation",), bm, NO_TOP) == []

    @pytest.mark.parametrize("keys", [("nation",), ("org",), ("field", "year"), ("discipline", "doc_type")])
    def test_empty_corpus_gives_no_rows(self, keys):
        corpus = mk_corpus([], journals=[("J1", "Journal One", 1.0, ["F1"])], scheme={"F1": "Physics"})
        assert aggregate(corpus, keys, tables({(2003, "F1"): 1.0}), NO_TOP, with_top_decile=True) == []

    def test_mean_cjx_only_over_top_journal_members(self):
        pubs = [
            pub("p1", journal="JTOP", citations=4),
            pub("p2", journal="JPLAIN", citations=8),
        ]
        corpus = mk_corpus(pubs)
        bm = tables({(2003, "F1"): 4.0}, {(2003, "JTOP"): 2.0, (2003, "JPLAIN"): 8.0})
        top = TopJournalSet({"F1": frozenset({"JTOP"})})
        row = aggregate(corpus, ("nation",), bm, top)[0]
        assert row.mean_cjx == pytest.approx(4 / 2.0)
        no_top_row = aggregate(corpus, ("nation",), bm, NO_TOP)[0]
        assert no_top_row.mean_cjx is None

    def test_rank_invariance_under_field_year_scaling(self):
        def build(k: int):
            corpus = mk_corpus(
                [
                    pub("p1", citations=9 * k, attributions=[att("A")]),
                    pub("p2", citations=5 * k, attributions=[att("B")]),
                    pub("p3", citations=2 * k, attributions=[att("C")]),
                    pub("p4", year=2004, citations=7, attributions=[att("A")]),
                ],
                orgs=[("A", "a", "U", None), ("B", "b", "RI", None), ("C", "c", "H", None)],
            )
            bm = compute_benchmarks(corpus)
            return aggregate(corpus, ("org",), bm, NO_TOP)

        base, scaled = build(1), build(3)
        order = lambda rows: [r.entity_id() for r in sorted(rows, key=lambda r: -r.mean_cx)]
        assert order(base) == order(scaled)
        for r1, r2 in zip(base, scaled):
            assert r1.mean_cx == pytest.approx(r2.mean_cx, rel=1e-12)

    def test_top_decile_column_when_requested(self):
        pubs = [pub(f"p{i}", citations=i + 1) for i in range(10)]
        corpus = mk_corpus(pubs)
        bm = tables({(2003, "F1"): 1.0})
        row = aggregate(corpus, ("nation",), bm, NO_TOP, with_top_decile=True)[0]
        assert row.top_decile_mean_cx == pytest.approx(10.0)
        plain = aggregate(corpus, ("nation",), bm, NO_TOP)[0]
        assert plain.top_decile_mean_cx is None

    def test_fields_within_discipline_slice(self):
        corpus = mk_corpus(
            [
                pub("p1", fields=["F1"], citations=4),
                pub("p2", fields=["F2"], citations=3),
                pub("p3", fields=["F3"], citations=2),
            ],
            scheme={"F1": "Biomedical research", "F2": "Biomedical research", "F3": "Physics"},
        )
        bm = tables({(2003, "F1"): 2.0, (2003, "F2"): 3.0, (2003, "F3"): 2.0})
        rows = aggregate(corpus, ("discipline", "field"), bm, NO_TOP)
        cells = {(dict(r.entity)["discipline"], dict(r.entity)["field"]): r for r in rows}
        assert set(cells) == {
            ("Biomedical research", "F1"),
            ("Biomedical research", "F2"),
            ("Physics", "F3"),
        }
        assert cells[("Biomedical research", "F1")].mean_cx == pytest.approx(2.0)
        assert cells[("Biomedical research", "F2")].mean_cx == pytest.approx(1.0)

    def test_doc_type_year_slice(self):
        pubs = [
            pub("p1", doc_type="article", citations=2),
            pub("p2", doc_type="article", citations=4),
            pub("p3", doc_type="review", citations=6),
            pub("p4", year=2004, doc_type="proceedings", citations=1),
        ]
        corpus = mk_corpus(pubs)
        bm = tables({(2003, "F1"): 2.0, (2004, "F1"): 1.0})
        rows = aggregate(corpus, ("doc_type", "year"), bm, NO_TOP)
        cells = {(dict(r.entity)["doc_type"], dict(r.entity)["year"]): r for r in rows}
        assert cells[("article", 2003)].weight == 2.0
        assert cells[("article", 2003)].mean_cx == pytest.approx(1.5)
        assert cells[("review", 2003)].weight == 1.0
        assert cells[("proceedings", 2004)].mean_cx == pytest.approx(1.0)

    def test_org_type_slice_groups_across_orgs(self):
        corpus = mk_corpus(
            [
                pub("p1", citations=2, attributions=[att("U1", "1/2"), att("H1", "1/2")]),
                pub("p2", citations=4, attributions=[att("U2")]),
            ],
            orgs=[("U1", "u1", "U", None), ("U2", "u2", "U", None), ("H1", "h1", "H", None)],
        )
        bm = tables({(2003, "F1"): 2.0})
        rows = aggregate(corpus, ("org_type",), bm, NO_TOP)
        by_type = {dict(r.entity)["org_type"]: r for r in rows}
        assert by_type["U"].weight_exact == Fraction(3, 2)
        assert by_type["H"].weight_exact == Fraction(1, 2)
        assert by_type["U"].mean_cx == pytest.approx((0.5 * 1.0 + 1.0 * 2.0) / 1.5)

    def test_unknown_slice_key_rejected(self):
        corpus = mk_corpus([pub("p1")])
        with pytest.raises(IndicatorError, match="unknown slice key"):
            aggregate(corpus, ("journal",), tables({(2003, "F1"): 1.0}), NO_TOP)


class TestConcentration:
    def test_published_share_pairs(self):
        # Universities in biology vs overall: 70.0 and 67.9 -> 1.03.
        assert concentration_index_from_shares(70.0, 67.9) == pytest.approx(1.03, abs=0.01)

    def test_equal_shares_neutral(self):
        assert concentration_index_from_shares(21.2, 21.2) == 1.0

    def test_zero_discipline_share(self):
        assert concentration_index_from_shares(0.0, 11.1) == 0.0

    def test_zero_overall_share_rejected(self):
        with pytest.raises(IndicatorError):
            concentration_index_from_shares(10.0, 0.0)

    def corpus_three_types(self):
        return mk_corpus(
            [
                pub("p1", fields=["F1"], citations=1, attributions=[att("U1")]),
                pub("p2", fields=["F1", "F2"], citations=1,
                    attributions=[att("U1", "1/2"), att("R1", "1/2")]),
                pub("p3", fields=["F2"], citations=1, attributions=[att("H1")]),
                pub("p4", fields=["F2"], citations=1, attributions=[att("R1")]),
                # p5 unattributed: excluded from both populations
                pub("p5", fields=["F1"], citations=1),
            ],
            orgs=[("U1", "u", "U", None), ("R1", "r", "RI", None), ("H1", "h", "H", None)],
            scheme={"F1": "Physics", "F2": "Biology"},
        )

    def test_concentration_from_corpus(self):
        corpus = self.corpus_three_types()
        # Physics weights: U1 = 1 + 1/2, R1 = 1/2; discipline total 2.
        # Overall: U = 3/2, RI = 3/2, H = 1; total 4.
        expected = (Fraction(3, 2) / 2) / (Fraction(3, 2) / 4)
        assert concentration_table(corpus)[(OrgType.UNIVERSITY, "Physics")] == pytest.approx(float(expected))

    def test_zero_share_in_discipline_is_zero(self):
        corpus = self.corpus_three_types()
        assert concentration_table(corpus)[(OrgType.HOSPITAL_HCRO, "Physics")] == 0.0

    def test_unknown_discipline_rejected(self):
        # A discipline without attributed publications has no row for any type.
        with pytest.raises(KeyError):
            concentration_table(self.corpus_three_types())[(OrgType.UNIVERSITY, "Chemistry")]

    def test_closure_sums_to_one_exactly(self):
        corpus = self.corpus_three_types()
        w_td, w_d, w_t, total = org_type_discipline_weights(corpus)
        for d, disc_total in w_d.items():
            acc = Fraction(0)
            for org_type, overall in w_t.items():
                share = w_td.get((org_type, d), Fraction(0)) / disc_total
                ci = share / (overall / total)
                acc += (overall / total) * ci
            assert acc == 1

    def test_concentration_table_covers_active_pairs(self):
        table = concentration_table(self.corpus_three_types())
        assert {(t.value, d) for t, d in table} == {
            (t, d) for t in ("U", "RI", "H") for d in ("Physics", "Biology")
        }

    def test_concentration_table_rounds_exact_shares_once(self):
        corpus = self.corpus_three_types()
        w_td, w_d, w_t, total = org_type_discipline_weights(corpus)
        for (org_type, d), value in concentration_table(corpus).items():
            share = w_td.get((org_type, d), Fraction(0)) / w_d[d]
            exact = concentration_index_from_shares(share, w_t[org_type] / total)
            assert isinstance(exact, Fraction)
            assert value == float(exact)

    def test_org_type_without_output_rejected(self):
        # An org type without attributed publications has no row in any discipline.
        corpus = mk_corpus(
            [pub("p1", attributions=[att("U1")])],
            orgs=[("U1", "u", "U", None), ("H1", "h", "H", None)],
        )
        assert concentration_table(corpus) == {(OrgType.UNIVERSITY, "Physics"): 1.0}


class TestTopDecile:
    """The one top-decile definition: `aggregate(..., with_top_decile=True)`."""

    def nation_row(self, citations, rate):
        corpus = mk_corpus([pub(f"p{i:02d}", citations=c) for i, c in enumerate(citations)])
        [row] = aggregate(corpus, ("nation",), tables({(2003, "F1"): rate}), NO_TOP, with_top_decile=True)
        return row

    def test_ceil_oracle_over_sizes(self):
        # Enumeration oracle: mean of the k=ceil(0.1*n) largest ratios.
        for n in (1, 2, 9, 10, 11, 25):
            citations = [(i * 13) % n for i in range(n)]
            rate = float(max(n - 1, 1))
            ratios = [c / rate for c in citations]
            k = math.ceil(0.1 * n)
            expected = math.fsum(sorted(ratios, reverse=True)[:k]) / k
            assert self.nation_row(citations, rate).top_decile_mean_cx == expected, n

    def test_ten_ratios_takes_best_one(self):
        assert self.nation_row(list(range(1, 11)), 10.0).top_decile_mean_cx == 1.0

    def test_single_publication(self):
        assert self.nation_row([7], 10.0).top_decile_mean_cx == 0.7

    def test_constant_ratios(self):
        for n in (7, 25):
            assert self.nation_row([4] * n, 10.0).top_decile_mean_cx == pytest.approx(0.4)


class TestCombine:
    def test_dense_branch_keeps_distinct_pairs(self):
        # span * radix >= 2**63 makes the incoming code dense before it is combined.
        code = np.array([2**40, 7, 2**40, 2**50, 7, 2**50], np.int64)
        label = np.array([0, 1, 0, 0, 1, 1], np.int64)
        radix = 3
        out, span = _combine(code.copy(), 2**62, label, radix)
        assert span == len(set(code.tolist())) * radix
        pairs = list(zip(code.tolist(), label.tolist()))
        for i in range(len(code)):
            for j in range(len(code)):
                assert (out[i] == out[j]) == (pairs[i] == pairs[j])


class TestScoreAndEmit:
    def test_missing_cell_excluded_and_counted(self):
        # p2's (2007, F1) cell is missing: excluded and counted, never scored.
        corpus = mk_corpus([pub("p1", citations=4), pub("p2", year=2007, citations=1)])
        bm = tables({(2003, "F1"): 4.0}, {(2003, "J1"): 2.0})
        top = TopJournalSet({"F1": frozenset({"J1"})})
        [row] = aggregate(corpus, ("nation",), bm, top)
        assert row.n_pubs == 1 and row.n_excluded == 1
        assert row.mean_cx == 1.0
        assert row.mean_cjx == 2.0
        assert row.top_share_pct == 100.0

    def test_csv_four_decimals_and_json_full_precision(self, tmp_path):
        corpus = mk_corpus([pub("p1", citations=1), pub("p2", citations=2)])
        bm = tables({(2003, "F1"): 3.0}, {(2003, "J1"): 1.5})
        top = TopJournalSet({"F1": frozenset({"J1"})})
        rows = aggregate(corpus, ("nation",), bm, top)
        buf = io.StringIO()
        write_indicator_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "nation,weight,n_excluded,mean_cx,top_share_pct,mean_cjx"
        assert lines[1] == "all,2.0000,0,0.5000,100.0000,1.0000"
        json_path = tmp_path / "rows.json"
        write_indicator_json(rows, json_path)
        payload = json.loads(json_path.read_text())
        assert payload[0]["mean_cx"] == rows[0].mean_cx
