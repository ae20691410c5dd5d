import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldimpact.benchmarks import compute_benchmarks, classify_top_journals
from fieldimpact.trends import (
    GrowthError,
    annual_series,
    avg_annual_increase,
    series_growth,
    write_trend_csv,
)

from conftest import mk_corpus, pub

positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestAvgAnnualIncrease:
    def test_two_point_case(self):
        assert avg_annual_increase([1.00, 1.30]) == pytest.approx(30.0)

    def test_constant_series(self):
        assert avg_annual_increase([2.5, 2.5, 2.5]) == pytest.approx(0.0)

    def test_publication_count_growth(self):
        # Totals 37,353 -> 47,164 across six annual points.
        series = [37353, 38282, 41869, 43669, 45507, 47164]
        total_growth = 100 * (series[-1] / series[0] - 1)
        assert total_growth == pytest.approx(26.3, abs=0.1)
        # Independent oracle for the compound rate.
        oracle = ((47164 / 37353) ** (1 / 5) - 1) * 100
        assert avg_annual_increase(series) == pytest.approx(oracle)
        assert avg_annual_increase(series) == pytest.approx(4.78, abs=0.1)

    def test_single_point_rejected(self):
        with pytest.raises(GrowthError):
            avg_annual_increase([1.0])

    def test_non_positive_rejected(self):
        with pytest.raises(GrowthError, match="undefined growth"):
            avg_annual_increase([1.0, 0.0, 2.0])
        with pytest.raises(GrowthError, match="undefined growth"):
            avg_annual_increase([-1.0, 2.0])

    @given(st.lists(positive, min_size=2, max_size=8), st.floats(min_value=0.01, max_value=100))
    def test_scale_invariance(self, values, k):
        scaled = [v * k for v in values]
        assert avg_annual_increase(scaled) == pytest.approx(
            avg_annual_increase(values), rel=1e-9, abs=1e-9
        )

    @given(st.lists(positive, min_size=3, max_size=9))
    @settings(max_examples=60)
    def test_segment_composition_in_log_space(self, values):
        t = len(values)
        cut = t // 2
        whole = avg_annual_increase(values) / 100 + 1
        left = avg_annual_increase(values[: cut + 1]) / 100 + 1
        right = avg_annual_increase(values[cut:]) / 100 + 1
        # Length-weighted geometric compounding of the segments. Converting
        # percent rates back to ratios cancels badly near -100%, so the
        # comparison tolerance is looser than the engine's own arithmetic.
        recombined = math.exp((cut * math.log(left) + (t - 1 - cut) * math.log(right)) / (t - 1))
        assert recombined == pytest.approx(whole, rel=1e-6)

    def test_sign_kept_when_the_root_rounds_to_one(self):
        # The endpoint ratio is 1 - 2**-52, whose fifth root rounds to 1.0.
        assert avg_annual_increase([0.0010000000000000002, 1.0, 1.0, 1.0, 1.0, 0.001]) < 0
        assert avg_annual_increase([0.001, 1.0, 1.0, 1.0, 1.0, 0.0010000000000000002]) > 0

    @given(st.lists(positive, min_size=2, max_size=8))
    def test_sign_matches_endpoints(self, values):
        rate = avg_annual_increase(values)
        if values[-1] > values[0]:
            assert rate > 0
        elif values[-1] < values[0]:
            assert rate < 0
        else:
            assert rate == pytest.approx(0.0)


def corpus_years(year_fields: dict[int, list[tuple[str, int]]], scheme=None):
    pubs = []
    for year, items in year_fields.items():
        for i, (field, citations) in enumerate(items):
            pubs.append(pub(f"p{year}{i:03d}", year=year, fields=[field], citations=citations))
    return mk_corpus(pubs, scheme=scheme)


class TestAnnualSeries:
    def test_nation_series_spans_years(self):
        corpus = corpus_years({y: [("F1", y % 5 + 1)] for y in range(2001, 2007)})
        bm = compute_benchmarks(corpus)
        top = classify_top_journals(corpus.journals, corpus.field_scheme)
        series = annual_series(corpus, ("nation",), bm, top)
        assert len(series) == 1
        assert [year for year, _ in series[0].points] == list(range(2001, 2007))

    def test_single_year_entity_flagged(self):
        corpus = corpus_years({2003: [("F1", 2)]})
        bm = compute_benchmarks(corpus)
        top = classify_top_journals(corpus.journals, corpus.field_scheme)
        series = annual_series(corpus, ("nation",), bm, top)
        assert len(series[0].points) == 1
        with pytest.raises(GrowthError, match="single-point"):
            series_growth(series[0], "mean_cx")

    def test_growth_compounds_over_gap_years(self):
        # Weight 1 in 2001 and 4 in 2004: three years of growth, not one step.
        corpus = corpus_years({2001: [("F1", 1)], 2004: [("F1", 1)] * 4})
        bm = compute_benchmarks(corpus)
        top = classify_top_journals(corpus.journals, corpus.field_scheme)
        (series,) = annual_series(corpus, ("nation",), bm, top)
        assert [year for year, _ in series.points] == [2001, 2004]
        stat = series_growth(series, "weight")
        assert (stat.first_year, stat.last_year) == (2001, 2004)
        assert stat.avg_annual_increase_pct == (4.0 ** (1.0 / 3) - 1.0) * 100.0
        assert round(stat.avg_annual_increase_pct, 2) == 58.74
        assert avg_annual_increase([row.weight for _, row in series.points]) == 300.0  # the per-point rate is unchanged

    def test_span_past_the_float_range_is_undefined(self):
        corpus = corpus_years({2001: [("F1", 1)], 10**400: [("F1", 1)] * 2})
        bm = compute_benchmarks(corpus)
        top = classify_top_journals(corpus.journals, corpus.field_scheme)
        (series,) = annual_series(corpus, ("nation",), bm, top)
        with pytest.raises(GrowthError, match="^undefined growth: the series spans more years than a float holds$"):
            series_growth(series, "weight")

    def test_gap_free_growth_equals_the_per_point_rate(self):
        corpus = corpus_years({y: [("F1", 1)] * (y - 1999) for y in range(2001, 2006)})
        bm = compute_benchmarks(corpus)
        top = classify_top_journals(corpus.journals, corpus.field_scheme)
        (series,) = annual_series(corpus, ("nation",), bm, top)
        values = [row.weight for _, row in series.points]
        assert series_growth(series, "weight").avg_annual_increase_pct == avg_annual_increase(values)

    def test_discipline_layout_eight_by_six(self):
        fields = {f"F{i}": d for i, d in enumerate(
            ["Mathematics", "Physics", "Chemistry", "Earth and space sciences",
             "Biology", "Biomedical research", "Clinical medicine", "Engineering"])}
        year_fields = {
            y: [(f, (y + i) % 4 + 1) for i, f in enumerate(fields)] for y in range(2001, 2007)
        }
        corpus = corpus_years(year_fields, scheme=fields)
        bm = compute_benchmarks(corpus)
        top = classify_top_journals(corpus.journals, corpus.field_scheme)
        series = annual_series(corpus, ("discipline",), bm, top)
        assert len(series) == 8
        assert all(len(s.points) == 6 for s in series)

    def test_entities_in_order_and_years_ascending(self):
        # Records arrive newest first and fields in reverse: series still come
        # out by discipline name, each with its years ascending.
        scheme = {"F1": "Physics", "F2": "Biology", "F3": "Chemistry"}
        corpus = corpus_years(
            {y: [("F3", 2), ("F2", 1), ("F1", y % 3 + 1)] for y in range(2006, 2000, -1)}, scheme=scheme
        )
        bm = compute_benchmarks(corpus)
        top = classify_top_journals(corpus.journals, corpus.field_scheme)
        series = annual_series(corpus, ("discipline",), bm, top)
        assert [s.entity_id() for s in series] == ["Biology", "Chemistry", "Physics"]
        assert all([year for year, _ in s.points] == list(range(2001, 2007)) for s in series)

    def test_year_key_rejected(self):
        corpus = corpus_years({2003: [("F1", 1)]})
        bm = compute_benchmarks(corpus)
        top = classify_top_journals(corpus.journals, corpus.field_scheme)
        with pytest.raises(GrowthError):
            annual_series(corpus, ("year",), bm, top)


class TestSeriesGrowth:
    def series(self, weights_by_year):
        corpus = corpus_years({y: [("F1", 3)] * n for y, n in weights_by_year.items()})
        bm = compute_benchmarks(corpus)
        top = classify_top_journals(corpus.journals, corpus.field_scheme)
        return annual_series(corpus, ("nation",), bm, top)[0]

    def test_weight_growth(self):
        stat = series_growth(self.series({2001: 4, 2002: 5, 2003: 6}), "weight")
        assert stat.avg_annual_increase_pct == pytest.approx(((6 / 4) ** 0.5 - 1) * 100)
        assert stat.first_year == 2001 and stat.last_year == 2003
        assert not stat.unstable_base

    def test_unstable_base_flag_for_small_percent_base(self):
        corpus = corpus_years({2001: [("F1", 1)] * 3, 2002: [("F1", 2)] * 3})
        bm = compute_benchmarks(corpus)
        # One top journal but hardly any publications in it.
        from fieldimpact.benchmarks import TopJournalSet

        top = TopJournalSet({"F1": frozenset()})
        series = annual_series(corpus, ("nation",), bm, top)[0]
        with pytest.raises(GrowthError):
            series_growth(series, "top_share_pct")  # zero share -> undefined

    def test_unknown_metric_rejected(self):
        with pytest.raises(GrowthError, match="unknown growth metric"):
            series_growth(self.series({2001: 1, 2002: 1}), "h_index")

    def test_trend_csv_shape(self):
        stat = series_growth(self.series({2001: 4, 2002: 6}), "weight")
        buf = io.StringIO()
        write_trend_csv([stat], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "nation,metric,first_year,last_year,avg_annual_increase_pct,unstable_base_flag"
        assert lines[1] == "all,weight,2001,2002,50.0000,false"
