import json
from datetime import date
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fieldimpact.indicators import IndicatorRow
from fieldimpact.reporting import (
    RankingSpec,
    ReportError,
    Table,
    default_filename,
    emit,
    rank,
    render,
)


def row(entity_id, weight, mean_cx, top_share=10.0, mean_cjx=1.0, top_decile=None):
    return IndicatorRow(
        entity=(("org", entity_id),),
        weight=float(weight),
        weight_exact=Fraction(weight).limit_denominator(10**6),
        n_pubs=int(weight),
        n_excluded=0,
        mean_cx=mean_cx,
        mean_citations=mean_cx * 5,
        top_share_pct=top_share,
        mean_cjx=mean_cjx,
        top_decile_mean_cx=top_decile,
    )


class TestRank:
    def test_tie_breaks_by_weight_then_entity(self):
        rows = [row("C", 10, 1.5), row("A", 10, 2.0), row("B", 20, 1.5)]
        table = rank(rows, RankingSpec("org", "mean_cx", min_weight=0, limit=10))
        assert [r[0] for r in table.rows] == ["A", "B", "C"]

    def test_min_weight_excludes_strictly_below(self):
        rows = [row("A", 49.5, 3.0), row("B", 50.0, 1.0)]
        table = rank(rows, RankingSpec("org", "mean_cx", min_weight=50, limit=10))
        assert [r[0] for r in table.rows] == ["B"]

    def test_raising_threshold_yields_subset(self):
        rows = [row(f"E{i}", 10 * i, 1.0 + i / 10) for i in range(1, 12)]
        at50 = {r[0] for r in rank(rows, RankingSpec("org", "mean_cx", 50, 20)).rows}
        at100 = {r[0] for r in rank(rows, RankingSpec("org", "mean_cx", 100, 20)).rows}
        assert at100 <= at50

    @given(st.lists(st.tuples(st.floats(0, 500), st.floats(0, 5)), min_size=0, max_size=30),
           st.floats(0, 250), st.floats(0, 250))
    def test_threshold_monotonicity_quantified(self, pairs, t1, t2):
        t1, t2 = min(t1, t2), max(t1, t2)
        rows = [row(f"E{i:02d}", w, m) for i, (w, m) in enumerate(pairs)]
        low = {r[0] for r in rank(rows, RankingSpec("org", "mean_cx", t1, 100)).rows}
        high = {r[0] for r in rank(rows, RankingSpec("org", "mean_cx", t2, 100)).rows}
        assert high <= low

    def test_limit_truncates(self):
        rows = [row(f"E{i}", 100, float(i)) for i in range(15)]
        table = rank(rows, RankingSpec("org", "mean_cx", 0, 10))
        assert len(table.rows) == 10

    def test_unknown_metric_rejected(self):
        with pytest.raises(ReportError, match="unknown metric"):
            RankingSpec("org", "citations_per_euro")

    def test_rows_without_the_metric_are_dropped(self):
        rows = [row("A", 100, 2.0, mean_cjx=None), row("B", 100, 1.0, mean_cjx=1.2)]
        table = rank(rows, RankingSpec("org", "mean_cjx", 0, 10))
        assert [r[0] for r in table.rows] == ["B"]

    def test_top_decile_metric_adds_column(self):
        rows = [row("A", 100, 2.0, top_decile=8.5)]
        table = rank(rows, RankingSpec("org", "top_decile_mean_cx", 0, 10))
        assert table.columns[-1] == "top_decile_mean_cx"
        assert table.rows[0][-1] == 8.5


class TestEmit:
    def table(self):
        rows = [row("A", 137, 1.0309, top_share=4.4, mean_cjx=1.93)]
        return rank(rows, RankingSpec("org", "mean_cx", 0, 10))

    def test_emit_twice_identical_bytes(self, tmp_path):
        table = self.table()
        for fmt, name in (("csv", "a.csv"), ("json", "a.json"), ("markdown", "a.md")):
            p1, p2 = tmp_path / ("x" + name), tmp_path / ("y" + name)
            emit(table, fmt, p1)
            emit(table, fmt, p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_csv_two_decimal_ratio_display(self):
        text = render(self.table(), "csv")
        lines = text.splitlines()
        assert lines[0] == "entity,weight,mean_cx,top_share_pct,mean_cjx"
        assert lines[1] == "A,137.0,1.03,4.4,1.93"

    def test_markdown_shape(self):
        rows = [row("A", 100, 2.0), row("B", 90, 1.5)]
        table = rank(rows, RankingSpec("org", "mean_cx", 0, 10))
        lines = render(table, "markdown").splitlines()
        assert len(lines) == 4  # header + separator + 2 rows
        assert lines[0].startswith("| entity |")
        assert set(lines[1].replace("|", "").split()) == {"---"}

    def test_json_round_trip_exact(self, tmp_path):
        table = self.table()
        path = tmp_path / "t.json"
        emit(table, "json", path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload[0]["mean_cx"] == 1.0309  # full precision preserved
        assert payload[0]["weight"] == 137.0
        assert tuple(payload[0].values()) == table.rows[0]

    def test_display_rounding_never_feeds_back(self):
        table = self.table()
        render(table, "csv")
        assert table.rows[0][2] == 1.0309

    def test_empty_table_emits_header_only(self):
        table = rank([], RankingSpec("org", "mean_cx"))
        assert render(table, "csv") == "entity,weight,mean_cx,top_share_pct,mean_cjx\n"

    @pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_value_refused(self, tmp_path, fmt, value):
        table = Table(("entity", "mean_cx"), (("A", 1.0), ("B", value)))
        path = tmp_path / "t.out"
        with pytest.raises(ReportError, match="column 'mean_cx' holds the non-finite value"):
            emit(table, fmt, path)
        assert not path.exists()

    def test_unknown_format_rejected(self):
        with pytest.raises(ReportError):
            emit(self.table(), "xlsx", "out.xlsx")


class TestFilenames:
    def test_template(self):
        name = default_filename("org", "mean_cx", "csv", when=date(2011, 2, 18))
        assert name == "org_mean_cx_2011-02-18.csv"

    def test_markdown_extension(self):
        assert default_filename("org", "weight", "markdown", when=date(2011, 1, 1)).endswith(".md")
