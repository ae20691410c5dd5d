import io
import math
import statistics

import numpy as np
import pytest

from fieldimpact.benchmarks import (
    BenchmarkError,
    classify_top_journals,
    compute_jxcr,
    compute_xcr,
    export_benchmark_csv,
    export_top_journals_csv,
    load_benchmark_csv,
    load_top_journals_csv,
)
from fieldimpact.cli import dispatch
from fieldimpact.corpus import FieldScheme, Journal

from conftest import args_corpus, mk_corpus, pub, top_decile_oracle


def classify(journals, fraction=0.10):
    """`classify_top_journals` of a journal list, under a scheme of the journals' own fields."""
    scheme = FieldScheme({f: "Physics" for j in journals for f in j.field_ids})
    return classify_top_journals({j.id: j for j in journals}, scheme, fraction)


def journal(jid, impact, fields=("F1",)):
    return Journal(jid, f"Journal {jid}", impact, tuple(fields))


class TestExpectedCitationRates:
    def test_xcr_is_arithmetic_mean(self):
        # Oracle: statistics.mean over the raw counts.
        counts = [0, 2, 7]
        corpus = mk_corpus([pub(f"p{i}", citations=c) for i, c in enumerate(counts)])
        table = compute_xcr(corpus)
        assert table.expected(2003, "F1") == statistics.mean(counts) == 3.0

    def test_single_publication_cell(self):
        corpus = mk_corpus([pub("p1", citations=5)])
        assert compute_xcr(corpus).expected(2003, "F1") == 5.0

    def test_multi_field_contributes_to_each_cell(self):
        corpus = mk_corpus(
            [pub("p1", fields=["F1", "F2"], citations=4), pub("p2", fields=["F1"], citations=0)]
        )
        table = compute_xcr(corpus)
        assert table.cells == {(2003, "F1"): (2, 2.0), (2003, "F2"): (1, 4.0)}

    def test_empty_corpus_is_error(self):
        empty = mk_corpus([], journals=[("J1", "Journal One", 1.0, ["F1"])], scheme={"F1": "Physics"})
        assert empty.records == ()
        with pytest.raises(BenchmarkError, match="no benchmark data"):
            compute_xcr(empty)

    def test_jxcr_mean(self):
        corpus = mk_corpus(
            [pub("p1", year=2004, citations=1), pub("p2", year=2004, citations=3)]
        )
        assert compute_jxcr(corpus).expected(2004, "J1") == 2.0

    def test_sole_publication_self_benchmark(self):
        corpus = mk_corpus([pub("p1", year=2004, citations=9)])
        table = compute_jxcr(corpus)
        assert table.expected(2004, "J1") == 9.0  # its own Cites/JXCR is 1.0

    def test_absent_cell_signals_missing(self):
        corpus = mk_corpus([pub("p1", year=2004)])
        table = compute_jxcr(corpus)
        with pytest.raises(BenchmarkError, match=r"^missing benchmark for \(2005, J1\) \[journal\]$"):
            table.expected(2005, "J1")

    def test_zero_mean_cell_is_flagged_and_degenerate_at_lookup(self):
        corpus = mk_corpus([pub("p1", citations=0), pub("p2", citations=0)])
        table = compute_xcr(corpus)
        assert table.cells == {(2003, "F1"): (2, 0.0)}
        with pytest.raises(BenchmarkError, match=r"^degenerate benchmark \(mean 0\) for \(2003, F1\) \[field\]$"):
            table.expected(2003, "F1")

    def test_self_normalization_within_tolerance(self):
        rng = np.random.default_rng(7)
        pubs = [
            pub(f"p{i:03d}", year=2001 + i % 3, fields=[f"F{i % 4}"], citations=int(c))
            for i, c in enumerate(rng.poisson(6.0, 300))
        ]
        corpus = mk_corpus(pubs)
        table = compute_xcr(corpus)
        cells = {}
        for rec in corpus.records:
            ratio = rec.citations / table.expected(rec.year, rec.field_ids[0])
            cells.setdefault((rec.year, rec.field_ids[0]), []).append(ratio)
        for values in cells.values():
            assert statistics.fmean(values) == pytest.approx(1.0, rel=1e-9)

    def test_scale_invariance_of_one_cell(self):
        base = [3, 5, 9]
        k = 7
        corpus1 = mk_corpus([pub(f"p{i}", citations=c) for i, c in enumerate(base)])
        corpus2 = mk_corpus([pub(f"p{i}", citations=c * k) for i, c in enumerate(base)])
        t1, t2 = compute_xcr(corpus1), compute_xcr(corpus2)
        assert t2.expected(2003, "F1") == pytest.approx(k * t1.expected(2003, "F1"))
        for c in base:
            assert c / t1.expected(2003, "F1") == pytest.approx(c * k / t2.expected(2003, "F1"))


class TestTopJournals:
    def test_ten_distinct_ifs_top_one(self):
        journals = [journal(f"J{i}", float(i)) for i in range(10)]
        top = classify(journals)
        assert top.by_field["F1"] == top_decile_oracle(journals)["F1"] == frozenset({"J9"})

    def test_journal_listing_a_field_twice_fills_one_slot(self):
        # Ten journals in F1 with impact factors 10 down to 1 keep one; J1,
        # listing F1 twice, must not take a second slot.
        journals = [journal(f"J{i}", float(10 - i)) for i in range(10)]
        journals[1] = journal("J1", 9.0, ("F1", "F1"))
        assert classify(journals).by_field["F1"] == top_decile_oracle(journals)["F1"] == frozenset({"J0"})

    def test_single_journal_is_top(self):
        top = classify([journal("J1", 0.5)])
        assert top.by_field["F1"] == frozenset({"J1"})

    def test_boundary_tie_included(self):
        journals = [journal(f"J{i}", 1.0 if i >= 8 else float(i) / 10) for i in range(10)]
        top = classify(journals)
        assert top.by_field["F1"] == frozenset({"J8", "J9"})

    def test_field_with_zero_journals_is_empty(self):
        scheme = FieldScheme({"F1": "Physics", "EMPTY": "Physics"})
        top = classify_top_journals({"J1": journal("J1", 2.0)}, scheme)
        assert top.by_field["EMPTY"] == frozenset()

    def test_top_for_any_field_of_publication(self):
        journals = [
            journal("JA", 9.0, ["F1"]),
            journal("JB", 1.0, ["F1", "F2"]),
            *[journal(f"JC{i}", 5.0 - i * 0.1, ["F1"]) for i in range(8)],
        ]
        top = classify(journals)
        assert "JB" not in top.by_field["F1"]
        assert top.by_field["F2"] == {"JB"}  # only journal of F2

    def test_count_bounds_and_oracle_agreement(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(1, 120))
            ifs = np.round(rng.lognormal(0.0, 0.8, n), 2)  # rounding injects ties
            journals = [journal(f"J{i:03d}", float(ifs[i])) for i in range(n)]
            top = classify(journals)
            oracle = top_decile_oracle(journals)
            assert top.by_field["F1"] == oracle["F1"]
            assert math.ceil(0.1 * n) <= len(top.by_field["F1"]) <= n

    def test_cutoff_is_the_ceiling_of_the_decimal_fraction(self):
        # 0.07 * 100 is 7.000000000000001 in floats; the cutoff must be 7.
        journals = [journal(f"J{i:03d}", float(i + 1)) for i in range(100)]
        assert len(classify(journals, fraction=0.07).by_field["F1"]) == 7
        # Exact oracle: fraction p/100 of n distinct impact factors keeps the
        # ceil(p * n / 100) largest, computed in integers.
        for n in range(1, 101):
            for p in range(1, 101):
                top = classify(journals[:n], fraction=p / 100)
                k = -(-p * n // 100)
                assert top.by_field["F1"] == {f"J{i:03d}" for i in range(n - k, n)}, (n, p)

    def test_bad_fraction_rejected(self):
        with pytest.raises(BenchmarkError):
            classify([journal("J1", 1.0)], fraction=0.0)


class TestCsvRoundTrips:
    def test_benchmark_table_round_trip(self):
        corpus = mk_corpus(
            [pub("p1", citations=3), pub("p2", citations=4), pub("p3", year=2005, citations=11)]
        )
        table = compute_xcr(corpus)
        buf = io.StringIO()
        export_benchmark_csv(table, buf)
        reloaded = load_benchmark_csv(io.StringIO(buf.getvalue()), "field")
        assert dict(reloaded.cells) == dict(table.cells)

    def test_jxcr_header_differs(self):
        corpus = mk_corpus([pub("p1", citations=3)])
        buf = io.StringIO()
        export_benchmark_csv(compute_jxcr(corpus), buf)
        assert buf.getvalue().splitlines()[0] == "year,journal_id,n,jxcr"
        with pytest.raises(BenchmarkError):
            load_benchmark_csv(io.StringIO(buf.getvalue()), "field")

    def test_top_journal_round_trip(self):
        journals = [journal(f"J{i}", float(i), ["F1", "F2"]) for i in range(10)]
        top = classify(journals)
        buf = io.StringIO()
        export_top_journals_csv(top, buf)
        reloaded = load_top_journals_csv(io.StringIO(buf.getvalue()))
        assert dict(reloaded.by_field) == dict(top.by_field)


class TestCsvLoaderRejections:
    HEADER = "year,field_id,n,xcr\n"

    def test_unknown_kind_rejected(self):
        with pytest.raises(BenchmarkError, match="^unknown benchmark kind 'org'$"):
            load_benchmark_csv(io.StringIO(self.HEADER + "2003,F1,2,1.0\n"), "org")

    @pytest.mark.parametrize("kind, body, message", [
        ("field", "x,F1,2,1.0\n", "benchmark CSV line 2: invalid literal for int() with base 10: 'x'"),
        ("field", "2003.0,F1,2,1.0\n", "benchmark CSV line 2: invalid literal for int() with base 10: '2003.0'"),
        ("field", "2003,F1,two,1.0\n", "benchmark CSV line 2: invalid literal for int() with base 10: 'two'"),
        ("field", "2003,F1,1.5,1.0\n", "benchmark CSV line 2: invalid literal for int() with base 10: '1.5'"),
        ("field", "2003,F1,0,1.0\n", "benchmark CSV line 2: n must be >= 1"),
        ("journal", "2003,J1,-2,1.0\n", "benchmark CSV line 2: n must be >= 1"),
        pytest.param("field", f"2003,F1,{10**400},5e-324\n", "benchmark CSV line 2: n must be below 2**53",
                     id="n 10**400 with the least mean"),
        pytest.param("journal", f"2003,J1,{2**53},1.0\n", "benchmark CSV line 2: n must be below 2**53",
                     id="n 2**53"),
        ("field", "", "no benchmark data"),
        ("journal", "\n \n", "no benchmark data"),
    ])
    def test_rejected_cell_message_and_exit_code(self, tiny_corpus_files, capsys, kind, body, message):
        header = self.HEADER if kind == "field" else "year,journal_id,n,jxcr\n"
        with pytest.raises(BenchmarkError) as exc:
            load_benchmark_csv(io.StringIO(header + body), kind)
        assert str(exc.value) == message
        files = tiny_corpus_files
        path = files["dir"] / "table.csv"
        path.write_text(header + body, encoding="utf-8")
        out = files["dir"] / "out"
        option = "--xcr-csv" if kind == "field" else "--jxcr-csv"
        assert dispatch(["indicators", *args_corpus(files, option, str(path), "--out-dir", str(out))]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_one_column_top_journal_row_names_line(self):
        with pytest.raises(BenchmarkError, match=r"line 3: expected 2 columns, got 1"):
            load_top_journals_csv(io.StringIO("field_id,journal_id\nF1,J1\nF1\n"))

    @pytest.mark.parametrize("mean", ["nan", "inf", "-inf", "-1.5"])
    def test_non_finite_or_negative_mean_rejected(self, mean):
        with pytest.raises(BenchmarkError, match=r"line 2: xcr must be finite and non-negative"):
            load_benchmark_csv(io.StringIO(self.HEADER + f"2003,F1,2,{mean}\n"), "field")

    @pytest.mark.parametrize("n, mean", [(2, "5e-324"), (2, "0.49999999999999994"), (49, "0.02")])
    def test_mean_below_one_over_n_rejected(self, n, mean):
        with pytest.raises(BenchmarkError, match=rf"^benchmark CSV line 3: xcr must be 0 or at least 1/n "
                                                 rf"\(n = {n}\), got '{mean}'$"):
            load_benchmark_csv(io.StringIO(self.HEADER + f"2001,F1,1,2.0\n2003,F1,{n},{mean}\n"), "field")

    def test_mean_of_one_citation_loads(self):
        # 1/49 * 49 < 1 in floats; the bound is the float 1/49 itself.
        table = load_benchmark_csv(io.StringIO(self.HEADER + f"2003,F1,49,{1 / 49!r}\n"), "field")
        assert table.cells[(2003, "F1")] == (49, 1 / 49)

    def test_zero_mean_still_loads_as_degenerate_cell(self):
        table = load_benchmark_csv(io.StringIO(self.HEADER + "2003,F1,2,0.0\n"), "field")
        assert table.cells == {(2003, "F1"): (2, 0.0)}

    @pytest.mark.parametrize("kind, row", [("field", "2001,,1,2.0"), ("journal", "2001, ,1,2.0")])
    def test_empty_key_rejected(self, kind, row):
        header = self.HEADER if kind == "field" else "year,journal_id,n,jxcr\n"
        key_col = "field_id" if kind == "field" else "journal_id"
        with pytest.raises(BenchmarkError, match=rf"line 3: empty {key_col}"):
            load_benchmark_csv(io.StringIO(header + "2001,K1,1,2.0\n" + row + "\n"), kind)

    def test_duplicate_cell_rejected(self):
        text = self.HEADER + "2003,F1,2,1.5\n2004,F1,1,2.0\n2003,F1,3,9.0\n"
        with pytest.raises(BenchmarkError, match=r"line 4: duplicate cell \(2003, F1\)"):
            load_benchmark_csv(io.StringIO(text), "field")

    @pytest.mark.parametrize("row, n", [("2003,F1,2,1.5,garbage", 5), ("2003,F1,2", 3)])
    def test_wrong_column_count_names_line(self, row, n):
        with pytest.raises(BenchmarkError, match=rf"^benchmark CSV line 3: expected 4 columns, got {n}$"):
            load_benchmark_csv(io.StringIO(self.HEADER + "2001,F1,1,2.0\n" + row + "\n"), "field")

    @pytest.mark.parametrize("row", [",J1", "F1,", " ,J1"])
    def test_empty_top_journal_cell_names_line(self, row):
        with pytest.raises(BenchmarkError, match=r"^top-journal CSV line 3: empty field_id or journal_id$"):
            load_top_journals_csv(io.StringIO("field_id,journal_id\nF1,J1\n" + row + "\n"))

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("field", "year,journal_id,n,jxcr\n2001,J1,1,2.0\n",
             "benchmark CSV: expected header 'year,field_id,n,xcr', got 'year,journal_id,n,jxcr'"),
            ("journal", "year,field_id,n,xcr\n2001,F1,1,2.0\n",
             "benchmark CSV: expected header 'year,journal_id,n,jxcr', got 'year,field_id,n,xcr'"),
            ("field", "", "benchmark CSV: empty file"),
            ("journal", "", "benchmark CSV: empty file"),
        ],
    )
    def test_benchmark_header_mismatch_or_empty_file(self, kind, text, message):
        with pytest.raises(BenchmarkError) as info:
            load_benchmark_csv(io.StringIO(text), kind)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("journal_id,field_id\nJ1,F1\n",
             "top-journal CSV: expected header 'field_id,journal_id', got 'journal_id,field_id'"),
            ("", "top-journal CSV: empty file"),
        ],
    )
    def test_top_journal_header_mismatch_or_empty_file(self, text, message):
        with pytest.raises(BenchmarkError) as info:
            load_top_journals_csv(io.StringIO(text))
        assert str(info.value) == message
