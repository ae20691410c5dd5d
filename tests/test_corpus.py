import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldimpact.cli import dispatch
from fieldimpact.corpus import (
    Attribution,
    CorpusError,
    CorpusValidationError,
    DocType,
    census_citations,
    doc_type_shares,
    load_field_scheme,
    load_journals,
    load_organizations,
    parse_corpus,
    validate_record,
    write_publications_jsonl,
)
from fractions import Fraction

from conftest import args_corpus, att, jsonl, journals_csv, mk_corpus, orgs_csv, pub, read_records, scheme_csv


class TestParseCorpus:
    def test_three_valid_records(self):
        corpus = mk_corpus(
            [
                pub("p1", journal="J1"),
                pub("p2", journal="J2", doc_type="review"),
                pub("p3", journal="J1", doc_type="proceedings"),
            ]
        )
        summary = corpus.summary()
        assert summary.n_records == 3
        assert summary.n_journals == 2
        assert summary.doc_type_counts == {"article": 1, "review": 1, "proceedings": 1}

    def test_empty_field_list_rejected_naming_record(self):
        with pytest.raises(CorpusValidationError) as exc:
            mk_corpus([pub("p1"), {**pub("pbad"), "fields": []}])
        assert any("pbad" in d and "fields" in d for d in exc.value.diagnostics)

    def test_records_sorted_by_id(self):
        corpus = mk_corpus([pub("z9"), pub("a1", journal="J1"), pub("m5", journal="J1")])
        assert [r.id for r in corpus.records] == ["a1", "m5", "z9"]

    def test_duplicate_id_rejected(self):
        with pytest.raises(CorpusValidationError) as exc:
            mk_corpus([pub("p1"), pub("p1")])
        assert any("duplicate publication id" in d for d in exc.value.diagnostics)

    def test_malformed_line_reports_line_number(self):
        text = jsonl([pub("p1")]) + "{not json\n"
        with pytest.raises(CorpusValidationError) as exc:
            parse_corpus(
                io.StringIO(text),
                io.StringIO(journals_csv([("J1", "J", 1.0, ["F1"])])),
                io.StringIO(orgs_csv([])),
                io.StringIO(scheme_csv({"F1": "Physics"})),
            )
        assert any("line 2" in d and "malformed" in d for d in exc.value.diagnostics)

    def test_dangling_references_listed(self):
        with pytest.raises(CorpusValidationError) as exc:
            mk_corpus(
                [pub("p1", journal="GHOST"), pub("p2", fields=["F1", "NOFIELD"])],
                journals=[("J1", "J", 1.0, ["F1"]), ("GHOST", "G", 1.0, ["F1"])],
                scheme={"F1": "Physics"},
            )
        joined = "\n".join(exc.value.diagnostics)
        assert "NOFIELD" in joined

    def test_subunit_credited_as_organization_is_dangling(self, tiny_corpus_files, capsys):
        """A sub-unit in the org slot would be ranked beside its own parent."""
        files = tiny_corpus_files
        files["orgs"].write_text(files["orgs"].read_text(encoding="utf-8") + "A_LAB,Alpha Lab,U,A\n", encoding="utf-8")
        files["pubs"].write_text(jsonl([pub("p1", attributions=[att("A_LAB")])]), encoding="utf-8")
        assert dispatch(["validate", *args_corpus(files)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "dangling organization reference(s): A_LAB", "validation failed: 1 diagnostic(s)",
        ]

    def test_ingest_idempotent(self):
        pubs = [pub("p1", citations=3), pub("p2", journal="J2", citations=1)]
        a = mk_corpus(pubs)
        b = mk_corpus(pubs)
        assert a.records == b.records
        assert a.journals == b.journals
        assert a.field_scheme == b.field_scheme

    def test_doc_type_counts_sum_to_total(self):
        pubs = [pub(f"p{i}", doc_type=["article", "review", "proceedings"][i % 3]) for i in range(17)]
        summary = mk_corpus(pubs).summary()
        assert sum(summary.doc_type_counts.values()) == summary.n_records == 17

    def test_org_depth_beyond_two_rejected(self):
        with pytest.raises(CorpusValidationError) as exc:
            mk_corpus(
                [pub("p1")],
                orgs=[
                    ("A", "Top", "U", None),
                    ("B", "Mid", "U", "A"),
                    ("C", "Deep", "U", "B"),
                ],
            )
        assert any("max depth" in d for d in exc.value.diagnostics)

    def test_field_mapped_twice_rejected(self):
        scheme = "field_id,discipline_id\nF1,Physics\nF1,Biology\n"
        with pytest.raises(CorpusValidationError) as exc:
            parse_corpus(
                io.StringIO(jsonl([pub("p1")])),
                io.StringIO(journals_csv([("J1", "J", 1.0, ["F1"])])),
                io.StringIO(orgs_csv([])),
                io.StringIO(scheme),
            )
        assert any("more than one discipline" in d for d in exc.value.diagnostics)

    @pytest.mark.parametrize("impact_factor", ["nan", "inf", "-0.5"])
    def test_non_finite_or_negative_impact_factor_rejected(self, impact_factor):
        with pytest.raises(CorpusValidationError) as exc:
            mk_corpus([pub("p1")], journals=[("J1", "J", impact_factor, ["F1"])])
        assert exc.value.diagnostics == [
            f"journals line 2: impact_factor must be finite and non-negative, got {impact_factor!r}"
        ]

    def test_attribution_round_trip(self, tmp_path):
        attributed = mk_corpus(
            [pub("p1", attributions=[att("A", "1/2"), att("B", "1/2")]), pub("p2")],
            orgs=[("A", "Alpha", "U", None), ("B", "Beta", "RI", None)],
        )
        assert attributed.records[0].attributions == (
            Attribution("A", None, Fraction(1, 2)), Attribution("B", None, Fraction(1, 2))
        )
        path = tmp_path / "round.jsonl"
        write_publications_jsonl(attributed, path)
        reloaded = parse_corpus(
            path,
            io.StringIO(journals_csv([("J1", "J", 1.0, ["F1"])])),
            io.StringIO(orgs_csv([("A", "Alpha", "U", None), ("B", "Beta", "RI", None)])),
            io.StringIO(scheme_csv({"F1": "Physics"})),
        )
        assert reloaded.records == attributed.records

    def test_writer_matches_one_encoding_per_record(self):
        """Shared attribution tuples are encoded once; each line reads as if dumped whole."""
        atts = [att("A", "1/3"), att("B", "2/3", subunit="B1")]
        pubs = [pub("p1", attributions=atts), pub("p2", addresses=["x"]), pub("p3", attributions=atts)]
        corpus = mk_corpus(
            pubs, orgs=[("A", "Alpha", "U", None), ("B", "Beta", "RI", None), ("B1", "Lab", "RI", "B")]
        )
        buf = io.StringIO()
        write_publications_jsonl(corpus, buf)
        assert buf.getvalue().splitlines() == [json.dumps(p) for p in pubs]  # `pub` keys are in file order

    def test_attribution_weights_must_sum_to_one(self):
        with pytest.raises(CorpusValidationError) as exc:
            mk_corpus([pub("p1", attributions=[att("ORG_A", "1/2")])])
        assert exc.value.diagnostics == [
            "publications line 1 (record p1): attribution weights must sum to exactly 1"
        ]


def parse_line_by_line(text: str):
    """Ingest without its attribution memo: `validate_record`
    on each line, diagnostics formatted the same way (ids are unique)."""
    records, diagnostics = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        raw = json.loads(line)
        record, rec_diags = validate_record(raw)
        diagnostics += [f"publications line {lineno} (record {raw['id']}): {d}" for d in rec_diags]
        if record is not None:
            records.append(record)
    return records, diagnostics


_MISSING = object()


def _item(org, subunit, weight) -> dict:
    values = (("org", org), ("subunit", subunit), ("weight", weight))
    return {k: v for k, v in values if v is not _MISSING}


# Lines draw their attribution lists from one small pool, so a file often
# repeats a list and often holds lists whose keys compare equal across
# types (`1` and `true`), unhashable values, or a missing `org`.
ATTRIBUTION_POOL = [
    [_item(*values)]
    for values in itertools.product(
        ["A", _MISSING, 3, ["A"]],
        [None, "X", _MISSING, 3, ["X"]],
        ["1", "1/2", 1, True, 0.5, ["1"], "0"],
    )
] + [
    [_item("A", None, "1/2"), _item("B", "X", "1/2")],
    [_item("A", None, "1/2"), _item("B", "X", 0.5)],
    [_item("A", None, "1/3"), "x"],
    [],
    "not a list",
    _MISSING,
]


class TestAttributionMemo:
    @given(st.lists(st.sampled_from(ATTRIBUTION_POOL), min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_equals_validate_record_line_by_line(self, lists):
        pubs = [
            pub(f"p{i:02d}") if atts is _MISSING else pub(f"p{i:02d}", attributions=atts)
            for i, atts in enumerate(lists)
        ]
        text = jsonl(pubs)
        assert read_records(text) == parse_line_by_line(text)

    def test_string_weight_does_not_admit_bool_weight(self):
        text = jsonl([
            pub("p1", attributions=[att("A", "1")]),
            pub("p2", attributions=[{"org": "A", "subunit": None, "weight": True}]),
        ])
        records, diagnostics = read_records(text)
        assert [r.id for r in records] == ["p1"]
        assert diagnostics == ["publications line 2 (record p2): invalid attribution weight True"]

    def test_invalid_list_diagnosed_on_every_line(self):
        text = jsonl([pub(f"p{i}", attributions=[att("A", "1/2")]) for i in (1, 2)])
        records, diagnostics = read_records(text)
        assert records == []
        assert diagnostics == [
            f"publications line {i} (record p{i}): attribution weights must sum to exactly 1"
            for i in (1, 2)
        ]

    def test_equal_lists_share_one_tuple(self):
        atts = [att("A", "1/3"), att("B", "2/3", subunit="B1")]
        text = jsonl([pub("p1", attributions=atts), pub("p2"), pub("p3", attributions=atts)])
        (p1, p2, p3), diagnostics = read_records(text)
        assert diagnostics == []
        assert p1.attributions is p3.attributions
        assert p1.attributions == (
            Attribution("A", None, Fraction(1, 3)), Attribution("B", "B1", Fraction(2, 3))
        )
        assert p2.attributions == ()


class TestRegistryRejections:
    """One bad line appended to each registry of the three-record fixture: the
    loader's exact diagnostic, and `validate`'s exit code 1 with that line."""

    def assert_rejected(self, files, capsys, key, loader, line, diagnostic):
        path = files[key]
        path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        with pytest.raises(CorpusValidationError) as exc:
            loader(path)
        assert exc.value.diagnostics == [diagnostic]
        assert dispatch(["validate", *args_corpus(files)]) == 1
        assert capsys.readouterr().err.splitlines() == [diagnostic, "validation failed: 1 diagnostic(s)"]

    @pytest.mark.parametrize("line, diagnostic", [
        ("J3,Journal Three,1.0", "journals line 4: expected 4 columns, got 3"),
        ("J3,Journal Three,1.0,F1,F2", "journals line 4: expected 4 columns, got 5"),
        (" ,Journal Three,1.0,F1", "journals line 4: empty journal_id"),
        ("J1,Journal One again,1.0,F1", "journals line 4: duplicate journal_id 'J1'"),
        ("J3,Journal Three,high,F1", "journals line 4: invalid impact_factor 'high'"),
        ("J3,Journal Three,,F1", "journals line 4: invalid impact_factor ''"),
        ("J3,Journal Three,1.0, ; ", "journals line 4: journal 'J3' has no fields"),
        ("J3,Journal Three,1.0,F1; F1", "journals line 4: journal 'J3' lists a field more than once"),
    ])
    def test_journals(self, tiny_corpus_files, capsys, line, diagnostic):
        self.assert_rejected(tiny_corpus_files, capsys, "journals", load_journals, line, diagnostic)

    @pytest.mark.parametrize("line, diagnostic", [
        ("C,Org Gamma,U", "orgs line 4: expected 4 columns, got 3"),
        (",Org Gamma,U,", "orgs line 4: empty org_id"),
        ("A,University Alpha again,U,", "orgs line 4: duplicate org_id 'A'"),
        ("C,Org Gamma,X,", "orgs line 4: org_type must be one of ['H', 'RI', 'U'], got 'X'"),
        ("C,Org Gamma,U,Z", "org 'C': unknown parent 'Z'"),
        ("C,Org Gamma,U,C", "org 'C': is its own parent"),
    ])
    def test_orgs(self, tiny_corpus_files, capsys, line, diagnostic):
        self.assert_rejected(tiny_corpus_files, capsys, "orgs", load_organizations, line, diagnostic)

    @pytest.mark.parametrize("line, diagnostic", [
        ("F3", "fieldscheme line 4: expected 2 columns, got 1"),
        ("F3,Physics,Biology", "fieldscheme line 4: expected 2 columns, got 3"),
        (",Physics", "fieldscheme line 4: empty field_id or discipline_id"),
        ("F3, ", "fieldscheme line 4: empty field_id or discipline_id"),
    ])
    def test_field_scheme(self, tiny_corpus_files, capsys, line, diagnostic):
        self.assert_rejected(tiny_corpus_files, capsys, "fields", load_field_scheme, line, diagnostic)


class TestDocTypeShares:
    # 2001 reference row: 25,956 articles / 10,195 proceedings / 1,202 reviews.
    def test_2001_shares(self):
        shares = doc_type_shares({"article": 25956, "proceedings": 10195, "review": 1202})
        assert shares["article"] == pytest.approx(69.5, abs=0.05)
        assert shares["proceedings"] == pytest.approx(27.3, abs=0.05)
        assert shares["review"] == pytest.approx(3.2, abs=0.05)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            doc_type_shares({})


class TestValidateRecord:
    def test_negative_citations(self):
        _, diags = validate_record({**pub("p1"), "citations": -1})
        assert any("citations must be non-negative" in d for d in diags)

    @pytest.mark.parametrize("citations", [2**53, 2**53 + 1, 10**400], ids=["2**53", "2**53+1", "10**400"])
    def test_citations_beyond_float_precision(self, citations):
        record, diags = validate_record({**pub("p1"), "citations": citations})
        assert record is None
        assert diags == ["citations must be below 2**53"]

    def test_largest_exact_citation_count_accepted(self):
        record, diags = validate_record({**pub("p1"), "citations": 2**53 - 1})
        assert diags == [] and record.citations == 2**53 - 1

    def test_duplicate_field(self):
        _, diags = validate_record({**pub("p1"), "fields": ["F1", "F1"]})
        assert any("duplicate field" in d for d in diags)

    def test_valid_record_has_no_diagnostics(self):
        record, diags = validate_record(pub("p1", citations=4))
        assert diags == []
        assert record is not None
        assert record.doc_type is DocType.ARTICLE
        assert record.citations == 4

    def test_all_violations_reported_not_just_first(self):
        _, diags = validate_record(
            {
                "id": "",
                "year": "nope",
                "doc_type": "thesis",
                "journal": "",
                "fields": [],
                "citations": -3,
                "addresses": "not-a-list",
            }
        )
        joined = "\n".join(diags)
        for fragment in ("id", "year", "doc_type", "journal", "fields", "addresses"):
            assert fragment in joined
        assert len(diags) >= 6


class TestCensusCitations:
    def test_boundary_inclusive(self):
        result = census_citations(["2008-01-01", "2009-06-30", "2009-07-01"], "2009-06-30")
        assert result.count == 2

    def test_empty_events(self):
        assert census_citations([], "2009-06-30").count == 0

    def test_precomputed_pass_through(self):
        result = census_citations(17, None)
        assert result.count == 17
        assert result.warnings == ()

    @pytest.mark.parametrize("count", [2**53, 2**53 + 1, 10**30])
    def test_precomputed_count_beyond_float_precision(self, count):
        with pytest.raises(CorpusError, match=r"^citations must be below 2\*\*53$"):
            census_citations(count, None)

    def test_precomputed_count_below_float_precision(self):
        assert census_citations(2**53 - 1, None).count == 2**53 - 1

    @pytest.mark.parametrize("events, census_date, message", [
        (True, None, "citation_events must be dates or an integer count"),
        (False, "2009-06-30", "citation_events must be dates or an integer count"),
        (-1, None, "precomputed citation count must be non-negative"),
        (["2005-01-01"], None, "census_date is required when counting dated events"),
        (["2005-13-01"], "2009-06-30", "citation event: invalid ISO date '2005-13-01'"),
        ([2005], "2009-06-30", "citation event: invalid ISO date 2005"),
        (["2005-01-01"], "June 2009", "census_date: invalid ISO date 'June 2009'"),
        (["2005-01-01"], "20090630", "census_date: invalid ISO date '20090630'"),
        (["2005-W01-1"], "2009-06-30", "citation event: invalid ISO date '2005-W01-1'"),
    ])
    def test_rejections(self, events, census_date, message):
        with pytest.raises(CorpusError) as exc:
            census_citations(events, census_date)
        assert str(exc.value) == message

    def test_event_before_publication_year_warned_but_counted(self):
        result = census_citations(["2000-05-01"], "2009-06-30", publication_year=2003)
        assert result.count == 1
        assert len(result.warnings) == 1
        assert "precedes publication year" in result.warnings[0]
