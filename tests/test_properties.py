"""Property tests over reconciliation, organizational slices, record
order, benchmark CSV round trips, and `aggregate` and the benchmark
tables against brute-force oracles; ingest, the record columns, the
writer, the column snapshot and the concentration weights against theirs.

Worlds are small: a handful of records whose addresses mix org-level,
sub-unit and unmatched phrases, matched by a fixed rule file.
"""

import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldimpact.benchmarks import (
    BenchmarkCell,
    BenchmarkTables,
    CitationBenchmarkTable,
    TopJournalSet,
    classify_top_journals,
    compute_benchmarks,
    compute_jxcr,
    compute_xcr,
    export_benchmark_csv,
    load_benchmark_csv,
)
from fieldimpact.columns import RecordColumns
from fieldimpact.corpus import (CorpusValidationError, _load_snapshot, parse_corpus, snapshot_path,
                                validate_record, write_publications_jsonl, write_snapshot)
from fieldimpact.indicators import (IndicatorRow, aggregate, concentration_index_from_shares, concentration_table,
                                    org_type_discipline_weights, write_indicator_csv, write_indicator_json)
from fieldimpact.reconcile import compile_rules, reconcile_corpus
from fieldimpact.reporting import RankingSpec, emit, rank
from fieldimpact.synth import build_world_spec, generate_corpus

from conftest import (assert_columns_equal, att, journals_csv, jsonl, mk_corpus, orgs_csv, pub, read_records,
                      scheme_csv)

ORGS = [
    ("A", "Alpha", "U", None),
    ("A_L1", "Alpha Lab One", "U", "A"),
    ("A_L2", "Alpha Lab Two", "U", "A"),
    ("B", "Beta", "RI", None),
    ("B_S", "Beta Station", "RI", "B"),
    ("C", "Gamma", "H", None),
]
RULES = (
    "alpha lab one\tA\tA_L1\n"
    "alpha lab two\tA\tA_L2\n"
    "alpha\tA\n"
    "beta station\tB\tB_S\n"
    "beta\tB\n"
    "gamma\tC\n"
)
PHRASES = ("Alpha", "Alpha Lab One", "Alpha Lab Two", "Beta", "Beta Station", "Gamma", "Nowhere")
SCHEME = {"F1": "Physics", "F2": "Physics", "F3": "Biology", "F4": "Physics"}
YEARS = (2001, 2002)
JOURNALS = [("J1", "Journal One", 1.0, sorted(SCHEME))]
# Every (year, field) cell exists and is positive, so no context is excluded.
TABLES = BenchmarkTables(
    CitationBenchmarkTable("field", {(y, f): BenchmarkCell(1, 2.0) for y in YEARS for f in SCHEME}),
    CitationBenchmarkTable("journal", {(y, "J1"): BenchmarkCell(1, 2.0) for y in YEARS}),
)
NO_TOP = TopJournalSet({})
ORG_SLICES = (("org",), ("org_type",), ("subunit",), ("org", "field"))

records = st.lists(
    st.tuples(
        st.sampled_from(YEARS),
        st.lists(st.sampled_from(sorted(SCHEME)), min_size=1, max_size=3, unique=True),
        st.integers(min_value=0, max_value=20),
        st.lists(st.sampled_from(PHRASES), max_size=4),
    ),
    min_size=1,
    max_size=12,
)


def reconciled(drawn):
    pubs = [
        pub(f"p{i:02d}", year=year, fields=fields, citations=cites, addresses=addresses)
        for i, (year, fields, cites, addresses) in enumerate(drawn)
    ]
    corpus = mk_corpus(pubs, journals=JOURNALS, orgs=ORGS, scheme=SCHEME)
    return reconcile_corpus(corpus, compile_rules(io.StringIO(RULES), corpus.organizations)).corpus


@given(records)
@settings(max_examples=60, deadline=None)
def test_org_slice_weights_sum_to_attributed_contexts(drawn):
    corpus = reconciled(drawn)
    attributed = [rec for rec in corpus.records if rec.attributions]
    for keys in ORG_SLICES:
        rows = aggregate(corpus, keys, TABLES, NO_TOP)
        contexts = sum(len(rec.field_ids) if "field" in keys else 1 for rec in attributed)
        assert sum((row.weight_exact for row in rows), Fraction(0)) == contexts, keys
        assert all(value != "" for row in rows for _, value in row.entity), keys


@given(records)
@settings(max_examples=60, deadline=None)
def test_reconciled_corpus_round_trips_through_ingest(drawn):
    corpus = reconciled(drawn)
    buf = io.StringIO()
    write_publications_jsonl(corpus, buf)
    buf.seek(0)
    reloaded = parse_corpus(
        buf,
        io.StringIO(journals_csv(JOURNALS)),
        io.StringIO(orgs_csv(ORGS)),
        io.StringIO(scheme_csv(SCHEME)),
    )
    assert reloaded.records == corpus.records


def chain_outputs(publications: str) -> dict[str, str]:
    """Every indicator and rank output of the CLI chain, computed from a
    publications JSONL text with benchmarks taken from that corpus."""
    corpus = parse_corpus(
        io.StringIO(publications),
        io.StringIO(journals_csv(JOURNALS)),
        io.StringIO(orgs_csv(ORGS)),
        io.StringIO(scheme_csv(SCHEME)),
    )
    tables = compute_benchmarks(corpus)
    top = classify_top_journals(corpus.journals, corpus.field_scheme, 0.10)
    outputs = {}
    for keys in (("nation",), ("discipline", "year"), ("field",), *ORG_SLICES):
        rows = aggregate(corpus, keys, tables, top, with_top_decile=True)
        for name, write in (("csv", write_indicator_csv), ("json", write_indicator_json)):
            buf = io.StringIO()
            write(rows, buf)
            outputs[f"indicators_{'_'.join(keys)}.{name}"] = buf.getvalue()
        if keys in (("org",), ("subunit",)):
            for metric in ("mean_cx", "top_decile_mean_cx"):
                table = rank(rows, RankingSpec(keys[0], metric, min_weight=0, limit=100))
                for fmt in ("csv", "json"):
                    buf = io.StringIO()
                    emit(table, fmt, buf)
                    outputs[f"rank_{keys[0]}_{metric}.{fmt}"] = buf.getvalue()
    return outputs


@given(records, st.data())
@settings(max_examples=60, deadline=None)
def test_shuffled_publication_lines_give_identical_outputs(drawn, data):
    buf = io.StringIO()
    write_publications_jsonl(reconciled(drawn), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    shuffled = data.draw(st.permutations(lines))
    assert chain_outputs("".join(shuffled)) == chain_outputs("".join(lines))


benchmark_keys = st.text(alphabet="AZaz09 ,\"_-\u00e9", min_size=1, max_size=6).map(str.strip).filter(bool)


@st.composite
def benchmark_cell(draw):
    """A cell as the engine makes one: an integer citation total over n counts."""
    n = draw(st.integers(min_value=1, max_value=10**6))
    return BenchmarkCell(n, draw(st.integers(min_value=0, max_value=n * (2**53 - 1))) / n)


benchmark_cells = st.dictionaries(
    st.tuples(st.integers(min_value=1900, max_value=2100), benchmark_keys),
    benchmark_cell(),
    min_size=1,
    max_size=20,
)


@given(st.sampled_from(["field", "journal"]), benchmark_cells)
@settings(max_examples=100, deadline=None)
def test_benchmark_csv_round_trip_is_exact(kind, cells):
    table = CitationBenchmarkTable(kind, cells)
    buf = io.StringIO()
    export_benchmark_csv(table, buf)
    buf.seek(0)
    loaded = load_benchmark_csv(buf, kind)
    assert loaded == table
    assert {k: c.mean.hex() for k, c in loaded.cells.items()} == {
        k: c.mean.hex() for k, c in table.cells.items()
    }


# Differential test of `aggregate` against a brute-force oracle: multi-field
# records over two disciplines (up to three fields in Physics) and three
# document types, sub-unit shares of 1/2, 1/3 and 1/6, unattributed records,
# and an xcr table missing one cell with another degenerate. One jxcr cell
# is degenerate and J3 has none. Both tables hold cells of a year and a
# journal (J9) that no record has, and the top set names J9 and a field
# outside the scheme (F9). Each journal is top in some fields of the scheme
# and not in others, so a record's top flag can come from any of its fields.

TARGETS = (("A", None), ("A", "A_L1"), ("A", "A_L2"), ("B", None), ("B", "B_S"), ("C", None))
SPLITS = ((), ("1",), ("1/2", "1/2"), ("1/3", "1/3", "1/3"), ("1/2", "1/3", "1/6"))
DIFF_JOURNALS = [(j, f"Journal {j}", 1.0, sorted(SCHEME)) for j in ("J1", "J2", "J3")]
DIFF_TOP = TopJournalSet({
    "F1": frozenset({"J1", "J9"}), "F2": frozenset({"J3"}), "F3": frozenset({"J2"}), "F4": frozenset({"J2", "J3"}),
    "F9": frozenset({"J1", "J2", "J3"}),
})
DIFF_SLICES = (
    ("nation",), ("org",), ("org_type",), ("subunit",),
    ("org", "field"), ("org_type", "discipline"), ("discipline", "year"),
    ("year",), ("doc_type",), ("field",), ("field", "year"), ("org", "doc_type"), ("subunit", "year"),
)
XCR_CELLS = [(y, f) for y in YEARS for f in sorted(SCHEME)]
ABSENT_YEAR = 2003


@st.composite
def attributed_pubs(draw):
    pubs = []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        split = draw(st.sampled_from(SPLITS))
        targets = draw(st.lists(st.sampled_from(TARGETS), min_size=len(split), max_size=len(split)))
        extra = {"attributions": [att(o, w, s) for (o, s), w in zip(targets, split)]} if split else {}
        pubs.append(pub(
            f"p{i:02d}",
            year=draw(st.sampled_from(YEARS)),
            doc_type=draw(st.sampled_from(("article", "review", "proceedings"))),
            journal=draw(st.sampled_from(("J1", "J2", "J3"))),
            fields=draw(st.lists(st.sampled_from(sorted(SCHEME)), min_size=1, max_size=3, unique=True)),
            citations=draw(st.integers(min_value=0, max_value=20)),
            **extra,
        ))
    return pubs


@st.composite
def gappy_tables(draw):
    removed, degenerate = draw(st.permutations(XCR_CELLS))[:2]
    means = draw(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=len(XCR_CELLS), max_size=len(XCR_CELLS)))
    xcr = {c: BenchmarkCell(1, 0.0 if c == degenerate else m) for c, m in zip(XCR_CELLS, means) if c != removed}
    jxcr = {(y, j): BenchmarkCell(1, m) for y in YEARS for j, m in (("J1", 2.0), ("J2", 0.75), ("J9", 1.5))}
    jxcr[draw(st.sampled_from([(y, j) for y in YEARS for j in ("J1", "J2")]))] = BenchmarkCell(1, 0.0)
    xcr.update({(ABSENT_YEAR, f): BenchmarkCell(1, 1.0) for f in SCHEME})
    jxcr.update({(ABSENT_YEAR, j): BenchmarkCell(1, 1.0) for j in ("J1", "J2", "J3")})
    return BenchmarkTables(CitationBenchmarkTable("field", xcr), CitationBenchmarkTable("journal", jxcr))


def aggregate_oracle(corpus, keys, tables, top):
    """`aggregate` by brute force: `Fraction` sums per group, n_pubs and
    n_excluded as sets of record ids, `math.fsum` over (num/den)*ratio parts."""
    discipline = corpus.field_scheme.field_to_discipline
    org_sliced = bool({"org_type", "org", "subunit"} & set(keys))
    groups = {}
    for rec in corpus.records:
        if org_sliced and not rec.attributions:
            continue
        if "field" in keys:
            contexts = [({"field": f, "discipline": discipline[f]}, [f]) for f in rec.field_ids]
        elif "discipline" in keys:
            discs = {discipline[f] for f in rec.field_ids}
            contexts = [({"discipline": d}, [f for f in rec.field_ids if discipline[f] == d]) for d in discs]
        else:
            contexts = [({}, list(rec.field_ids))]
        if org_sliced:
            shares = [
                (a.weight, {
                    "org_type": corpus.organizations[a.org_id].org_type.value,
                    "org": a.org_id,
                    "subunit": a.subunit_id or a.org_id,
                })
                for a in rec.attributions
            ]
        else:
            shares = [(Fraction(1), {})]
        jcell = tables.jxcr.cells.get((rec.year, rec.journal_id))
        cjx = rec.citations / jcell.mean if jcell is not None and jcell.mean != 0 else None
        is_top = any(rec.journal_id in top.by_field.get(f, ()) for f in rec.field_ids)
        for ctx, fields in contexts:
            cells = [tables.xcr.cells.get((rec.year, f)) for f in fields]
            ratio = None
            if all(c is not None and c.mean != 0 for c in cells):
                ratio = rec.citations / (sum(c.mean for c in cells) / len(cells))
            for weight, org_vals in shares:
                values = {"nation": "all", "year": rec.year, "doc_type": rec.doc_type.value, **ctx, **org_vals}
                key = tuple((k, values[k]) for k in keys)
                g = groups.setdefault(key, {
                    "w": Fraction(0), "cit": Fraction(0), "top": Fraction(0), "cjx": Fraction(0),
                    "wr": [], "wcjx": [], "pubs": {}, "excluded": set(),
                })
                if ratio is None:
                    g["excluded"].add(rec.id)
                    continue
                g["pubs"][rec.id] = ratio
                part = weight.numerator / weight.denominator
                g["w"] += weight
                g["cit"] += weight * rec.citations
                g["wr"].append(part * ratio)
                if is_top:
                    g["top"] += weight
                    if cjx is not None:
                        g["cjx"] += weight
                        g["wcjx"].append(part * cjx)
    rows = []
    for key in sorted(groups, key=lambda k: [v for _, v in k]):
        g = groups[key]
        w = g["w"]
        if w == 0:
            continue
        scored = sorted(((r, pid) for pid, r in g["pubs"].items()), key=lambda s: (-s[0], s[1]))
        k = math.ceil(0.10 * len(scored))
        rows.append(IndicatorRow(
            entity=key,
            weight=float(w),
            weight_exact=w,
            n_pubs=len(g["pubs"]),
            n_excluded=len(g["excluded"]),
            mean_cx=math.fsum(g["wr"]) / float(w),
            mean_citations=float(g["cit"] / w),
            top_share_pct=100.0 * float(g["top"] / w),
            mean_cjx=math.fsum(g["wcjx"]) / float(g["cjx"]) if g["cjx"] else None,
            top_decile_mean_cx=math.fsum(r for r, _ in scored[:k]) / k,
        ))
    return rows


@given(attributed_pubs(), gappy_tables())
@settings(max_examples=150, deadline=None)
def test_aggregate_matches_brute_force_oracle(pubs, tables):
    corpus = mk_corpus(pubs, journals=DIFF_JOURNALS, orgs=ORGS, scheme=SCHEME)
    for keys in DIFF_SLICES:
        rows = aggregate(corpus, keys, tables, DIFF_TOP, with_top_decile=True)
        assert rows == aggregate_oracle(corpus, keys, tables, DIFF_TOP), keys


FULL_TABLES = BenchmarkTables(
    CitationBenchmarkTable("field", {c: BenchmarkCell(1, 3.0) for c in XCR_CELLS}),
    CitationBenchmarkTable("journal", {(y, j): BenchmarkCell(1, 2.0) for y in YEARS for j in ("J1", "J2", "J3")}),
)


def test_aggregate_exact_sums_beyond_int64_match_oracle():
    # Shares of 1/2 and 1/3 to A and its lab, 1/6 to B: on the org slice A's
    # citation numerator over the lcm 6 is 256 * 5 * (2**53 - 1), past 2**63.
    big = 2**53 - 1
    split = [att("A", "1/2"), att("A", "1/3", "A_L1"), att("B", "1/6", "B_S")]
    pubs = [
        pub(f"p{i:03d}", year=YEARS[i % 2], journal=("J1", "J2", "J3")[i % 3],
            fields=(["F1"], ["F1", "F3"], ["F2", "F3"])[i % 3], citations=big, attributions=split)
        for i in range(256)
    ]
    corpus = mk_corpus(pubs, journals=DIFF_JOURNALS, orgs=ORGS, scheme=SCHEME)
    org_a = aggregate(corpus, ("org",), FULL_TABLES, DIFF_TOP)[0]
    assert org_a.entity == (("org", "A"),) and org_a.weight_exact * 6 * big >= 2**63
    for keys in DIFF_SLICES:
        rows = aggregate(corpus, keys, FULL_TABLES, DIFF_TOP, with_top_decile=True)
        assert rows == aggregate_oracle(corpus, keys, FULL_TABLES, DIFF_TOP), keys


def record_columns(records) -> RecordColumns:
    """Columns by brute force from `PublicationRecord`s: each code column in
    order of first appearance of its values, compared by value."""
    records = list(records)

    def coded(values):
        index = {}
        codes = [index.setdefault(v, len(index)) for v in values]
        return np.array(codes, np.int32), tuple(index)

    year, years = coded(r.year for r in records)
    journal, journals = coded(r.journal_id for r in records)
    doc_type, doc_types = coded(r.doc_type for r in records)
    fields, field_tuples = coded(r.field_ids for r in records)
    addresses, address_lists = coded(r.addresses for r in records)
    attributions, attribution_tuples = coded(r.attributions for r in records)
    return RecordColumns(
        tuple(r.id for r in records), year, journal, doc_type, fields, addresses, attributions,
        np.array([r.citations for r in records], np.int64),
        years, journals, doc_types, field_tuples, address_lists, attribution_tuples,
    )


@given(records)
@settings(max_examples=40, deadline=None)
def test_reconciled_corpus_gets_its_own_columns(drawn):
    pubs = [
        pub(f"p{i:02d}", year=year, fields=fields, citations=cites, addresses=addresses)
        for i, (year, fields, cites, addresses) in enumerate(drawn)
    ]
    corpus = mk_corpus(pubs, journals=JOURNALS, orgs=ORGS, scheme=SCHEME)
    before = corpus.columns
    assert aggregate(corpus, ("org",), TABLES, NO_TOP) == []
    result = reconcile_corpus(corpus, compile_rules(io.StringIO(RULES), corpus.organizations)).corpus
    assert corpus.columns is before
    for keys in ORG_SLICES:
        rows = aggregate(result, keys, TABLES, NO_TOP, with_top_decile=True)
        assert rows == aggregate_oracle(result, keys, TABLES, NO_TOP), keys
    assert result.columns is not before
    # Reconciliation replaces the attribution column and shares every other one.
    for name in RecordColumns._fields:
        shared = getattr(result.columns, name) is getattr(before, name)
        assert shared == (name not in ("attributions", "attribution_tuples")), name
    assert_columns_equal(before, record_columns(corpus.records))
    assert_columns_equal(result.columns, record_columns(result.records))


def benchmark_oracle(corpus):
    """(year, field) and (year, journal) cells by brute force: count and
    `Fraction` mean of the citations, each as (n, mean.hex())."""
    fields, journals = {}, {}
    for rec in corpus.records:
        for f in rec.field_ids:
            fields.setdefault((rec.year, f), []).append(rec.citations)
        journals.setdefault((rec.year, rec.journal_id), []).append(rec.citations)
    return tuple(
        {k: (len(v), float(Fraction(sum(v), len(v))).hex()) for k, v in cells.items()} for cells in (fields, journals)
    )


def cells_of(table):
    return {k: (c.n, c.mean.hex()) for k, c in table.cells.items()}


@given(attributed_pubs())
@settings(max_examples=100, deadline=None)
def test_benchmarks_match_fraction_oracle(pubs):
    corpus = mk_corpus(pubs, journals=DIFF_JOURNALS, orgs=ORGS, scheme=SCHEME)
    assert (cells_of(compute_xcr(corpus)), cells_of(compute_jxcr(corpus))) == benchmark_oracle(corpus)


def test_benchmark_totals_beyond_int64_match_fraction_oracle():
    # 1,100 counts of 2**53 - 1 in the (2001, F1) and (2001, J1) cells total past 2**63.
    big = 2**53 - 1
    pubs = [pub(f"p{i:04d}", year=2001, fields=["F1", "F3"] if i % 2 else ["F1"], citations=big - i % 3)
            for i in range(1100)]
    pubs += [pub("q1", year=2002, journal="J2", fields=["F2", "F1"], citations=7),
             pub("q2", year=2002, journal="J2", fields=["F2"], citations=4)]
    corpus = mk_corpus(pubs, journals=DIFF_JOURNALS, orgs=ORGS, scheme=SCHEME)
    assert sum(rec.citations for rec in corpus.records if rec.year == 2001) >= 2**63
    assert (cells_of(compute_xcr(corpus)), cells_of(compute_jxcr(corpus))) == benchmark_oracle(corpus)


# Differential test of ingest's fast path: every line, good or bad, gives
# the records and diagnostics (text and order) of `validate_record` per
# line plus the duplicate-id and reference checks. Ids include trailing
# NULs and non-BMP characters, which pin Python's string order.

INGEST_ORGS = [("A", "Alpha", "U", None), ("A_L1", "Alpha Lab", "U", "A"), ("B", "Beta", "RI", None)]
INGEST_JOURNALS = [("J1", "Journal One", 1.0, ["F1"]), ("J2", "Journal Two", 2.0, ["F1", "F2"])]
INGEST_SCHEME = {"F1": "Physics", "F2": "Biology"}
_ABSENT = object()  # the key is left out of the line

# Per key: values that validate without and with a dangling reference, and values that do not.
GOOD_IDS = ["p1", "p2", "p1\x00", "p1\x00\x00", "p\U0001F600", "\U0001F600", "pé"]
CLEAN = {
    "id": GOOD_IDS,
    "year": [2001, 2002],
    "doc_type": ["article", "review", "proceedings"],
    "journal": ["J1", "J2"],
    "fields": [["F1"], ["F1", "F2"], ["F2", "F1"]],
    "citations": [0, 5, 2**53 - 1],
    "addresses": [[], ["Alpha"], ["Alpha", "Beta"], _ABSENT],
    "attributions": [
        _ABSENT, None, [], [att("A")], [att("A", "1/1")], [{"org": "A", "subunit": None, "weight": 1}],
        [{"org": "A", "weight": "1"}], [att("A", "1/2"), att("B", "1/2")], [att("A", "1", "A_L1")],
    ],
}
DANGLING = {
    "journal": ["GHOST"], "fields": [["NOFIELD"]],
    "attributions": [[att("GHOST")], [att("B", "1", "A_L1")], [att("A_L1")]],
}
BAD = {
    "id": ["", 1, None, _ABSENT],
    "year": [True, "2001", 2001.0, None, _ABSENT],
    "doc_type": ["thesis", 1, _ABSENT],
    "journal": ["", 3, _ABSENT],
    "fields": [[], ["F1", "F1"], ["F1", ""], [1], [["F1"]], "F1", None, _ABSENT],
    "citations": [2**53, 2**53 + 1, -1, True, False, 1.5, "3", None, _ABSENT],
    "addresses": [[1], [["Alpha"]], "Alpha", None],
    "attributions": [
        [att("A", "1/2")], [att("A", "0")], [{"org": "A", "subunit": None, "weight": True}],
        [{"org": "A", "subunit": None, "weight": ["1"]}], [{"org": ["A"], "weight": "1"}], ["A"], [1], "A",
    ],
}
RAW_LINES = ["{not json", "[1, 2]", "null", "{}", "   ", "", '{"id": "p9"} extra', "[" * 3000 + "]" * 3000]


@st.composite
def publication_lines(draw):
    """A JSONL text of drawn lines in a drawn key order. A clean text has
    unique ids and valid lines only; otherwise each value is bad or
    dangling with probability 1/8 each, ids repeat, and raw malformed
    lines, surrounding whitespace and a BOM occur."""
    clean = draw(st.booleans())
    ids = draw(st.permutations(GOOD_IDS + [f"q{i}" for i in range(12)]))
    lines = []
    for i in range(draw(st.integers(min_value=0, max_value=12))):
        if not clean and draw(st.integers(min_value=0, max_value=9)) == 0:
            lines.append(draw(st.sampled_from(RAW_LINES)))
            continue
        values = {}
        for key in draw(st.permutations(list(CLEAN))):
            kind = 0 if clean else draw(st.integers(min_value=0, max_value=7))
            pool = BAD[key] if kind == 1 else DANGLING.get(key, CLEAN[key]) if kind == 2 else CLEAN[key]
            values[key] = ids[i] if key == "id" and clean else draw(st.sampled_from(pool))
        text = json.dumps({k: v for k, v in values.items() if v is not _ABSENT})
        if not clean:
            text = draw(st.sampled_from(["", "", " ", "\ufeff"])) + text + draw(st.sampled_from(["", "", " ", "\r"]))
        lines.append(text)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def ingest_oracle(text: str):
    """`_read_columns` and `parse_corpus` by brute force: `json.loads`
    and `validate_record` per line, then the duplicate-id check, then the
    reference checks over the kept records. Returns the records in file
    order, the line diagnostics, and the reference diagnostics."""
    records, diagnostics, seen = [], [], set()
    for lineno, line in enumerate(io.StringIO(text), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            diagnostics.append(f"publications line {lineno}: malformed JSON ({exc.msg})")
            continue
        except RecursionError:
            diagnostics.append(f"publications line {lineno}: malformed JSON (nested too deeply)")
            continue
        if not isinstance(raw, dict):
            diagnostics.append(f"publications line {lineno}: expected an object")
            continue
        record, found = validate_record(raw)
        if found:
            diagnostics += [f"publications line {lineno} (record {raw.get('id', '?')}): {d}" for d in found]
        elif record.id in seen:
            diagnostics.append(f"publications line {lineno}: duplicate publication id {record.id!r}")
        else:
            seen.add(record.id)
            records.append(record)
    orgs = {oid: parent for oid, _, _, parent in INGEST_ORGS}
    fields = {f for r in records for f in r.field_ids} | {f for *_, fs in INGEST_JOURNALS for f in fs}
    atts = [a for r in records for a in r.attributions]
    dangling = (
        ("journal", {r.journal_id for r in records} - {j for j, *_ in INGEST_JOURNALS}),
        ("field", fields - set(INGEST_SCHEME)),
        ("organization", {a.org_id for a in atts if a.org_id not in orgs or orgs[a.org_id] is not None}
         | {a.subunit_id for a in atts if a.subunit_id is not None and orgs.get(a.subunit_id, "") != a.org_id}),
    )
    references = [f"dangling {what} reference(s): " + ", ".join(sorted(names)) for what, names in dangling if names]
    return records, diagnostics, references


def parse_text(text: str):
    return parse_corpus(
        io.StringIO(text),
        io.StringIO(journals_csv(INGEST_JOURNALS)),
        io.StringIO(orgs_csv(INGEST_ORGS)),
        io.StringIO(scheme_csv(INGEST_SCHEME)),
    )


@given(publication_lines())
@settings(max_examples=300, deadline=None)
def test_ingest_matches_validate_record_line_by_line(text):
    records, diagnostics, references = ingest_oracle(text)
    assert read_records(text) == (records, diagnostics)
    if diagnostics or references:
        with pytest.raises(CorpusValidationError) as exc:
            parse_text(text)
        assert exc.value.diagnostics == diagnostics + references
    else:
        corpus = parse_text(text)
        in_order = sorted(records, key=lambda r: r.id)
        assert corpus.records == tuple(in_order)
        assert_columns_equal(corpus.columns, record_columns(in_order))


def test_ingest_sorts_ids_in_python_string_order():
    ids = ["p1\x00", "p\U0001F600", "p1", "p\uffff", "p1\x00\x00", "\U0001F600", "p"]
    corpus = parse_text(jsonl([pub(i, journal="J1") for i in ids]))
    assert [r.id for r in corpus.records] == sorted(ids)
    assert corpus.columns.ids == tuple(sorted(ids))
    records = tuple(corpus.records)
    assert corpus.records[-1] == records[-1] and corpus.records[1:5:2] == records[1:5:2]
    with pytest.raises(IndexError):
        corpus.records[len(ids)]


def reparsed(text: str, journals=JOURNALS, orgs=ORGS, scheme=SCHEME):
    return parse_corpus(
        io.StringIO(text),
        io.StringIO(journals_csv(journals)),
        io.StringIO(orgs_csv(orgs)),
        io.StringIO(scheme_csv(scheme)),
    )


def written(corpus) -> str:
    buf = io.StringIO()
    write_publications_jsonl(corpus, buf)
    return buf.getvalue()


def dumped(corpus) -> str:
    """The writer's definition: each record, in id order, as `json.dumps` of its keys."""
    lines = []
    for r in corpus.records:
        raw = {"id": r.id, "year": r.year, "doc_type": r.doc_type.value, "journal": r.journal_id,
               "fields": list(r.field_ids), "citations": r.citations, "addresses": list(r.addresses)}
        if r.attributions:
            raw["attributions"] = [
                {"org": a.org_id, "subunit": a.subunit_id, "weight": f"{a.weight.numerator}/{a.weight.denominator}"}
                for a in r.attributions
            ]
        lines.append(json.dumps(raw) + "\n")
    return "".join(lines)


@given(records)
@settings(max_examples=60, deadline=None)
def test_write_parse_write_is_byte_identical(drawn):
    pubs = [
        pub(f"p{i:02d}", year=year, fields=fields, citations=cites, addresses=addresses)
        for i, (year, fields, cites, addresses) in enumerate(drawn)
    ]
    plain = mk_corpus(pubs, journals=JOURNALS, orgs=ORGS, scheme=SCHEME)
    attributed = reconcile_corpus(plain, compile_rules(io.StringIO(RULES), plain.organizations)).corpus
    for corpus in (plain, attributed):
        text = written(corpus)
        assert text == dumped(corpus)
        again = reparsed(text)
        assert written(again) == text
        assert_columns_equal(again.columns, corpus.columns)


@given(attributed_pubs())
@settings(max_examples=100, deadline=None)
def test_written_attributions_round_trip(pubs):
    corpus = mk_corpus(pubs, journals=DIFF_JOURNALS, orgs=ORGS, scheme=SCHEME)
    text = written(corpus)
    assert text == dumped(corpus)
    assert written(reparsed(text, DIFF_JOURNALS)) == text
    assert_columns_equal(corpus.columns, record_columns(corpus.records))


def assert_snapshot_loads_parsed_columns(corpus, journals=JOURNALS):
    """The snapshot of `corpus`'s JSONL loads the columns that parsing it gives,
    and `parse_corpus` gives the same corpus from either."""
    def parse(path):
        return parse_corpus(path, io.StringIO(journals_csv(journals)), io.StringIO(orgs_csv(ORGS)),
                            io.StringIO(scheme_csv(SCHEME)))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "publications.jsonl"
        write_publications_jsonl(corpus, path)
        write_snapshot(corpus, path)
        loaded, diagnostics = _load_snapshot(path)
        from_snapshot = parse(path).columns
        snapshot_path(path).unlink()
        assert _load_snapshot(path) is None
        parsed = parse(path).columns
    assert diagnostics == []
    assert_columns_equal(loaded, parsed)
    assert_columns_equal(from_snapshot, parsed)
    assert all(type(a.weight) is Fraction for t in loaded.attribution_tuples for a in t)


@given(records)
@settings(max_examples=60, deadline=None)
def test_snapshot_loads_parsed_columns(drawn):
    pubs = [
        pub(f"p{i:02d}", year=year, fields=fields, citations=cites, addresses=addresses)
        for i, (year, fields, cites, addresses) in enumerate(drawn)
    ]
    plain = mk_corpus(pubs, journals=JOURNALS, orgs=ORGS, scheme=SCHEME)
    assert_snapshot_loads_parsed_columns(plain)
    assert_snapshot_loads_parsed_columns(
        reconcile_corpus(plain, compile_rules(io.StringIO(RULES), plain.organizations)).corpus
    )


@given(attributed_pubs())
@settings(max_examples=100, deadline=None)
def test_snapshot_loads_parsed_attributions(pubs):
    assert_snapshot_loads_parsed_columns(mk_corpus(pubs, journals=DIFF_JOURNALS, orgs=ORGS, scheme=SCHEME),
                                         DIFF_JOURNALS)


def test_golden_fixture_columns_match_oracle():
    src = Path(__file__).parent / "golden" / "fixture" / "input"
    corpus = parse_corpus(src / "publications.jsonl", src / "journals.csv", src / "orgs.csv", src / "fields.csv")
    result = reconcile_corpus(corpus, compile_rules(src / "rules.tsv", corpus.organizations)).corpus
    assert any(result.columns.attribution_tuples)
    for found in (corpus, result):
        assert_columns_equal(found.columns, record_columns(found.records))
        assert written(found) == dumped(found)


def weights_oracle(corpus):
    """`org_type_discipline_weights` by brute force: one `Fraction` addition
    per record, attribution and discipline."""
    discipline = corpus.field_scheme.field_to_discipline
    w_td, w_d, w_t, total = {}, {}, {}, Fraction(0)
    for rec in corpus.records:
        for a in rec.attributions:
            org_type = corpus.organizations[a.org_id].org_type
            w_t[org_type] = w_t.get(org_type, Fraction(0)) + a.weight
            total += a.weight
            for d in {discipline[f] for f in rec.field_ids}:
                w_td[(org_type, d)] = w_td.get((org_type, d), Fraction(0)) + a.weight
                w_d[d] = w_d.get(d, Fraction(0)) + a.weight
    return w_td, w_d, w_t, total


@given(attributed_pubs())
@settings(max_examples=100, deadline=None)
def test_concentration_weights_match_oracle(pubs):
    corpus = mk_corpus(pubs, journals=DIFF_JOURNALS, orgs=ORGS, scheme=SCHEME)
    assert org_type_discipline_weights(corpus) == weights_oracle(corpus)


def test_concentration_table_matches_oracle_bit_for_bit_on_criterion_6_world(tmp_path):
    spec = build_world_spec(7301, n_fields=6, years=(2001, 2006), annual_volume=120, n_orgs=12, coauthor_rate=0.2)
    generated = generate_corpus(spec, tmp_path)
    corpus = parse_corpus(generated.publications, generated.journals, generated.orgs, generated.field_scheme)
    reconciled = reconcile_corpus(corpus, compile_rules(generated.rules, corpus.organizations)).corpus
    w_td, w_d, w_t, total = weights_oracle(reconciled)
    assert org_type_discipline_weights(reconciled) == (w_td, w_d, w_t, total)
    expected = {
        (t, d): float(concentration_index_from_shares(w_td.get((t, d), Fraction(0)) / w_d[d], w_t[t] / total)).hex()
        for d in w_d for t in w_t
    }
    assert len(expected) == 18
    assert {k: v.hex() for k, v in concentration_table(reconciled).items()} == expected
