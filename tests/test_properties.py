"""Property tests over reconciliation, organizational slices, record
order and benchmark CSV round trips.

Worlds are small: a handful of records whose addresses mix org-level,
sub-unit and unmatched phrases, matched by a fixed rule file.
"""

import io
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fieldimpact.benchmarks import (
    BenchmarkCell,
    BenchmarkTables,
    CitationBenchmarkTable,
    TopJournalSet,
    classify_top_journals,
    compute_benchmarks,
    export_benchmark_csv,
    load_benchmark_csv,
)
from fieldimpact.corpus import parse_corpus, write_publications_jsonl
from fieldimpact.indicators import aggregate, write_indicator_csv, write_indicator_json
from fieldimpact.reconcile import compile_rules, reconcile_corpus
from fieldimpact.reporting import RankingSpec, emit, rank

from conftest import journals_csv, mk_corpus, orgs_csv, pub, scheme_csv

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
SCHEME = {"F1": "Physics", "F2": "Physics", "F3": "Biology"}
YEARS = (2001, 2002)
JOURNALS = [("J1", "Journal One", 1.0, sorted(SCHEME))]
# Every (year, field) cell exists and is positive, so no context is excluded.
TABLES = BenchmarkTables(
    CitationBenchmarkTable("field", {(y, f): BenchmarkCell(1, 2.0) for y in YEARS for f in SCHEME}),
    CitationBenchmarkTable("journal", {(y, "J1"): BenchmarkCell(1, 2.0) for y in YEARS}),
)
NO_TOP = TopJournalSet({}, 0.10)
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
benchmark_cells = st.dictionaries(
    st.tuples(st.integers(min_value=1900, max_value=2100), benchmark_keys),
    st.builds(
        BenchmarkCell,
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    ),
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
