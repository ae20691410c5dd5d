"""Property tests over reconciliation, organizational slices, record
order, benchmark CSV round trips, and `aggregate` and the benchmark
tables against brute-force oracles.

Worlds are small: a handful of records whose addresses mix org-level,
sub-unit and unmatched phrases, matched by a fixed rule file.
"""

import io
import math
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
    compute_jxcr,
    compute_xcr,
    export_benchmark_csv,
    load_benchmark_csv,
)
from fieldimpact.columns import record_columns
from fieldimpact.corpus import parse_corpus, write_publications_jsonl
from fieldimpact.indicators import IndicatorRow, aggregate, write_indicator_csv, write_indicator_json
from fieldimpact.reconcile import compile_rules, reconcile_corpus
from fieldimpact.reporting import RankingSpec, emit, rank

from conftest import att, journals_csv, mk_corpus, orgs_csv, pub, scheme_csv

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


# Differential test of `aggregate` against a brute-force oracle: multi-field
# records over two disciplines and three document types, sub-unit shares of
# 1/2, 1/3 and 1/6, unattributed records, and an xcr table missing one cell
# with another degenerate. J3 is a top journal without a jxcr cell.

TARGETS = (("A", None), ("A", "A_L1"), ("A", "A_L2"), ("B", None), ("B", "B_S"), ("C", None))
SPLITS = ((), ("1",), ("1/2", "1/2"), ("1/3", "1/3", "1/3"), ("1/2", "1/3", "1/6"))
DIFF_JOURNALS = [(j, f"Journal {j}", 1.0, sorted(SCHEME)) for j in ("J1", "J2", "J3")]
DIFF_TOP = TopJournalSet({"F1": frozenset({"J1"}), "F2": frozenset({"J3"}), "F3": frozenset({"J2"})})
DIFF_SLICES = (
    ("nation",), ("org",), ("org_type",), ("subunit",),
    ("org", "field"), ("org_type", "discipline"), ("discipline", "year"),
    ("year",), ("doc_type",), ("field",), ("field", "year"), ("org", "doc_type"), ("subunit", "year"),
)
XCR_CELLS = [(y, f) for y in YEARS for f in sorted(SCHEME)]


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
    jxcr = {(y, j): BenchmarkCell(1, m) for y in YEARS for j, m in (("J1", 2.0), ("J2", 0.75))}
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
        jcell = tables.jxcr.get(rec.year, rec.journal_id)
        cjx = rec.citations / jcell.mean if jcell is not None and jcell.mean != 0 else None
        is_top = any(rec.journal_id in top.by_field.get(f, ()) for f in rec.field_ids)
        for ctx, fields in contexts:
            cells = [tables.xcr.get(rec.year, f) for f in fields]
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


@given(records)
@settings(max_examples=40, deadline=None)
def test_reconciled_corpus_gets_its_own_columns(drawn):
    pubs = [
        pub(f"p{i:02d}", year=year, fields=fields, citations=cites, addresses=addresses)
        for i, (year, fields, cites, addresses) in enumerate(drawn)
    ]
    corpus = mk_corpus(pubs, journals=JOURNALS, orgs=ORGS, scheme=SCHEME)
    before = record_columns(corpus)
    assert aggregate(corpus, ("org",), TABLES, NO_TOP) == []
    result = reconcile_corpus(corpus, compile_rules(io.StringIO(RULES), corpus.organizations)).corpus
    assert record_columns(corpus) is before
    for keys in ORG_SLICES:
        rows = aggregate(result, keys, TABLES, NO_TOP, with_top_decile=True)
        assert rows == aggregate_oracle(result, keys, TABLES, NO_TOP), keys
    assert record_columns(result) is not before


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
