"""Wrappers that the traced run installs around each layer's entry points.

Each entry point is replaced by name in every module that looks it up:
its own module, and the modules that call it (``cli`` calls
``parse_corpus``, ``reconcile_corpus``, ``aggregate`` ...; ``trends``
calls ``aggregate``). ``Corpus.with_attributions`` and
``UnmatchedReport.to_csv`` are replaced on their classes. Everything is
restored when the ``install`` block ends, and nothing here runs in the
timed (untraced) passes.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from fieldimpact import benchmarks, cli, corpus, indicators, reconcile, reporting, synth, trends

from tracing import Tracer, wrap


def slice_label(keys, with_top_decile=False, tag="") -> str:
    """``org,field`` -> ``org-field``; metric names allow no commas."""
    parts = ["-".join(keys)]
    if with_top_decile:
        parts.append("top_decile")
    if tag:
        parts.append(tag)
    return "-".join(parts)


def _parse_name(result, *args, **kwargs):
    attributed = any(rec.attributions for rec in result.records)
    return "corpus.parse_attr" if attributed else "corpus.parse"


def _count_parse(tr, result, publications, *args, **kwargs):
    data = Path(publications).read_bytes()
    tr.add("corpus.records_in", data.count(b"\n"))
    tr.add("corpus.bytes_in", len(data))
    tr.add("corpus.records_out", len(result.records))


def _count_compile(tr, ruleset, *args, **kwargs):
    tr.set("reconcile.rules", len(ruleset.rules))
    tr.set("reconcile.conflicts", len(ruleset.conflicts))


def _reconcile_name(result, corpus_, rules, threads=1):
    return "reconcile.reconcile" if threads == 1 else f"reconcile.reconcile#t{threads}"


def _count_reconcile(tr, result, corpus_, rules, threads=1):
    raw = {a for rec in corpus_.records for a in rec.addresses}
    distinct = len({n for n in map(reconcile.normalize_address, raw) if n})
    total = result.stats.total_addresses
    tr.set("reconcile.addresses", total)
    tr.set("reconcile.distinct_addresses", distinct)
    tr.set("reconcile.match_rate", result.stats.match_rate)
    tr.set("reconcile.memo_hit_ratio", 1 - distinct / total if total else 0.0)


def _count_tables(tr, result, *args, **kwargs):
    tables = [result.xcr, result.jxcr] if hasattr(result, "xcr") else [result]
    for table in tables:
        kind = "xcr" if table.kind == "field" else "jxcr"
        tr.set(f"benchmarks.{kind}_cells", len(table.cells))


def _count_growth(tr, result, *args, **kwargs):
    tr.add("trends.stats", 1)


def _count_aggregate(tr, rows, corpus_, slice_spec, *args, with_top_decile=False, **kwargs):
    label = slice_label(slice_spec, with_top_decile, tr.tag)
    tr.set(f"indicators.rows.{label}", len(rows))
    tr.set(f"indicators.excluded.{label}", sum(row.n_excluded for row in rows))


def _cli_name(result, argv):
    return "cli." + argv[0]


@contextmanager
def install(tr: Tracer):
    """Replace every traced entry point for the duration of the block."""

    def aggregate_name(result, corpus_, slice_spec, *args, with_top_decile=False, **kwargs):
        return "indicators.aggregate#" + slice_label(slice_spec, with_top_decile, tr.tag)

    # (owner of the original, attribute, span name, counter, other lookups)
    table = [
        (corpus, "parse_corpus", _parse_name, _count_parse, [cli]),
        (corpus, "write_publications_jsonl", "corpus.write", None, [cli]),
        (reconcile, "compile_rules", "reconcile.compile", _count_compile, [cli]),
        (reconcile, "reconcile_corpus", _reconcile_name, _count_reconcile, [cli]),
        (corpus.Corpus, "with_attributions", "reconcile.with_attributions", None, []),
        (reconcile.UnmatchedReport, "to_csv", "reconcile.unmatched_csv", None, []),
        (benchmarks, "compute_benchmarks", "benchmarks.compute", _count_tables, []),
        (benchmarks, "compute_xcr", "benchmarks.compute", _count_tables, [cli]),
        (benchmarks, "compute_jxcr", "benchmarks.compute", _count_tables, [cli]),
        (benchmarks, "classify_top_journals", "benchmarks.top", None, [cli]),
        (benchmarks, "export_benchmark_csv", "benchmarks.csv_roundtrip", None, [cli]),
        (benchmarks, "load_benchmark_csv", "benchmarks.csv_roundtrip", None, [cli]),
        (benchmarks, "export_top_journals_csv", "benchmarks.csv_roundtrip", None, [cli]),
        (indicators, "aggregate", aggregate_name, _count_aggregate, [cli, trends]),
        (indicators, "write_indicator_csv", "indicators.write", None, [cli]),
        (indicators, "write_indicator_json", "indicators.write", None, [cli]),
        (trends, "annual_series", "trends.series", None, [cli]),
        (trends, "series_growth", "trends.growth", _count_growth, [cli]),
        (reporting, "rank", "reporting.rank", None, [cli]),
        (reporting, "emit", "reporting.emit", None, [cli]),
        (cli, "dispatch", _cli_name, None, []),
        (synth, "generate_corpus", "synth.generate", None, []),
    ]
    saved = []
    try:
        for owner, attr, name, count, callers in table:
            original = getattr(owner, attr, None)
            if original is None:
                continue  # entry point gone: its metrics read 0
            wrapper = wrap(tr, original, name, count)
            for target in [owner, *callers]:
                if getattr(target, attr, None) is original:
                    saved.append((target, attr, original))
                    setattr(target, attr, wrapper)
        yield
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)
