"""Command-line entry point orchestrating the analytics pipeline.

Exit codes: 0 success, 1 validation/data failure, 2 usage error. All
diagnostics go to standard error; data goes to files or standard output.
Options may come from a JSON config file (--config); flags win over
config values. Every subcommand is re-runnable: identical inputs yield
identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .benchmarks import (
    BenchmarkTables,
    classify_top_journals,
    compute_jxcr,
    compute_xcr,
    export_benchmark_csv,
    export_top_journals_csv,
    load_benchmark_csv,
    load_top_journals_csv,
)
from .corpus import (
    Corpus,
    CorpusError,
    CorpusValidationError,
    parse_corpus,
    write_publications_jsonl,
    write_snapshot,
)
from .indicators import (
    _ORG_KEYS,
    SLICE_KEYS,
    IndicatorError,
    _validate_slice,
    aggregate,
    write_indicator_csv,
    write_indicator_json,
)
from .reconcile import compile_rules, reconcile_corpus
from .reporting import FORMATS, RankingSpec, ReportError, default_filename, emit, rank, render
from .synth import DEFAULT_DEMO_SEED, distortion_demo, generate_corpus, load_spec
from .trends import GROWTH_METRICS, GrowthError, annual_series, series_growth, write_trend_csv

OUT_DIR_ENV = "FIELDIMPACT_OUT_DIR"

_GROUP_BY = ("org", "subunit")


class UsageError(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    config = {}
    if getattr(args, "config", None):
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return 2
        unknown = sorted(set(config) - _option_dests(parser))
        if unknown:
            print(f"usage error: unknown config key(s): {', '.join(map(repr, unknown))}", file=sys.stderr)
            return 2
    try:
        _check_threads(args, config)
        return args.handler(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CorpusValidationError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        print(f"validation failed: {len(exc.diagnostics)} diagnostic(s)", file=sys.stderr)
        return 1
    except (CorpusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldimpact",
        description="Field-standardized citation impact analytics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def corpus_opts(p):
        p.add_argument("--pubs", help="publications JSONL")
        p.add_argument("--journals", help="journals CSV")
        p.add_argument("--orgs", help="organizations CSV")
        p.add_argument("--fields", help="field scheme CSV")
        p.add_argument("--census-date", dest="census_date", help="ISO census date metadata")

    def common_opts(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out-dir", dest="out_dir", help=f"output directory (or ${OUT_DIR_ENV})")
        p.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")

    def benchmark_opts(p):
        p.add_argument("--xcr-csv", dest="xcr_csv", help="import field benchmarks instead of computing")
        p.add_argument("--jxcr-csv", dest="jxcr_csv", help="import journal benchmarks instead of computing")
        p.add_argument("--top-csv", dest="top_csv", help="import the top-journal set instead of computing")
        p.add_argument("--fraction", type=float, help="top-journal decile fraction (default 0.10)")

    p = sub.add_parser("validate", help="ingest and validate the corpus files")
    corpus_opts(p)
    common_opts(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("reconcile", help="attribute records to organizations via a rule file")
    corpus_opts(p)
    common_opts(p)
    p.add_argument("--rules", help="rule file (PATTERN<TAB>ORG_ID[<TAB>SUBUNIT_ID])")
    p.set_defaults(handler=_cmd_reconcile)

    p = sub.add_parser("benchmark", help="compute benchmark tables and the top-journal set")
    corpus_opts(p)
    common_opts(p)
    p.add_argument("--fraction", type=float, help="top-journal decile fraction (default 0.10)")
    p.set_defaults(handler=_cmd_benchmark)

    p = sub.add_parser("indicators", help="aggregate standardized impacts over a slice")
    corpus_opts(p)
    common_opts(p)
    benchmark_opts(p)
    p.add_argument("--rules", help="rule file, required for organizational slices")
    p.add_argument("--slice", dest="slice_spec", help=f"comma-separated keys from {','.join(SLICE_KEYS)}")
    p.set_defaults(handler=_cmd_indicators)

    p = sub.add_parser("rank", help="ranked organization table with a minimum-weight threshold")
    corpus_opts(p)
    common_opts(p)
    benchmark_opts(p)
    p.add_argument("--rules", help="rule file, required unless records carry attributions")
    p.add_argument("--group-by", dest="group_by", choices=_GROUP_BY, help="ranked entity (default org)")
    p.add_argument("--discipline", help="restrict to one discipline")
    p.add_argument("--field", dest="field_filter", help="restrict to one field")
    p.add_argument("--metric", help="rank metric (default mean_cx)")
    p.add_argument("--min-weight", dest="min_weight", type=float, help="minimum publication weight (default 50)")
    p.add_argument("--limit", type=int, help="number of rows (default 10)")
    p.add_argument("--format", dest="fmt", choices=FORMATS, help="output format (default csv)")
    p.add_argument("--out", help="output file, '-' for standard output")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("trend", help="per-year series and average annual increases")
    corpus_opts(p)
    common_opts(p)
    benchmark_opts(p)
    p.add_argument("--rules", help="rule file, required for organizational slices")
    p.add_argument("--slice", dest="slice_spec", help="entity keys, e.g. 'discipline' (year is implicit)")
    p.add_argument("--metrics", help="comma-separated growth metrics (default mean_cx)")
    p.add_argument("--unstable-floor", dest="unstable_floor", type=float,
                   help="flag growth when the first percent value is below this floor")
    p.set_defaults(handler=_cmd_trend)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    common_opts(p)
    p.add_argument("--spec", help="synth spec JSON file")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("demo-distortion", help="show ranking distortion without field standardization")
    common_opts(p)
    p.add_argument("--seed", type=int, help="RNG seed (fixed default)")
    p.add_argument("--format", dest="fmt", choices=FORMATS, help="table format (default markdown)")
    p.set_defaults(handler=_cmd_demo)

    return parser


def _option_dests(parser: argparse.ArgumentParser) -> set[str]:
    """The keys a config may set: every option of every subcommand, so one
    config can serve a whole chain."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for p in sub.choices.values() for a in p._actions if a.option_strings} - {"help"}


def _finite(value) -> float:
    """A finite float; bools are rejected, as `_integer` rejects them."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {value!r}")
    return number


def _integer(value) -> int:
    """An int, or a float with an integral value; bools and fractions are rejected."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _choice(choices: tuple[str, ...]):
    """A converter that accepts only `choices`, as argparse does for the flag
    (`index` raises ValueError for any other value)."""
    return lambda value: choices[choices.index(value)]


def _opt(args, config, key, default=None, convert=str):
    """A flag's value, else the config's, else the default, passed through
    `convert`; a value that does not convert is a usage error."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    if value is None:
        return None
    try:
        return convert(value)
    except (ValueError, TypeError):
        raise UsageError(f"invalid value for {key}: {value!r}") from None


def _req(args, config, key, flag: str):
    value = _opt(args, config, key)
    if value is None:
        raise UsageError(f"missing required option {flag}")
    return value


def _in_path(value: str, what: str) -> Path:
    path = Path(value)
    if not path.exists():
        raise UsageError(f"{what} does not exist: {path}")
    return path


def _out_dir(args, config) -> Path:
    value = _opt(args, config, "out_dir") or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_corpus(args, config) -> Corpus:
    return parse_corpus(
        _in_path(_req(args, config, "pubs", "--pubs"), "--pubs"),
        _in_path(_req(args, config, "journals", "--journals"), "--journals"),
        _in_path(_req(args, config, "orgs", "--orgs"), "--orgs"),
        _in_path(_req(args, config, "fields", "--fields"), "--fields"),
        census_date=_opt(args, config, "census_date"),
    )


def _fraction(args, config) -> float:
    fraction = _opt(args, config, "fraction", 0.10, _finite)
    if not 0 < fraction <= 1:
        raise UsageError(f"--fraction must be in (0, 1], got {fraction}")
    return fraction


def _check_threads(args, config) -> None:
    """--threads has no effect, but below 1 it is a usage error for every command."""
    if _opt(args, config, "threads", 1, _integer) < 1:
        raise UsageError("--threads must be >= 1")


def _apply_rules(corpus: Corpus, rules_path: str):
    """Compile the rule file, report its warnings and conflicts on stderr, and reconcile."""
    rules = compile_rules(_in_path(rules_path, "--rules"), corpus.organizations)
    for warning in rules.warnings:
        print(warning, file=sys.stderr)
    for conflict in rules.conflicts:
        print(
            "rule conflict: "
            f"line {conflict.first.source_line} ({conflict.first.pattern!r}) vs "
            f"line {conflict.second.source_line} ({conflict.second.pattern!r})",
            file=sys.stderr,
        )
    return reconcile_corpus(corpus, rules)


def _analysis_inputs(args, config, keys: tuple[str, ...]):
    """The corpus, benchmark tables and top-journal set for an analysis over
    `keys`; an organizational key needs --rules or records with attributions."""
    rules_path = _opt(args, config, "rules")
    organizational = any(k in _ORG_KEYS for k in keys)
    if rules_path and not organizational:
        print(f"warning: --rules ignored: slice {','.join(keys)!r} has no organizational key", file=sys.stderr)
    top_csv = _opt(args, config, "top_csv")
    fraction = _fraction(args, config)
    if top_csv and _opt(args, config, "fraction") is not None:
        print("warning: --fraction ignored: --top-csv given", file=sys.stderr)
    corpus = _load_corpus(args, config)
    if organizational:
        if rules_path:
            corpus = _apply_rules(corpus, rules_path).corpus
        elif not any(corpus.columns.attribution_tuples):
            raise UsageError("organizational analysis needs --rules or records with attributions")
    xcr_csv = _opt(args, config, "xcr_csv")
    jxcr_csv = _opt(args, config, "jxcr_csv")
    xcr = load_benchmark_csv(_in_path(xcr_csv, "--xcr-csv"), "field") if xcr_csv else compute_xcr(corpus)
    jxcr = load_benchmark_csv(_in_path(jxcr_csv, "--jxcr-csv"), "journal") if jxcr_csv else compute_jxcr(corpus)
    if top_csv:
        top_set = load_top_journals_csv(_in_path(top_csv, "--top-csv"))
    else:
        top_set = classify_top_journals(corpus.journals, corpus.field_scheme, fraction)
    return corpus, BenchmarkTables(xcr, jxcr), top_set


def _cmd_validate(args, config) -> int:
    corpus = _load_corpus(args, config)
    summary = corpus.summary()
    print(f"{summary.n_records} records, 0 diagnostics")
    return 0


def _cmd_reconcile(args, config) -> int:
    result = _apply_rules(_load_corpus(args, config), _req(args, config, "rules", "--rules"))
    out = _out_dir(args, config)
    reconciled_path = out / "publications.reconciled.jsonl"
    write_publications_jsonl(result.corpus, reconciled_path)
    snapshot = write_snapshot(result.corpus, reconciled_path)
    unmatched_path = out / "unmatched.csv"
    result.unmatched.to_csv(unmatched_path)
    stats = result.stats
    print(
        f"match rate {100 * stats.match_rate:.1f}%: "
        f"{stats.matched_addresses}/{stats.total_addresses} addresses, "
        f"{stats.n_attributed}/{stats.n_records} records attributed"
    )
    print(f"wrote {reconciled_path}, its snapshot {snapshot.name} and {unmatched_path}", file=sys.stderr)
    return 0


def _cmd_benchmark(args, config) -> int:
    fraction = _fraction(args, config)
    corpus = _load_corpus(args, config)
    out = _out_dir(args, config)
    xcr = compute_xcr(corpus)
    jxcr = compute_jxcr(corpus)
    top_set = classify_top_journals(corpus.journals, corpus.field_scheme, fraction)
    export_benchmark_csv(xcr, out / "xcr.csv")
    export_benchmark_csv(jxcr, out / "jxcr.csv")
    export_top_journals_csv(top_set, out / "top_journals.csv")
    print(
        f"wrote {out / 'xcr.csv'} ({len(xcr.cells)} cells), "
        f"{out / 'jxcr.csv'} ({len(jxcr.cells)} cells), "
        f"{out / 'top_journals.csv'}",
        file=sys.stderr,
    )
    return 0


def _parse_slice(raw: str) -> tuple[str, ...]:
    try:
        return _validate_slice([k.strip() for k in raw.split(",") if k.strip()])
    except IndicatorError as exc:
        raise UsageError(f"--slice: {exc}") from None


def _cmd_indicators(args, config) -> int:
    keys = _parse_slice(_opt(args, config, "slice_spec", "nation"))
    corpus, benchmarks, top_set = _analysis_inputs(args, config, keys)
    rows = aggregate(corpus, keys, benchmarks, top_set)
    out = _out_dir(args, config)
    stem = "indicators_" + "_".join(keys)
    write_indicator_csv(rows, out / f"{stem}.csv", keys=keys)
    write_indicator_json(rows, out / f"{stem}.json", keys=keys)
    print(f"wrote {out / (stem + '.csv')} and {out / (stem + '.json')} ({len(rows)} rows)", file=sys.stderr)
    return 0


def _cmd_rank(args, config) -> int:
    group_by = _opt(args, config, "group_by", "org", _choice(_GROUP_BY))
    metric = _opt(args, config, "metric", "mean_cx")
    min_weight = _opt(args, config, "min_weight", 50.0, _finite)
    limit = _opt(args, config, "limit", 10, _integer)
    fmt = _opt(args, config, "fmt", "csv", _choice(FORMATS))
    discipline = _opt(args, config, "discipline")
    field_filter = _opt(args, config, "field_filter")
    if discipline and field_filter:
        raise UsageError("--discipline and --field are mutually exclusive")
    # The one slice key the ranking is restricted to, and its value.
    within = ("discipline", discipline) if discipline else ("field", field_filter) if field_filter else ()
    slice_label = group_by + (f"_{within[1]}" if within else "")
    try:
        spec = RankingSpec(slice_label=slice_label, rank_metric=metric, min_weight=min_weight, limit=limit)
    except ReportError as exc:
        raise UsageError(str(exc)) from None

    keys = (group_by, within[0]) if within else (group_by,)
    corpus, benchmarks, top_set = _analysis_inputs(args, config, keys)
    scheme = corpus.field_scheme
    if within and within[1] not in (scheme.field_to_discipline.values() if discipline else scheme):
        raise UsageError(f"--{within[0]} {within[1]!r} is not a {within[0]} of the field scheme")
    rows = aggregate(
        corpus, keys, benchmarks, top_set, with_top_decile=metric == "top_decile_mean_cx"
    )
    if within:
        # The within key is the slice's last: keep its value's rows, without it.
        rows = [dataclasses.replace(row, entity=row.entity[:-1]) for row in rows if row.entity[-1][1] == within[1]]

    table = rank(rows, spec)
    out_opt = _opt(args, config, "out")
    if out_opt == "-":
        emit(table, fmt, sys.stdout)
    else:
        destination = Path(out_opt) if out_opt else _out_dir(args, config) / default_filename(
            slice_label, metric, fmt
        )
        emit(table, fmt, destination)
        print(f"wrote {destination} ({len(table.rows)} rows)", file=sys.stderr)
    return 0


def _cmd_trend(args, config) -> int:
    keys = _parse_slice(_opt(args, config, "slice_spec", "nation"))
    if "year" in keys:
        raise UsageError("--slice must not include 'year' (it is implicit)")
    raw_metrics = _opt(args, config, "metrics", "mean_cx")
    metrics = tuple(m.strip() for m in raw_metrics.split(",") if m.strip())
    if not metrics or not set(metrics) <= set(GROWTH_METRICS):
        raise UsageError(f"--metrics: expected one or more of {GROWTH_METRICS}, got {raw_metrics!r}")
    floor = _opt(args, config, "unstable_floor", convert=_finite)
    corpus, benchmarks, top_set = _analysis_inputs(args, config, keys)
    series = annual_series(corpus, keys, benchmarks, top_set)
    stats = []
    for s in series:
        for metric in metrics:
            try:
                stats.append(series_growth(s, metric, floor))
            except GrowthError as exc:
                print(f"skipped {s.entity_id() or 'all'}/{metric}: {exc}", file=sys.stderr)
    out = _out_dir(args, config)
    path = out / ("trend_" + "_".join(keys) + ".csv")
    write_trend_csv(stats, path, keys=keys)
    print(f"wrote {path} ({len(stats)} rows)", file=sys.stderr)
    return 0


def _cmd_synth(args, config) -> int:
    spec = load_spec(_in_path(_req(args, config, "spec", "--spec"), "--spec"))
    generated = generate_corpus(spec, _out_dir(args, config))
    print(
        f"wrote {generated.n_publications} publications to {generated.out_dir} "
        f"(seed {spec.seed}, generator recorded in {generated.meta.name})",
        file=sys.stderr,
    )
    return 0


def _cmd_demo(args, config) -> int:
    fmt = _opt(args, config, "fmt", "markdown", _choice(FORMATS))
    seed = _opt(args, config, "seed", DEFAULT_DEMO_SEED, _integer)
    report = distortion_demo(seed, _out_dir(args, config) if _opt(args, config, "out_dir") else None)
    print("Ranking by raw citations per publication:")
    print(render(report.raw_ranking, fmt))
    print("Ranking by field-standardized impact:")
    print(render(report.standardized_ranking, fmt))
    for line in report.summary_lines():
        print(line)
    if not report.passed:
        print("distortion demo assertions failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
