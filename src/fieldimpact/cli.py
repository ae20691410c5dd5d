"""Command-line entry point orchestrating the analytics pipeline.

Exit codes: 0 success, 1 validation/data failure, 2 usage error. All
diagnostics go to standard error; data goes to files or standard output.
Every subcommand is re-runnable: identical inputs yield identical outputs.

Each option is one row of `_OPTIONS`. `dispatch` resolves a subcommand's
options in `_resolve` before its handler runs: flag over --config value
over default, both through the option's one converter, with every check
that needs no input (required options, input files) done there.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

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
    _ingest,
    _write_input_snapshot,
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


class UsageError(Exception):
    pass


def _text(value) -> str:
    """A string: a flag's value always is one, a config's value need not be."""
    if not isinstance(value, str):
        raise TypeError(f"not a string: {value!r}")
    return value


def _path(value) -> Path | None:
    """An input file's path; an empty value names no file."""
    return Path(value) if _text(value) else None


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
    """A converter that accepts only `choices` (`index` raises ValueError for any other value)."""
    return lambda value: choices[choices.index(value)]


def _threads(value) -> int:
    """--threads has no effect, but below 1 it is a usage error for every command."""
    threads = _integer(value)
    if threads < 1:
        raise UsageError("--threads must be >= 1")
    return threads


def _fraction(value) -> float:
    fraction = _finite(value)
    if not 0 < fraction <= 1:
        raise UsageError(f"--fraction must be in (0, 1], got {fraction}")
    return fraction


def _slice(value) -> tuple[str, ...]:
    try:
        return _validate_slice([k.strip() for k in _text(value).split(",") if k.strip()])
    except IndicatorError as exc:
        raise UsageError(f"--slice: {exc}") from None


def _metrics(value) -> tuple[str, ...]:
    metrics = tuple(m.strip() for m in _text(value).split(",") if m.strip())
    if not metrics or not set(metrics) <= set(GROWTH_METRICS):
        raise UsageError(f"--metrics: expected one or more of {GROWTH_METRICS}, got {value!r}")
    return metrics


class _Option(NamedTuple):
    flag: str
    dest: str
    convert: Callable[[object], object]
    default: object
    help: str


_OPTIONS = {option.dest: option for option in (
    _Option("--pubs", "pubs", _path, None, "publications JSONL"),
    _Option("--journals", "journals", _path, None, "journals CSV"),
    _Option("--orgs", "orgs", _path, None, "organizations CSV"),
    _Option("--fields", "fields", _path, None, "field scheme CSV"),
    _Option("--config", "config", _text, None, "JSON config file; flags override its values"),
    _Option("--out-dir", "out_dir", _text, None, f"output directory (or ${OUT_DIR_ENV})"),
    _Option("--threads", "threads", _threads, 1, "accepted for compatibility; has no effect"),
    _Option("--xcr-csv", "xcr_csv", _path, None, "import field benchmarks instead of computing"),
    _Option("--jxcr-csv", "jxcr_csv", _path, None, "import journal benchmarks instead of computing"),
    _Option("--top-csv", "top_csv", _path, None, "import the top-journal set instead of computing"),
    _Option("--fraction", "fraction", _fraction, 0.10, "top-journal decile fraction"),
    _Option("--rules", "rules", _path, None, "rule file, read by reconcile and for an organizational slice"),
    _Option("--slice", "slice_spec", _slice, "nation", f"comma-separated keys from {','.join(SLICE_KEYS)}"),
    _Option("--group-by", "group_by", _choice(("org", "subunit")), "org", "ranked entity, org or subunit"),
    _Option("--discipline", "discipline", _text, None, "restrict to one discipline"),
    _Option("--field", "field_filter", _text, None, "restrict to one field"),
    _Option("--metric", "metric", _text, "mean_cx", "rank metric"),
    _Option("--min-weight", "min_weight", _finite, 50.0, "minimum publication weight"),
    _Option("--limit", "limit", _integer, 10, "number of rows"),
    _Option("--format", "fmt", _choice(FORMATS), "csv", f"output format, one of {','.join(FORMATS)}"),
    _Option("--out", "out", _text, None, "output file, '-' for standard output"),
    _Option("--metrics", "metrics", _metrics, "mean_cx", "comma-separated growth metrics"),
    _Option("--unstable-floor", "unstable_floor", _finite, None,
            "flag growth when the first percent value is below this floor"),
    _Option("--spec", "spec", _path, None, "synth spec JSON file"),
    _Option("--seed", "seed", _integer, DEFAULT_DEMO_SEED, "RNG seed"),
)}


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], int]
    help: str
    required: tuple[str, ...]
    optional: tuple[str, ...]
    check: Callable[[argparse.Namespace], object] | None = None  # how its options combine
    defaults: Mapping[str, object] = {}  # where the command's default is not the option's


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return 2
        # Any subcommand's option is accepted, so one config can serve a whole chain.
        unknown = sorted(set(config) - set(_OPTIONS))
        if unknown:
            print(f"usage error: unknown config key(s): {', '.join(map(repr, unknown))}", file=sys.stderr)
            return 2
    try:
        return _COMMANDS[args.command].handler(_resolve(args.command, args, config))
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
    """Every subcommand's flags, from `_OPTIONS`; each value stays the string given."""
    parser = argparse.ArgumentParser(
        prog="fieldimpact",
        description="Field-standardized citation impact analytics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest in command.required + command.optional:
            option = _OPTIONS[dest]
            default = command.defaults.get(dest, option.default)
            p.add_argument(option.flag, dest=dest,
                           help=option.help if default is None else f"{option.help} (default {default})")
    return parser


def _resolve(name: str, args: argparse.Namespace, config: dict) -> argparse.Namespace:
    """Command `name`'s options, each flag else config value else default through its converter,
    with every check that needs no input done; an ignored option resolves to None, with a warning."""
    command = _COMMANDS[name]
    dests = command.required + command.optional
    resolved = argparse.Namespace()
    given = set()
    for dest in dests:
        option = _OPTIONS[dest]
        value = getattr(args, dest)
        if value is None:
            value = config.get(dest)
        if value is None:
            value = command.defaults.get(dest, option.default)
        else:
            given.add(dest)
        try:
            setattr(resolved, dest, None if value is None else option.convert(value))
        except (ValueError, TypeError):
            raise UsageError(f"invalid value for {dest}: {value!r}") from None
    for dest in command.required:
        if getattr(resolved, dest) is None:
            raise UsageError(f"missing required option {_OPTIONS[dest].flag}")
    if command.check:
        command.check(resolved)
    # reconcile and rank always attribute; indicators and trend only on an organizational slice.
    keys = getattr(resolved, "slice_spec", _ORG_KEYS)
    rules_ignored = getattr(resolved, "rules", None) is not None and not any(k in _ORG_KEYS for k in keys)
    if rules_ignored:
        resolved.rules = None
    for dest in dests:
        path = getattr(resolved, dest)
        if _OPTIONS[dest].convert is _path and path is not None and not path.exists():
            raise UsageError(f"{_OPTIONS[dest].flag} does not exist: {path}")
    if rules_ignored:
        print(f"warning: --rules ignored: slice {','.join(keys)!r} has no organizational key", file=sys.stderr)
    if "fraction" in given and getattr(resolved, "top_csv", None):
        print("warning: --fraction ignored: --top-csv given", file=sys.stderr)
    return resolved


def _out_path(ns: argparse.Namespace) -> Path:
    """The output directory, which may not exist yet; commands also look there for a raw input's snapshot."""
    return Path(ns.out_dir or os.environ.get(OUT_DIR_ENV) or ".")


def _out_dir(ns: argparse.Namespace) -> Path:
    path = _out_path(ns)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse(ns: argparse.Namespace) -> Corpus:
    return parse_corpus(ns.pubs, ns.journals, ns.orgs, ns.fields, snapshot_dir=_out_path(ns))


def _apply_rules(corpus: Corpus, rules_path: Path):
    """Compile the rule file, report its warnings and conflicts on stderr, and reconcile."""
    rules = compile_rules(rules_path, corpus.organizations)
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


def _analysis_inputs(ns: argparse.Namespace, keys: tuple[str, ...]):
    """The corpus, benchmark tables and top-journal set for an analysis over
    `keys`; an organizational key needs --rules or records with attributions."""
    corpus = _parse(ns)
    if any(k in _ORG_KEYS for k in keys):
        if ns.rules:
            corpus = _apply_rules(corpus, ns.rules).corpus
        elif not any(corpus.columns.attribution_tuples):
            raise UsageError("organizational analysis needs --rules or records with attributions")
    xcr = load_benchmark_csv(ns.xcr_csv, "field") if ns.xcr_csv else compute_xcr(corpus)
    jxcr = load_benchmark_csv(ns.jxcr_csv, "journal") if ns.jxcr_csv else compute_jxcr(corpus)
    if ns.top_csv:
        top_set = load_top_journals_csv(ns.top_csv)
    else:
        top_set = classify_top_journals(corpus.journals, corpus.field_scheme, ns.fraction)
    return corpus, BenchmarkTables(xcr, jxcr), top_set


def _cmd_validate(ns: argparse.Namespace) -> int:
    summary = _parse(ns).summary()
    print(f"{summary.n_records} records, 0 diagnostics")
    return 0


def _cmd_reconcile(ns: argparse.Namespace) -> int:
    corpus, digest = _ingest(ns.pubs, ns.journals, ns.orgs, ns.fields, _out_path(ns), store=True)
    result = _apply_rules(corpus, ns.rules)
    out = _out_dir(ns)
    if digest:  # parsed from the JSON: store the columns for the next command that reads these bytes
        _write_input_snapshot(corpus, out, digest)
    del corpus
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


def _cmd_benchmark(ns: argparse.Namespace) -> int:
    corpus = _parse(ns)
    out = _out_dir(ns)
    xcr = compute_xcr(corpus)
    jxcr = compute_jxcr(corpus)
    top_set = classify_top_journals(corpus.journals, corpus.field_scheme, ns.fraction)
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


def _cmd_indicators(ns: argparse.Namespace) -> int:
    corpus, benchmarks, top_set = _analysis_inputs(ns, ns.slice_spec)
    rows = aggregate(corpus, ns.slice_spec, benchmarks, top_set)
    out = _out_dir(ns)
    stem = "indicators_" + "_".join(ns.slice_spec)
    write_indicator_csv(rows, out / f"{stem}.csv", keys=ns.slice_spec)
    write_indicator_json(rows, out / f"{stem}.json", keys=ns.slice_spec)
    print(f"wrote {out / (stem + '.csv')} and {out / (stem + '.json')} ({len(rows)} rows)", file=sys.stderr)
    return 0


def _rank_spec(ns: argparse.Namespace) -> tuple[RankingSpec, tuple[str, ...]]:
    """The ranking asked for, and the slice key it is restricted to with its value (or ())."""
    if ns.discipline and ns.field_filter:
        raise UsageError("--discipline and --field are mutually exclusive")
    within = ("discipline", ns.discipline) if ns.discipline else ("field", ns.field_filter) if ns.field_filter else ()
    slice_label = ns.group_by + (f"_{within[1]}" if within else "")
    try:
        spec = RankingSpec(slice_label=slice_label, rank_metric=ns.metric, min_weight=ns.min_weight, limit=ns.limit)
    except ReportError as exc:
        raise UsageError(str(exc)) from None
    return spec, within


def _cmd_rank(ns: argparse.Namespace) -> int:
    spec, within = _rank_spec(ns)
    keys = (ns.group_by, within[0]) if within else (ns.group_by,)
    corpus, benchmarks, top_set = _analysis_inputs(ns, keys)
    scheme = corpus.field_scheme
    if within and within[1] not in (scheme.field_to_discipline.values() if ns.discipline else scheme):
        raise UsageError(f"--{within[0]} {within[1]!r} is not a {within[0]} of the field scheme")
    rows = aggregate(
        corpus, keys, benchmarks, top_set, with_top_decile=ns.metric == "top_decile_mean_cx"
    )
    if within:
        # The within key is the slice's last: keep its value's rows, without it.
        rows = [dataclasses.replace(row, entity=row.entity[:-1]) for row in rows if row.entity[-1][1] == within[1]]

    table = rank(rows, spec)
    if ns.out == "-":
        emit(table, ns.fmt, sys.stdout)
    else:
        destination = Path(ns.out) if ns.out else _out_dir(ns) / default_filename(
            spec.slice_label, ns.metric, ns.fmt
        )
        emit(table, ns.fmt, destination)
        print(f"wrote {destination} ({len(table.rows)} rows)", file=sys.stderr)
    return 0


def _check_trend(ns: argparse.Namespace) -> None:
    if "year" in ns.slice_spec:
        raise UsageError("--slice must not include 'year' (it is implicit)")


def _cmd_trend(ns: argparse.Namespace) -> int:
    corpus, benchmarks, top_set = _analysis_inputs(ns, ns.slice_spec)
    series = annual_series(corpus, ns.slice_spec, benchmarks, top_set)
    stats = []
    for s in series:
        for metric in ns.metrics:
            try:
                stats.append(series_growth(s, metric, ns.unstable_floor))
            except GrowthError as exc:
                print(f"skipped {s.entity_id() or 'all'}/{metric}: {exc}", file=sys.stderr)
    out = _out_dir(ns)
    path = out / ("trend_" + "_".join(ns.slice_spec) + ".csv")
    write_trend_csv(stats, path, keys=ns.slice_spec)
    print(f"wrote {path} ({len(stats)} rows)", file=sys.stderr)
    return 0


def _cmd_synth(ns: argparse.Namespace) -> int:
    spec = load_spec(ns.spec)
    generated = generate_corpus(spec, _out_dir(ns))
    print(
        f"wrote {generated.n_publications} publications to {generated.out_dir} "
        f"(seed {spec.seed}, generator recorded in {generated.meta.name})",
        file=sys.stderr,
    )
    return 0


def _cmd_demo(ns: argparse.Namespace) -> int:
    report = distortion_demo(ns.seed, _out_dir(ns) if ns.out_dir else None)
    print("Ranking by raw citations per publication:")
    print(render(report.raw_ranking, ns.fmt))
    print("Ranking by field-standardized impact:")
    print(render(report.standardized_ranking, ns.fmt))
    for line in report.summary_lines():
        print(line)
    if not report.passed:
        print("distortion demo assertions failed", file=sys.stderr)
        return 1
    return 0


_CORPUS = ("pubs", "journals", "orgs", "fields")
_COMMON = ("config", "out_dir", "threads")
_ANALYSIS = ("xcr_csv", "jxcr_csv", "top_csv", "fraction", "rules")

_COMMANDS = {
    "validate": _Command(_cmd_validate, "ingest and validate the corpus files", _CORPUS, _COMMON),
    "reconcile": _Command(_cmd_reconcile, "attribute records to organizations via a rule file",
                          _CORPUS + ("rules",), _COMMON),
    "benchmark": _Command(_cmd_benchmark, "compute benchmark tables and the top-journal set",
                          _CORPUS, _COMMON + ("fraction",)),
    "indicators": _Command(_cmd_indicators, "aggregate standardized impacts over a slice",
                           _CORPUS, _COMMON + _ANALYSIS + ("slice_spec",)),
    "rank": _Command(_cmd_rank, "ranked organization table with a minimum-weight threshold", _CORPUS,
                     _COMMON + _ANALYSIS + ("group_by", "discipline", "field_filter", "metric", "min_weight",
                                            "limit", "fmt", "out"), check=_rank_spec),
    "trend": _Command(_cmd_trend, "per-year series and average annual increases", _CORPUS,
                      _COMMON + _ANALYSIS + ("slice_spec", "metrics", "unstable_floor"), check=_check_trend),
    "synth": _Command(_cmd_synth, "generate a seeded synthetic corpus", ("spec",), _COMMON),
    "demo-distortion": _Command(_cmd_demo, "show ranking distortion without field standardization",
                                (), _COMMON + ("seed", "fmt"), defaults={"fmt": "markdown"}),
}


if __name__ == "__main__":
    sys.exit(main())
