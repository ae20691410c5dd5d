"""The three workloads: set-up, one timed pass, and the output checks.

A pass is a fixed list of steps. A step fails when it raises, when a CLI
command exits non-zero, or when a check after the pass rejects its
output. Checks run outside the timed pass. Every engine call goes
through a module attribute (``indicators.aggregate``, not a name bound
at import), so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

from fieldimpact import benchmarks, cli, corpus, indicators, reconcile, reporting, trends

import worlds
from layers import slice_label


class PassLog:
    """Steps attempted and failed in one pass."""

    def __init__(self, steps):
        self.steps = tuple(steps)
        self.done: list[str] = []
        self.failed: dict[str, str] = {}

    @contextmanager
    def step(self, name: str):
        yield
        self.done.append(name)

    def fail(self, step: str, why: str) -> None:
        self.failed.setdefault(step, why)

    def abort(self, exc: BaseException) -> None:
        for step in self.steps:
            if step not in self.done:
                self.fail(step, f"{type(exc).__name__}: {exc}")

    @property
    def aborted(self) -> bool:
        return len(self.done) < len(self.steps)


def sha256_files(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


class Workload:
    name = ""
    steps: tuple[str, ...] = ()
    generated_inputs = False  # inputs written by ``worlds.write_inputs`` first

    def __init__(self, seed: int, work: Path, inputs: Path | None = None, tracer=None):
        self.seed = seed
        self.work = work
        self.inputs = inputs
        self.out = work / "out"
        self.tracer = tracer
        self.n_records = 0

    def tagged(self, tag: str):
        return self.tracer.tagged(tag) if self.tracer is not None else nullcontext()

    def setup(self) -> None:
        """The timed set-up: only engine work, on inputs that already exist."""
        raise NotImplementedError

    def run_pass(self, log: PassLog) -> None:
        raise NotImplementedError

    def check(self, log: PassLog) -> None:
        raise NotImplementedError

    def digests(self) -> dict[str, str]:
        return sha256_files(self.out)


class Chain(Workload):
    """The README's CLI chain, in-process through ``fieldimpact.cli.main``."""

    name = "chain"
    steps = ("reconcile", "benchmark", "indicators", "rank")

    def setup(self) -> None:
        self.world = worlds.generate_world(self.seed, self.work / "world")
        self.n_records = self.world.n_publications
        self.out.mkdir(parents=True, exist_ok=True)
        self.first_digests: dict[str, str] | None = None

    def run_pass(self, log: PassLog) -> None:
        w, out = self.world, str(self.out)
        registries = ["--journals", str(w.journals), "--orgs", str(w.orgs),
                      "--fields", str(w.field_scheme)]
        reconciled = str(self.out / "publications.reconciled.jsonl")
        commands = {
            "reconcile": ["reconcile", "--pubs", str(w.publications), *registries,
                          "--rules", str(w.rules), "--out-dir", out],
            "benchmark": ["benchmark", "--pubs", str(w.publications), *registries,
                          "--out-dir", out],
            "indicators": ["indicators", "--pubs", reconciled, *registries,
                           "--slice", "org", "--out-dir", out],
            "rank": ["rank", "--pubs", reconciled, *registries, "--metric", "mean_cx",
                     "--min-weight", "50", "--limit", "10", "--format", "csv",
                     "--out", str(self.out / "rank_org_mean_cx.csv")],
        }
        for step, argv in commands.items():
            with log.step(step):
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
                if code != 0:
                    log.fail(step, f"exit {code}: {sink.getvalue()[-300:]}")

    # Which step writes each output file.
    _PRODUCER = {
        "publications.reconciled.jsonl": "reconcile", "unmatched.csv": "reconcile",
        "xcr.csv": "benchmark", "jxcr.csv": "benchmark", "top_journals.csv": "benchmark",
        "indicators_org.csv": "indicators", "indicators_org.json": "indicators",
        "rank_org_mean_cx.csv": "rank",
    }

    def check(self, log: PassLog) -> None:
        digests = self.digests()
        if self.first_digests is None:
            self.first_digests = digests
        for name, step in self._PRODUCER.items():
            if name not in digests:
                log.fail(step, f"{name} not written")
            elif digests[name] != self.first_digests.get(name):
                log.fail(step, f"{name} differs from pass 1")


# (slice keys, with_top_decile) in pass order; the reloaded-xcr query follows.
SLICES = (
    (("nation",), False),
    (("discipline", "year"), False),
    (("field", "year"), False),
    (("org",), False),
    (("org", "field"), False),
    (("org_type", "discipline"), False),
    (("subunit",), False),
    (("org",), True),
)
ORG_KEYS = {"org", "org_type", "subunit"}
GROWTH_METRICS = ("mean_cx", "top_share_pct")


class Slices(Workload):
    """Library-API queries over a parsed, reconciled, enriched corpus."""

    name = "slices"
    steps = ("benchmarks", *(slice_label(k, t) for k, t in SLICES), "org-xcr_reload",
             "trends", "rank", "write")
    generated_inputs = True

    def setup(self) -> None:
        # World generation as the engine runs it. The enriched copy of this
        # same world was written before timing began; it is what is parsed.
        worlds.generate_world(
            self.seed, self.work / "world", coauthor_rate=worlds.SLICES_COAUTHOR_RATE
        )
        files = worlds.read_inputs(self.inputs)
        parsed = corpus.parse_corpus(*files.parse_inputs())
        rules = reconcile.compile_rules(files.rules, parsed.organizations)
        self.corpus = reconcile.reconcile_corpus(parsed, rules).corpus
        self.n_records = files.n_records
        self.removed = worlds.xcr_cells_to_remove(
            self.seed, worlds.WORLD["years"], self.corpus.field_scheme.fields()
        )
        self.out.mkdir(parents=True, exist_ok=True)
        self.expected_weight: dict[tuple, int] = {}

    def run_pass(self, log: PassLog) -> None:
        c, out = self.corpus, self.out
        with log.step("benchmarks"):
            tables = benchmarks.compute_benchmarks(c)
            top = benchmarks.classify_top_journals(c.journals, c.field_scheme)
        rows = {}
        for keys, top_decile in SLICES:
            label = slice_label(keys, top_decile)
            with log.step(label):
                rows[label] = indicators.aggregate(c, keys, tables, top,
                                                   with_top_decile=top_decile)
        with log.step("org-xcr_reload"):
            path = out / "xcr.csv"
            benchmarks.export_benchmark_csv(tables.xcr, path)
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(
                line for line in lines if tuple(line.split(",")[:2]) not in self.removed
            ), encoding="utf-8")
            reloaded = benchmarks.BenchmarkTables(
                benchmarks.load_benchmark_csv(path, "field"), tables.jxcr
            )
            with self.tagged("xcr_reload"):
                rows["org-xcr_reload"] = indicators.aggregate(c, ("org",), reloaded, top)
        with log.step("trends"):
            series = trends.annual_series(c, ("discipline",), tables, top)
            self.growth = [trends.series_growth(s, m) for s in series for m in GROWTH_METRICS]
        with log.step("rank"):
            for metric, source in (("mean_cx", "org"), ("top_decile_mean_cx", "org-top_decile")):
                table = reporting.rank(rows[source], reporting.RankingSpec("org", metric))
                reporting.emit(table, "csv", out / f"rank_org_{metric}.csv")
        with log.step("write"):
            for label, found in rows.items():
                indicators.write_indicator_csv(found, out / f"indicators_{label}.csv")
                indicators.write_indicator_json(found, out / f"indicators_{label}.json")
        self.rows = rows

    def check(self, log: PassLog) -> None:
        for row in self.rows["field-year"]:
            if abs(row.mean_cx - 1.0) > 1e-9:
                log.fail("field-year", f"{row.entity_id()}: mean_cx {row.mean_cx!r} != 1")
        for label, found in self.rows.items():
            keys = tuple(k for k in label.split("-") if k not in ("top_decile", "xcr_reload"))
            if not ORG_KEYS & set(keys):
                continue
            expected = self._attributed_contexts(keys, label.endswith("xcr_reload"))
            total = sum((row.weight_exact for row in found), Fraction(0))
            if total != expected:
                log.fail(label, f"weight sum {total} != {expected} attributed records")

    def _attributed_contexts(self, keys, reloaded: bool) -> int:
        """Attributed (record, field or discipline) contexts with a benchmark cell.

        Every (year, field) of the corpus has a cell except those removed
        from the reloaded table. A record's attribution weights sum to 1,
        so on an org slice the weights of all rows sum to this count.
        """
        memo_key = (keys, reloaded)
        if memo_key not in self.expected_weight:
            missing = self.removed if reloaded else set()
            discipline_of = self.corpus.field_scheme.discipline_of
            count = 0
            for rec in self.corpus.records:
                if not rec.attributions:
                    continue
                ok = {f: (str(rec.year), f) not in missing for f in rec.field_ids}
                if "field" in keys:
                    count += sum(ok.values())
                elif "discipline" in keys:
                    by_discipline: dict[str, bool] = {}
                    for f, present in ok.items():
                        d = discipline_of(f)
                        by_discipline[d] = by_discipline.get(d, True) and present
                    count += sum(by_discipline.values())
                else:
                    count += all(ok.values())
            self.expected_weight[memo_key] = count
        return self.expected_weight[memo_key]

    def digests(self) -> dict[str, str]:
        buf = io.StringIO()
        trends.write_trend_csv(self.growth, buf)
        found = sha256_files(self.out)
        found["trend_discipline.csv"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        return found


ORACLE_RECORDS = 400


class Rules(Workload):
    """Dictionary-scale rule compile and reconcile, one and two threads."""

    name = "rules"
    steps = ("compile", "reconcile", "compile.t2", "reconcile.t2", "unmatched_csv")
    generated_inputs = True

    def setup(self) -> None:
        self.files = worlds.read_inputs(self.inputs)
        self.corpus = corpus.parse_corpus(*self.files.parse_inputs())
        self.n_records = self.files.n_records
        self.out.mkdir(parents=True, exist_ok=True)
        self.patterns = None  # the oracle's rules, read on the first check

    def run_pass(self, log: PassLog) -> None:
        rule_file, orgs = self.files.rules, self.corpus.organizations
        # A fresh RuleSet per reconcile: its match memo must start cold.
        with log.step("compile"):
            self.rules1 = reconcile.compile_rules(rule_file, orgs)
        with log.step("reconcile"):
            self.result1 = reconcile.reconcile_corpus(self.corpus, self.rules1, threads=1)
        with log.step("compile.t2"):
            self.rules2 = reconcile.compile_rules(rule_file, orgs)
        with log.step("reconcile.t2"):
            self.result2 = reconcile.reconcile_corpus(self.corpus, self.rules2, threads=2)
        with log.step("unmatched_csv"):
            self.result1.unmatched.to_csv(self.out / "unmatched.csv")

    def _first_match(self, normalized: str):
        for pattern, org, sub in self.patterns:
            if pattern in normalized:
                return (org, sub)
        return None

    def check(self, log: PassLog) -> None:
        if self.patterns is None:
            self.patterns = [(reconcile.normalize_address(p), org, sub)
                             for p, org, sub in worlds.read_rules(self.files.rules)]
            picker = random.Random(self.seed)
            self.sample = sorted(picker.sample(range(len(self.corpus.records)), ORACLE_RECORDS))
        expected = worlds.CONFLICTING_SUBUNITS
        for step, rules in (("compile", self.rules1), ("compile.t2", self.rules2)):
            if len(rules.conflicts) != expected:
                log.fail(step, f"{len(rules.conflicts)} conflicts, expected {expected}")
        r1, r2 = self.result1, self.result2
        if (r1.corpus.records != r2.corpus.records or r1.unmatched != r2.unmatched
                or r1.stats != r2.stats):
            log.fail("reconcile.t2", "threads=2 result differs from threads=1")
        unmatched = {e.address for e in r1.unmatched.entries}
        for i in self.sample:
            rec = r1.corpus.records[i]
            targets = []
            for raw in rec.addresses:
                normalized = reconcile.normalize_address(raw)
                target = self._first_match(normalized)
                if target is None:
                    if normalized not in unmatched:
                        log.fail("reconcile", f"{normalized!r} missing from unmatched report")
                else:
                    targets.append(target)
            if set(rec.attributions) != expected_attributions(targets):
                log.fail("reconcile", f"record {rec.id}: attributions differ from the oracle")

    def digests(self) -> dict[str, str]:
        buf = io.StringIO()
        corpus.write_publications_jsonl(self.result1.corpus, buf)
        found = sha256_files(self.out)
        found["publications.reconciled.jsonl"] = hashlib.sha256(
            buf.getvalue().encode()
        ).hexdigest()
        return found


def expected_attributions(targets) -> set:
    """Documented weighting: 1/m per organization, split over its sub-units."""
    by_org: dict[str, set] = {}
    for org, sub in targets:
        by_org.setdefault(org, set()).add(sub)
    return {
        corpus.Attribution(org, sub, Fraction(1, len(by_org) * len(subs)))
        for org, subs in by_org.items()
        for sub in subs
    }


WORKLOADS = {w.name: w for w in (Chain, Slices, Rules)}
