"""Seeded synthetic corpora with field-heterogeneous citation behavior.

Citation counts come from a negative-binomial sampler (right-skewed,
over-dispersed, like real citation distributions) with one mean and
dispersion per field profile. Generation is a pure function of spec plus
seed: the RNG is a fixed, named, portable generator (numpy PCG64) and
its identity is recorded in the output metadata. Outputs are the four
corpus files, a matching rule file for reconciliation, and a metadata
echo. Publications are written by the corpus writer, one (year, field)
block of record columns at a time, so their format is spelled only there.
"""

from __future__ import annotations

import json
import math
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .benchmarks import classify_top_journals, compute_benchmarks
from .columns import RecordColumns, encode
from .corpus import (_FIELD_SCHEME_HEADER, _JOURNALS_HEADER, _ORGS_HEADER, DEFAULT_DISCIPLINES, CorpusError,
                     DocType, OrgType, _write_columns, parse_corpus)
from .indicators import IndicatorRow, aggregate
from .reconcile import compile_rules, normalize_address, reconcile_corpus
from .reporting import Table, emit

GENERATOR_NAME = "numpy-PCG64"

# In `SynthSpec.doc_type_weights` order.
_DOC_TYPES = (DocType.ARTICLE, DocType.PROCEEDINGS, DocType.REVIEW)


class SynthError(CorpusError):
    pass


@dataclass(frozen=True, slots=True)
class FieldProfile:
    """Citation and journal behavior of one synthetic field."""

    field_id: str
    discipline_id: str
    mean_citations: float
    dispersion: float
    journal_count: int
    annual_volume: int
    if_location: float = 0.0
    if_sigma: float = 0.5

    def validate(self) -> None:
        # journals.csv joins a journal's fields with ";"; the loaders strip cells and reject empty ids.
        fid = self.field_id
        if not fid or ";" in fid or fid != fid.strip():
            raise SynthError(f"field {fid!r}: id must be non-empty, without ';' or surrounding whitespace")
        if not all(map(math.isfinite, (self.mean_citations, self.dispersion, self.if_location, self.if_sigma))):
            raise SynthError(
                f"field {self.field_id}: mean_citations, dispersion, if_location and if_sigma must be finite"
            )
        if self.mean_citations <= 0:
            raise SynthError(f"field {self.field_id}: mean citation level must be > 0")
        if self.dispersion <= 0:
            raise SynthError(f"field {self.field_id}: dispersion must be > 0")
        if self.journal_count < 1:
            raise SynthError(f"field {self.field_id}: journal count must be >= 1")
        if self.annual_volume < 0:
            raise SynthError(f"field {self.field_id}: annual volume must be >= 0")
        if self.if_sigma < 0:
            raise SynthError(f"field {self.field_id}: if_sigma must be >= 0")


@dataclass(frozen=True, slots=True)
class SynthOrg:
    org_id: str
    name: str
    org_type: str
    field_mix: dict[str, float]

    def validate(self, field_ids: set[str]) -> None:
        # rules.tsv holds one "name<TAB>id" per line; the loaders strip cells and reject empty ids.
        if any(c in self.org_id + self.name for c in "\t\r\n"):
            raise SynthError(f"org {self.org_id!r}: id and name must not contain a tab or line break")
        if not self.org_id or self.org_id != self.org_id.strip():
            raise SynthError(f"org {self.org_id!r}: id must be non-empty, without surrounding whitespace")
        if not normalize_address(self.name):
            raise SynthError(f"org {self.org_id!r}: name {self.name!r} is empty after normalization")
        if self.name.lstrip().startswith("#"):
            raise SynthError(f"org {self.org_id!r}: name {self.name!r} would read as a rules.tsv comment")
        if self.org_type not in {t.value for t in OrgType}:
            raise SynthError(f"org {self.org_id}: org_type must be U, RI or H")
        if not all(math.isfinite(w) and w >= 0 for w in self.field_mix.values()):
            raise SynthError(f"org {self.org_id}: field-mix weights must be finite and >= 0")
        total = sum(self.field_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise SynthError(f"org {self.org_id}: field-mix weights sum to {total}, expected 1")
        unknown = set(self.field_mix) - field_ids
        if unknown:
            raise SynthError(f"org {self.org_id}: unknown fields in mix: {sorted(unknown)}")


@dataclass(frozen=True, slots=True)
class SynthSpec:
    year_start: int
    year_end: int
    fields: tuple[FieldProfile, ...]
    orgs: tuple[SynthOrg, ...]
    seed: int
    coauthor_rate: float = 0.10
    doc_type_weights: tuple[float, float, float] = (0.70, 0.27, 0.03)
    address_variants: int = 4

    def validate(self) -> None:
        if self.seed is None:
            raise SynthError("seed is mandatory")
        if self.year_end < self.year_start:
            raise SynthError("year_end must be >= year_start")
        if not self.fields:
            raise SynthError("at least one field profile required")
        for prof in self.fields:
            prof.validate()
        field_ids = {p.field_id for p in self.fields}
        if len(field_ids) != len(self.fields):
            raise SynthError("duplicate field ids in profiles")
        for org in self.orgs:
            org.validate(field_ids)
        if len({org.org_id for org in self.orgs}) != len(self.orgs):
            raise SynthError("duplicate org ids")
        if not 0 <= self.coauthor_rate <= 1:
            raise SynthError("coauthor_rate must be in [0, 1]")
        if len(self.doc_type_weights) != len(_DOC_TYPES) or not all(
            isinstance(w, (int, float)) and math.isfinite(w) and w >= 0 for w in self.doc_type_weights
        ):
            raise SynthError(f"doc_type_weights must be {len(_DOC_TYPES)} finite numbers >= 0")
        if abs(sum(self.doc_type_weights) - 1.0) > 1e-9:
            raise SynthError("doc_type_weights must sum to 1")
        if self.address_variants < 1:
            raise SynthError("address_variants must be >= 1")

    @property
    def years(self) -> range:
        return range(self.year_start, self.year_end + 1)

    def to_dict(self) -> dict:
        """The spec as `spec_from_dict` reads it, with JSON lists in place of tuples."""
        raw = asdict(self, dict_factory=lambda items: {k: list(v) if isinstance(v, tuple) else v for k, v in items})
        raw["years"] = [raw.pop("year_start"), raw.pop("year_end")]
        return raw


def _optional(raw: dict, converters: dict) -> dict:
    """The optional keys that `raw` holds, converted; the dataclass defaults fill in the rest."""
    return {key: convert(raw[key]) for key, convert in converters.items() if key in raw}


def spec_from_dict(raw: dict) -> SynthSpec:
    try:
        years = raw["years"]
        spec = SynthSpec(
            year_start=int(years[0]),
            year_end=int(years[1]),
            fields=tuple(
                FieldProfile(
                    field_id=str(f["field_id"]),
                    discipline_id=str(f["discipline_id"]),
                    mean_citations=float(f["mean_citations"]),
                    dispersion=float(f["dispersion"]),
                    journal_count=int(f["journal_count"]),
                    annual_volume=int(f["annual_volume"]),
                    **_optional(f, {"if_location": float, "if_sigma": float}),
                )
                for f in raw["fields"]
            ),
            orgs=tuple(
                SynthOrg(
                    org_id=str(o["org_id"]),
                    name=str(o["name"]),
                    org_type=str(o["org_type"]),
                    field_mix={str(k): float(v) for k, v in o["field_mix"].items()},
                )
                for o in raw.get("orgs", [])
            ),
            seed=int(raw["seed"]),
            **_optional(raw, {"coauthor_rate": float, "doc_type_weights": tuple, "address_variants": int}),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SynthError(f"invalid synth spec: {exc}") from exc
    spec.validate()
    return spec


def load_spec(path: str | Path) -> SynthSpec:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 decode errors
        raise SynthError(f"invalid synth spec {path}: {exc}") from None
    return spec_from_dict(raw)


_ADDRESS_TEMPLATES = (
    "{name}",
    "{name}, Dept. of Research {k}",
    "Unit {k} - {name}",
    "{name} / Lab {k}",
    "Center {k}, {name}",
    "{name} Branch {k}",
)


def _address_variants(name: str, n: int) -> list[str]:
    return [_ADDRESS_TEMPLATES[i % len(_ADDRESS_TEMPLATES)].format(name=name, k=i) for i in range(n)]


@dataclass(frozen=True, slots=True)
class GeneratedCorpus:
    out_dir: Path
    publications: Path
    journals: Path
    orgs: Path
    field_scheme: Path
    rules: Path
    meta: Path
    n_publications: int


def generate_corpus(spec: SynthSpec, out_dir: str | Path) -> GeneratedCorpus:
    """Write a complete synthetic corpus; byte-identical for equal spec+seed."""
    spec.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(spec.seed))

    # Journals first so the draw order is independent of publication volume.
    journal_ids: dict[str, tuple[str, ...]] = {}
    journal_rows = []
    for prof in spec.fields:
        ifs = rng.lognormal(prof.if_location, prof.if_sigma, prof.journal_count)
        ids = tuple(f"J_{prof.field_id}_{i:03d}" for i in range(prof.journal_count))
        journal_rows += [(jid, f"Journal of {prof.field_id} {i}", float(ifs[i]), prof.field_id)
                         for i, jid in enumerate(ids)]
        journal_ids[prof.field_id] = ids
    journals_path = out / "journals.csv"
    emit(Table(_JOURNALS_HEADER, tuple(journal_rows)), "csv", journals_path)

    orgs_path = out / "orgs.csv"
    org_rows = tuple((org.org_id, org.name, org.org_type, None) for org in spec.orgs)
    emit(Table(_ORGS_HEADER, org_rows), "csv", orgs_path)

    scheme_path = out / "fieldscheme.csv"
    scheme_rows = tuple((prof.field_id, prof.discipline_id) for prof in spec.fields)
    emit(Table(_FIELD_SCHEME_HEADER, scheme_rows), "csv", scheme_path)

    rules_path = out / "rules.tsv"
    with open(rules_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# synthetic organization address patterns\n")
        for org in spec.orgs:
            fh.write(f"{org.name}\t{org.org_id}\n")

    variants = [_address_variants(org.name, spec.address_variants) for org in spec.orgs]
    n_orgs = len(spec.orgs)
    org_probs_by_field: dict[str, np.ndarray | None] = {}
    for prof in spec.fields:
        probs = np.array([org.field_mix.get(prof.field_id, 0.0) for org in spec.orgs])
        total = probs.sum()
        org_probs_by_field[prof.field_id] = probs / total if total > 0 else None

    doc_p = np.array(spec.doc_type_weights)
    doc_p = doc_p / doc_p.sum()
    seq = 0
    pubs_path = out / "publications.jsonl"
    with open(pubs_path, "w", encoding="utf-8", newline="") as fh:
        for year in spec.years:
            for prof in spec.fields:
                n = prof.annual_volume
                if n == 0:
                    continue
                r = prof.dispersion
                cits = rng.negative_binomial(r, r / (r + prof.mean_citations), n)
                jidx = rng.integers(0, prof.journal_count, n)
                didx = rng.choice(len(_DOC_TYPES), size=n, p=doc_p)
                zeros = np.zeros(n, np.int32)
                addresses, address_lists = zeros, ((),)
                probs = org_probs_by_field[prof.field_id]
                if probs is not None:
                    primary = rng.choice(n_orgs, size=n, p=probs)
                    co_mask = rng.random(n) < spec.coauthor_rate
                    secondary = rng.choice(n_orgs, size=n, p=probs)
                    vidx = rng.integers(0, spec.address_variants, size=(n, 2))
                    # The co-author's address is added only when its org id differs;
                    # ids are unique (`SynthSpec.validate`), so indices compare as ids.
                    two_orgs = co_mask & (secondary != primary)
                    pairs = zip(primary.tolist(), vidx.tolist(), secondary.tolist(), two_orgs.tolist())
                    addresses, address_lists = encode(
                        ((variants[a][va], variants[b][vb]) if two else (variants[a][va],)
                         for a, (va, vb), b, two in pairs), n
                    )
                _write_columns(RecordColumns(
                    ids=tuple(f"p{i:08d}" for i in range(seq, seq + n)), year=zeros, journal=jidx.astype(np.int32),
                    doc_type=didx.astype(np.int32), fields=zeros, addresses=addresses, attributions=zeros,
                    citations=cits, years=(year,), journals=journal_ids[prof.field_id],
                    doc_types=_DOC_TYPES, field_tuples=((prof.field_id,),), address_lists=address_lists,
                    attribution_tuples=((),),
                ), fh)
                seq += n

    meta_path = out / "synth.meta.json"
    meta = {
        "seed": spec.seed,
        "generator": GENERATOR_NAME,
        "n_publications": seq,
        "spec": spec.to_dict(),
    }
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return GeneratedCorpus(
        out_dir=out,
        publications=pubs_path,
        journals=journals_path,
        orgs=orgs_path,
        field_scheme=scheme_path,
        rules=rules_path,
        meta=meta_path,
        n_publications=seq,
    )


def build_world_spec(
    seed: int,
    n_fields: int = 6,
    years: tuple[int, int] = (2001, 2006),
    annual_volume: int = 150,
    n_orgs: int = 9,
    coauthor_rate: float = 0.10,
    journal_count: int = 8,
) -> SynthSpec:
    """A ready-made heterogeneous world: field means spread over ~30x."""
    mus = [0.5, 1.5, 3.0, 5.0, 8.0, 15.0]
    fields = tuple(
        FieldProfile(
            field_id=f"F{i:02d}",
            discipline_id=DEFAULT_DISCIPLINES[i % len(DEFAULT_DISCIPLINES)],
            mean_citations=mus[i % len(mus)] * (1 + i // len(mus)),
            dispersion=2.0,
            journal_count=journal_count,
            annual_volume=annual_volume,
            if_location=0.1 * (i % 4),
            if_sigma=0.6,
        )
        for i in range(n_fields)
    )
    org_types = tuple(t.value for t in OrgType)
    orgs = []
    for i in range(n_orgs):
        weights = [0.4 / (n_fields - 1)] * n_fields if n_fields > 1 else [0.0]
        weights[i % n_fields] = 0.6 if n_fields > 1 else 1.0
        total = sum(weights)
        mix = {f"F{j:02d}": w / total for j, w in enumerate(weights)}
        org_type = org_types[i % 3]
        prefix = {"U": "Synth University", "RI": "Research Institute", "H": "City Hospital"}[org_type]
        orgs.append(
            SynthOrg(
                org_id=f"{org_type}{i:03d}",
                name=f"{prefix} {i:03d}",
                org_type=org_type,
                field_mix=mix,
            )
        )
    return SynthSpec(
        year_start=years[0],
        year_end=years[1],
        fields=fields,
        orgs=tuple(orgs),
        seed=seed,
        coauthor_rate=coauthor_rate,
    )


# Distortion demonstration: identical within-field citation behavior,
# different field mixes. Raw citations-per-publication separate the two
# organizations while field-standardized means agree.

DEFAULT_DEMO_SEED = 20104711
# The demo's pass bounds, checked and printed.
RAW_RATIO_MIN = 2.0
STD_REL_TOL = 0.05


def build_demo_spec(
    seed: int,
    concentrated_mix: tuple[float, float] = (0.9, 0.1),
    spread_mix: tuple[float, float] = (0.1, 0.9),
    years: tuple[int, int] = (2004, 2005),
) -> SynthSpec:
    fields = (
        FieldProfile("HIGHCITE", "Biomedical research", 10.0, 5.0, 6, 2500),
        FieldProfile("LOWCITE", "Mathematics", 2.0, 5.0, 6, 2500),
    )
    orgs = (
        SynthOrg(
            "U100",
            "Hotfield University 100",
            "U",
            {"HIGHCITE": concentrated_mix[0], "LOWCITE": concentrated_mix[1]},
        ),
        SynthOrg(
            "U200",
            "Broadfield University 200",
            "U",
            {"HIGHCITE": spread_mix[0], "LOWCITE": spread_mix[1]},
        ),
    )
    return SynthSpec(
        year_start=years[0],
        year_end=years[1],
        fields=fields,
        orgs=orgs,
        seed=seed,
        coauthor_rate=0.0,
    )


@dataclass(frozen=True, slots=True)
class DistortionReport:
    seed: int
    raw_ranking: Table
    standardized_ranking: Table
    raw_means: dict[str, float]
    standardized_means: dict[str, float]
    raw_ratio: float
    standardized_rel_diff: float
    raw_separated: bool
    standardized_agree: bool

    @property
    def passed(self) -> bool:
        return self.raw_separated and self.standardized_agree

    def summary_lines(self) -> list[str]:
        return [
            f"seed: {self.seed}",
            f"raw citations-per-publication ratio: {self.raw_ratio:.2f} (required >= {RAW_RATIO_MIN:g})",
            f"standardized means relative difference: {100 * self.standardized_rel_diff:.2f}%"
            f" (required < {STD_REL_TOL:.0%})",
            f"raw ranking separates organizations: {self.raw_separated}",
            f"standardized ranking agrees: {self.standardized_agree}",
        ]


def distortion_demo(
    seed: int = DEFAULT_DEMO_SEED,
    out_dir: str | Path | None = None,
    spec: SynthSpec | None = None,
) -> DistortionReport:
    """Generate the two-organization demo corpus and compare rankings.

    The corpus itself serves as the benchmark population, so each field
    cell's mean standardized impact is 1 by construction and any
    org-level deviation is pure sampling noise.
    """
    spec = spec if spec is not None else build_demo_spec(seed)
    with tempfile.TemporaryDirectory() if out_dir is None else nullcontext(out_dir) as where:
        generated = generate_corpus(spec, where)
        corpus = parse_corpus(generated.publications, generated.journals, generated.orgs, generated.field_scheme)
        rules = compile_rules(generated.rules, corpus.organizations)
    reconciled = reconcile_corpus(corpus, rules).corpus
    benchmarks = compute_benchmarks(reconciled)
    top_set = classify_top_journals(reconciled.journals, reconciled.field_scheme)
    rows = aggregate(reconciled, ("org",), benchmarks, top_set)

    raw_means = {row.entity_id(): row.mean_citations for row in rows}
    std_means = {row.entity_id(): row.mean_cx for row in rows}
    raw_sorted = sorted(rows, key=lambda r: -r.mean_citations)
    std_sorted = sorted(rows, key=lambda r: -r.mean_cx)
    raw_values = sorted(raw_means.values())
    std_values = sorted(std_means.values())
    raw_ratio = raw_values[-1] / raw_values[0] if raw_values[0] > 0 else float("inf")
    std_rel = (std_values[-1] - std_values[0]) / std_values[0] if std_values[0] > 0 else float("inf")

    return DistortionReport(
        seed=spec.seed,
        raw_ranking=_ranking_table(raw_sorted, "mean_citations"),
        standardized_ranking=_ranking_table(std_sorted, "mean_cx"),
        raw_means=raw_means,
        standardized_means=std_means,
        raw_ratio=raw_ratio,
        standardized_rel_diff=std_rel,
        raw_separated=raw_ratio >= RAW_RATIO_MIN,
        standardized_agree=std_rel < STD_REL_TOL,
    )


def _ranking_table(rows: list[IndicatorRow], metric: str) -> Table:
    return Table(
        columns=("entity", "weight", metric),
        rows=tuple((r.entity_id(), r.weight, getattr(r, metric)) for r in rows),
        decimals={"weight": 1, metric: 3},
    )
