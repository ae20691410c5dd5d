"""Domain model and ingest for publication corpora.

A corpus bundles publication records with the journal, organization and
field registries they reference. Construction validates every cross
reference, normalizes record order, and yields an immutable object that
downstream stages (reconciliation, benchmarks, indicators) can share
freely across threads.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Mapping, NamedTuple, Sequence


class CorpusError(ValueError):
    """Base class for ingest and validation failures."""


class CorpusValidationError(CorpusError):
    """Raised when one or more records or registries violate the schema.

    Carries the complete list of diagnostics, not just the first.
    """

    def __init__(self, diagnostics: Sequence[str]):
        self.diagnostics = list(diagnostics)
        preview = "; ".join(self.diagnostics[:5])
        more = len(self.diagnostics) - 5
        if more > 0:
            preview += f"; ... and {more} more"
        super().__init__(f"{len(self.diagnostics)} validation diagnostic(s): {preview}")


class DocType(Enum):
    ARTICLE = "article"
    REVIEW = "review"
    PROCEEDINGS = "proceedings"


class OrgType(Enum):
    UNIVERSITY = "U"
    RESEARCH_INSTITUTION = "RI"
    HOSPITAL_HCRO = "H"


#: Default discipline identifiers (the eight hard sciences).
DEFAULT_DISCIPLINES = (
    "Mathematics",
    "Physics",
    "Chemistry",
    "Earth and space sciences",
    "Biology",
    "Biomedical research",
    "Clinical medicine",
    "Engineering",
)


@dataclass(frozen=True, slots=True)
class Attribution:
    """One organization-level share of a publication.

    Weights are exact rationals so per-record weight sums can be checked
    for equality with 1 rather than approximate closeness.
    """

    org_id: str
    subunit_id: str | None
    weight: Fraction


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    """One indexed document with its census citation count."""

    id: str
    year: int
    doc_type: DocType
    journal_id: str
    field_ids: tuple[str, ...]
    citations: int
    addresses: tuple[str, ...] = ()
    attributions: tuple[Attribution, ...] = ()


@dataclass(frozen=True, slots=True)
class Journal:
    id: str
    name: str
    impact_factor: float
    field_ids: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Organization:
    id: str
    name: str
    org_type: OrgType
    parent_id: str | None = None


@dataclass(frozen=True, slots=True)
class FieldScheme:
    """Mapping of subject-category fields to disciplines.

    Every field maps to exactly one discipline; the canonical discipline
    list defaults to the eight hard sciences but user schemes may define
    their own.
    """

    field_to_discipline: Mapping[str, str]

    def discipline_of(self, field_id: str) -> str:
        return self.field_to_discipline[field_id]

    def fields(self) -> tuple[str, ...]:
        return tuple(sorted(self.field_to_discipline))

    def __contains__(self, field_id: str) -> bool:
        return field_id in self.field_to_discipline


class CorpusSummary(NamedTuple):
    n_records: int
    n_journals: int
    n_organizations: int
    doc_type_counts: dict[str, int]


@dataclass(frozen=True, slots=True)
class Corpus:
    """Immutable, validated snapshot of records plus their registries."""

    records: tuple[PublicationRecord, ...]
    journals: Mapping[str, Journal]
    organizations: Mapping[str, Organization]
    field_scheme: FieldScheme
    census_date: date | None = None
    # The records as columns, filled on first use by `columns.record_columns`;
    # `dataclasses.replace` makes a new corpus with none.
    _columns: object = field(default=None, init=False, repr=False, compare=False)

    def summary(self) -> CorpusSummary:
        counts = {dt.value: 0 for dt in DocType}
        for rec in self.records:
            counts[rec.doc_type.value] += 1
        return CorpusSummary(
            n_records=len(self.records),
            n_journals=len(self.journals),
            n_organizations=len(self.organizations),
            doc_type_counts=counts,
        )


def doc_type_shares(counts: Mapping[str, int]) -> dict[str, float]:
    """Percentage share per document type from raw counts."""
    total = sum(counts.values())
    if total <= 0:
        raise CorpusError("cannot compute shares of an empty count table")
    return {k: 100.0 * v / total for k, v in counts.items()}


class CensusCount(NamedTuple):
    count: int
    warnings: tuple[str, ...]


def census_citations(
    citation_events: int | Iterable[date | str],
    census_date: date | str | None,
    publication_year: int | None = None,
) -> CensusCount:
    """Count citation events observed up to and including the census date.

    A precomputed integer count passes through unchanged (census date
    ignored); like an ingested count, it must be below 2**53. Events dated
    before the publication year are counted but flagged, since such noise
    occurs in real exports.
    """
    if isinstance(citation_events, bool):
        raise CorpusError("citation_events must be dates or an integer count")
    if isinstance(citation_events, int):
        if citation_events < 0:
            raise CorpusError("precomputed citation count must be non-negative")
        if citation_events >= 2**53:
            raise CorpusError("citations must be below 2**53")
        return CensusCount(citation_events, ())
    cutoff = _as_date(census_date, "census_date") if census_date is not None else None
    if cutoff is None:
        raise CorpusError("census_date is required when counting dated events")
    count = 0
    warnings: list[str] = []
    for event in citation_events:
        when = _as_date(event, "citation event")
        if publication_year is not None and when.year < publication_year:
            warnings.append(
                f"citation dated {when.isoformat()} precedes publication year {publication_year}"
            )
        if when <= cutoff:
            count += 1
    return CensusCount(count, tuple(warnings))


def _as_date(value: date | str, what: str) -> date:
    if isinstance(value, datetime):
        return value.date()
    if isinstance(value, date):
        return value
    try:
        return date.fromisoformat(str(value))
    except ValueError as exc:
        raise CorpusError(f"{what}: invalid ISO date {value!r}") from exc


_DOC_TYPES = {dt.value: dt for dt in DocType}


def validate_record(raw: Mapping[str, object]) -> tuple[PublicationRecord | None, list[str]]:
    """Validate one parsed record; return (record, diagnostics).

    The diagnostic list is complete (every violated constraint), and the
    record is None whenever any diagnostic is present.
    """
    return _validate(raw, None)


def _validate(raw: Mapping[str, object], memo: dict | None) -> tuple[PublicationRecord | None, list[str]]:
    diagnostics: list[str] = []

    rec_id = raw.get("id")
    if not isinstance(rec_id, str) or not rec_id:
        diagnostics.append("id must be a non-empty string")

    year = raw.get("year")
    if isinstance(year, bool) or not isinstance(year, int):
        diagnostics.append("year must be an integer")

    doc_type_raw = raw.get("doc_type")
    doc_type = _DOC_TYPES.get(doc_type_raw) if isinstance(doc_type_raw, str) else None
    if doc_type is None:
        diagnostics.append(
            f"doc_type must be one of {sorted(_DOC_TYPES)}, got {doc_type_raw!r}"
        )

    journal = raw.get("journal")
    if not isinstance(journal, str) or not journal:
        diagnostics.append("journal must be a non-empty string")

    fields_raw = raw.get("fields")
    fields: tuple[str, ...] = ()
    if not isinstance(fields_raw, (list, tuple)) or not fields_raw:
        diagnostics.append("fields must be a non-empty list")
    elif not all(isinstance(f, str) and f for f in fields_raw):
        diagnostics.append("fields must contain non-empty strings")
    else:
        fields = tuple(fields_raw)
        if len(set(fields)) != len(fields):
            diagnostics.append("duplicate field in fields")

    citations = raw.get("citations")
    if isinstance(citations, bool) or not isinstance(citations, int):
        diagnostics.append("citations must be an integer")
    elif citations < 0:
        diagnostics.append("citations must be non-negative")
    elif citations >= 2**53:  # standardized ratios divide the count as a float
        diagnostics.append("citations must be below 2**53")

    addresses_raw = raw.get("addresses", [])
    addresses: tuple[str, ...] = ()
    if not isinstance(addresses_raw, (list, tuple)) or not all(
        isinstance(a, str) for a in addresses_raw
    ):
        diagnostics.append("addresses must be a list of strings")
    else:
        addresses = tuple(addresses_raw)

    # Optional extension: reconciled corpora round-trip their attributions.
    attributions = _memo_attributions(raw.get("attributions"), diagnostics, memo)

    if diagnostics:
        return None, diagnostics
    record = PublicationRecord(
        id=rec_id,
        year=year,
        doc_type=doc_type,
        journal_id=sys.intern(journal),
        field_ids=tuple(sys.intern(f) for f in fields),
        citations=citations,
        addresses=addresses,
        attributions=attributions,
    )
    return record, []


def _memo_attributions(raw: object, diagnostics: list[str], memo: dict | None) -> tuple[Attribution, ...]:
    """`_parse_attributions` through `memo`, keyed by (org, subunit, weight) when
    every item holds JSON strings as `write_publications_jsonl` writes them.
    Other types stay out of the key (`1` and `true` compare equal but do not
    both validate); only lists that validate are stored."""
    if memo is None or type(raw) is not list or not all(type(item) is dict for item in raw):
        return _parse_attributions(raw, diagnostics)
    key = tuple((item.get("org"), item.get("subunit"), item.get("weight")) for item in raw)
    if not all(type(o) is str and type(w) is str and (s is None or type(s) is str) for o, s, w in key):
        return _parse_attributions(raw, diagnostics)
    parsed = memo.get(key)
    if parsed is None:
        n_diagnostics = len(diagnostics)
        parsed = _parse_attributions(raw, diagnostics)
        if len(diagnostics) == n_diagnostics:
            memo[key] = parsed
    return parsed


def _parse_attributions(raw: object, diagnostics: list[str]) -> tuple[Attribution, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        diagnostics.append("attributions must be a list")
        return ()
    parsed: list[Attribution] = []
    for item in raw:
        if not isinstance(item, dict) or not isinstance(item.get("org"), str):
            diagnostics.append("each attribution needs an 'org' string")
            return ()
        subunit = item.get("subunit")
        if subunit is not None and not isinstance(subunit, str):
            diagnostics.append("attribution 'subunit' must be a string or null")
            return ()
        try:
            weight = Fraction(str(item.get("weight")))
        except (ValueError, ZeroDivisionError):
            diagnostics.append(f"invalid attribution weight {item.get('weight')!r}")
            return ()
        if not 0 < weight <= 1:
            diagnostics.append(f"attribution weight {weight} outside (0, 1]")
            return ()
        parsed.append(Attribution(sys.intern(item["org"]), subunit, weight))
    if parsed and sum((a.weight for a in parsed), Fraction(0)) != 1:
        diagnostics.append("attribution weights must sum to exactly 1")
        return ()
    return tuple(parsed)


PathOrIO = str | Path | IO[str]


@contextmanager
def _open_text(source: PathOrIO):
    """Yield a text stream for a path or an already-open file object.

    A path is opened as UTF-8 and closed on exit; a stream stays open.
    Bytes that do not decode end as a CorpusError naming the source.
    """
    if isinstance(source, (str, Path)):
        stream = open(source, "r", encoding="utf-8", newline="")
    elif hasattr(source, "read"):
        stream = nullcontext(source)
    else:
        raise CorpusError(f"unsupported input source: {source!r}")
    with stream as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            name = source if isinstance(source, (str, Path)) else getattr(source, "name", "input")
            raise CorpusError(f"{name}: not UTF-8 text ({exc.reason})") from None


def _open_out(destination: PathOrIO):
    """Open a path for writing, or pass an already-open stream through unclosed."""
    if isinstance(destination, (str, Path)):
        return open(destination, "w", encoding="utf-8", newline="")
    return nullcontext(destination)


def _read_csv(source: PathOrIO, expected_header: Sequence[str], what: str,
              error: type[CorpusError] = CorpusError):
    """Check the header (else raise `error`); return the non-blank rows as (line number, cells)."""
    with _open_text(source) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise error(f"{what}: empty file") from None
        if [h.strip() for h in header] != list(expected_header):
            raise error(
                f"{what}: expected header {','.join(expected_header)!r}, got {','.join(header)!r}"
            )
        return [(i, row) for i, row in enumerate(reader, start=2) if any(cell.strip() for cell in row)]


def load_journals(source: PathOrIO) -> dict[str, Journal]:
    """Load the journal registry from `journal_id,name,impact_factor,fields` CSV."""
    journals: dict[str, Journal] = {}
    diagnostics: list[str] = []
    for lineno, row in _read_csv(source, ("journal_id", "name", "impact_factor", "fields"), "journals"):
        if len(row) != 4:
            diagnostics.append(f"journals line {lineno}: expected 4 columns, got {len(row)}")
            continue
        jid, name, if_raw, fields_raw = (cell.strip() for cell in row)
        if not jid:
            diagnostics.append(f"journals line {lineno}: empty journal_id")
            continue
        if jid in journals:
            diagnostics.append(f"journals line {lineno}: duplicate journal_id {jid!r}")
            continue
        try:
            impact_factor = float(if_raw)
        except ValueError:
            diagnostics.append(f"journals line {lineno}: invalid impact_factor {if_raw!r}")
            continue
        if not math.isfinite(impact_factor) or impact_factor < 0:
            diagnostics.append(
                f"journals line {lineno}: impact_factor must be finite and non-negative, got {if_raw!r}"
            )
            continue
        fields = tuple(sys.intern(f.strip()) for f in fields_raw.split(";") if f.strip())
        if not fields:
            diagnostics.append(f"journals line {lineno}: journal {jid!r} has no fields")
            continue
        journals[sys.intern(jid)] = Journal(sys.intern(jid), name, impact_factor, fields)
    if diagnostics:
        raise CorpusValidationError(diagnostics)
    return journals


_ORG_TYPES = {ot.value: ot for ot in OrgType}


def load_organizations(source: PathOrIO) -> dict[str, Organization]:
    """Load the organization registry from `org_id,name,org_type,parent_id` CSV."""
    orgs: dict[str, Organization] = {}
    diagnostics: list[str] = []
    for lineno, row in _read_csv(source, ("org_id", "name", "org_type", "parent_id"), "orgs"):
        if len(row) != 4:
            diagnostics.append(f"orgs line {lineno}: expected 4 columns, got {len(row)}")
            continue
        oid, name, type_raw, parent_raw = (cell.strip() for cell in row)
        if not oid:
            diagnostics.append(f"orgs line {lineno}: empty org_id")
            continue
        if oid in orgs:
            diagnostics.append(f"orgs line {lineno}: duplicate org_id {oid!r}")
            continue
        org_type = _ORG_TYPES.get(type_raw)
        if org_type is None:
            diagnostics.append(
                f"orgs line {lineno}: org_type must be one of {sorted(_ORG_TYPES)}, got {type_raw!r}"
            )
            continue
        orgs[sys.intern(oid)] = Organization(
            sys.intern(oid), name, org_type, sys.intern(parent_raw) if parent_raw else None
        )
    # Parent chains: must resolve, be acyclic, and stay within depth 2.
    for org in orgs.values():
        if org.parent_id is None:
            continue
        parent = orgs.get(org.parent_id)
        if parent is None:
            diagnostics.append(f"org {org.id!r}: unknown parent {org.parent_id!r}")
        elif org.parent_id == org.id:
            diagnostics.append(f"org {org.id!r}: is its own parent")
        elif parent.parent_id is not None:
            diagnostics.append(
                f"org {org.id!r}: parent {parent.id!r} is itself a sub-unit (max depth 2)"
            )
    if diagnostics:
        raise CorpusValidationError(diagnostics)
    return orgs


def load_field_scheme(source: PathOrIO) -> FieldScheme:
    """Load the field scheme from `field_id,discipline_id` CSV."""
    mapping: dict[str, str] = {}
    diagnostics: list[str] = []
    for lineno, row in _read_csv(source, ("field_id", "discipline_id"), "fieldscheme"):
        if len(row) != 2:
            diagnostics.append(f"fieldscheme line {lineno}: expected 2 columns, got {len(row)}")
            continue
        fid, did = (cell.strip() for cell in row)
        if not fid or not did:
            diagnostics.append(f"fieldscheme line {lineno}: empty field_id or discipline_id")
            continue
        if fid in mapping:
            diagnostics.append(
                f"fieldscheme line {lineno}: field {fid!r} mapped to more than one discipline"
            )
            continue
        mapping[sys.intern(fid)] = sys.intern(did)
    if diagnostics:
        raise CorpusValidationError(diagnostics)
    return FieldScheme(mapping)


def parse_publications(source: PathOrIO) -> tuple[list[PublicationRecord], list[str]]:
    """Parse publications JSONL into records plus the full diagnostic list.

    Each distinct attribution list is validated once per call: records
    whose lists are equal share one tuple of `Attribution`s. A list that
    fails validation is diagnosed again on every line that carries it.
    """
    records: list[PublicationRecord] = []
    diagnostics: list[str] = []
    seen: set[str] = set()
    attribution_memo: dict[tuple, tuple[Attribution, ...]] = {}
    with _open_text(source) as fh:
        for lineno, line in enumerate(fh, start=1):
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
            record, rec_diags = _validate(raw, attribution_memo)
            if rec_diags:
                rec_id = raw.get("id", "?")
                diagnostics.extend(
                    f"publications line {lineno} (record {rec_id}): {d}" for d in rec_diags
                )
                continue
            assert record is not None
            if record.id in seen:
                diagnostics.append(
                    f"publications line {lineno}: duplicate publication id {record.id!r}"
                )
                continue
            seen.add(record.id)
            records.append(record)
    return records, diagnostics


def parse_corpus(
    publications: PathOrIO,
    journals: PathOrIO,
    orgs: PathOrIO,
    field_scheme: PathOrIO,
    census_date: date | str | None = None,
) -> Corpus:
    """Ingest and validate the four corpus files into an immutable Corpus.

    Record order is normalized to ascending id. Raises
    CorpusValidationError carrying every diagnostic found: malformed
    lines (with line numbers), constraint violations, duplicate ids and
    dangling journal/field/organization references.
    """
    journal_registry = load_journals(journals)
    org_registry = load_organizations(orgs)
    scheme = load_field_scheme(field_scheme)
    records, diagnostics = parse_publications(publications)

    dangling_journals = {rec.journal_id for rec in records}.difference(journal_registry)
    field_refs = {f for rec in records for f in rec.field_ids}
    field_refs.update(f for journal in journal_registry.values() for f in journal.field_ids)
    dangling_fields = field_refs.difference(scheme.field_to_discipline)
    # Ingest shares one tuple per distinct attribution list: dedupe by identity,
    # since hashing the tuples would hash every weight.
    attributions = {a for t in {id(r.attributions): r.attributions for r in records}.values() for a in t}
    dangling_orgs = {a.org_id for a in attributions}.difference(org_registry)
    dangling_orgs.update(
        a.subunit_id for a in attributions if a.subunit_id is not None
        and (a.subunit_id not in org_registry or org_registry[a.subunit_id].parent_id != a.org_id)
    )
    dangling = (("journal", dangling_journals), ("field", dangling_fields), ("organization", dangling_orgs))
    for what, names in dangling:
        if names:
            diagnostics.append(f"dangling {what} reference(s): " + ", ".join(sorted(names)))
    if diagnostics:
        raise CorpusValidationError(diagnostics)

    records.sort(key=lambda r: r.id)
    return Corpus(
        records=tuple(records),
        journals=journal_registry,
        organizations=org_registry,
        field_scheme=scheme,
        census_date=_as_date(census_date, "census_date") if census_date is not None else None,
    )


def write_publications_jsonl(corpus: Corpus, destination: str | Path | IO[str]) -> None:
    """Write records back to the publications JSONL format.

    Attributions, when present, are carried in an optional key with exact
    fractional weights so reconciled corpora survive a round trip.
    """
    # Records share one attribution tuple per distinct list, and the corpus keeps
    # every tuple alive, so each is encoded once, keyed by identity.
    encoded: dict[int, str] = {}
    with _open_out(destination) as fh:
        for rec in corpus.records:
            line = json.dumps({
                "id": rec.id,
                "year": rec.year,
                "doc_type": rec.doc_type.value,
                "journal": rec.journal_id,
                "fields": list(rec.field_ids),
                "citations": rec.citations,
                "addresses": list(rec.addresses),
            })
            if rec.attributions:
                text = encoded.get(id(rec.attributions))
                if text is None:
                    text = encoded[id(rec.attributions)] = json.dumps([
                        {"org": a.org_id, "subunit": a.subunit_id,
                         "weight": f"{a.weight.numerator}/{a.weight.denominator}"}
                        for a in rec.attributions
                    ])
                line = f'{line[:-1]}, "attributions": {text}}}'
            fh.write(line + "\n")
