"""Domain model and ingest for publication corpora.

A corpus bundles publication records with the journal, organization and
field registries they reference. Ingest decodes each publication line
straight into integer-coded columns (`columns.RecordColumns`), validates
every cross reference once per distinct value, sorts the records by id,
and yields an immutable object that downstream stages (reconciliation,
benchmarks, indicators) can share freely across threads. The columns
are the corpus's only stored form of its records; `Corpus.records`
builds `PublicationRecord` views from them on demand.

`write_snapshot` stores a written JSONL's columns in a sibling file keyed
by the JSONL's sha256 and sealed by the sha256 of its own body;
`parse_corpus` loads them instead of decoding the JSON while the key and
the seal match, and parses as usual on any mismatch.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import re
import sys
from collections.abc import Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from datetime import date, datetime
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Mapping, NamedTuple

import numpy as np

from . import __version__
from .columns import CODED, RecordColumns, encode, select


# Every citation count, and every count n of a benchmark cell, is below this:
# standardized ratios divide a count as a float, exact for integers below 2**53,
# and 1 / n must not round to 0.
_COUNT_BOUND = 2**53


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


class RecordView(Sequence):
    """The rows of record columns as a read-only sequence of `PublicationRecord`s,
    each built when read and not kept. It equals any sequence of equal records."""

    __slots__ = ("_columns",)

    def __init__(self, columns: RecordColumns):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns.ids)

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return tuple(self._build(index))
        row = range(len(self))[index]  # IndexError past either end
        return next(self._build(slice(row, row + 1)))

    def __iter__(self):
        return self._build(slice(None))

    def _build(self, rows: slice):
        cols = self._columns

        def pick(values, codes):
            return map(values.__getitem__, codes[rows].tolist())

        return map(
            PublicationRecord, cols.ids[rows], pick(cols.years, cols.year), pick(cols.doc_types, cols.doc_type),
            pick(cols.journals, cols.journal), pick(cols.field_tuples, cols.fields), cols.citations[rows].tolist(),
            pick(cols.address_lists, cols.addresses), pick(cols.attribution_tuples, cols.attributions),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


class CorpusSummary(NamedTuple):
    n_records: int
    n_journals: int
    n_organizations: int
    doc_type_counts: dict[str, int]


@dataclass(frozen=True, slots=True, eq=False)
class Corpus:
    """Immutable, validated snapshot of records, as columns in id order, plus their registries."""

    columns: RecordColumns
    journals: Mapping[str, Journal]
    organizations: Mapping[str, Organization]
    field_scheme: FieldScheme
    census_date: date | None = None

    @property
    def records(self) -> RecordView:
        """The records as `PublicationRecord`s in id order, each built when read."""
        return RecordView(self.columns)

    def summary(self) -> CorpusSummary:
        cols = self.columns
        counts = {dt.value: 0 for dt in DocType}
        for dt, n in zip(cols.doc_types, np.bincount(cols.doc_type, minlength=len(cols.doc_types)).tolist()):
            counts[dt.value] = n
        return CorpusSummary(
            n_records=len(cols.ids),
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
        if citation_events >= _COUNT_BOUND:
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
    """A date, or a string of the form YYYY-MM-DD in ASCII digits, as a date.

    The syntax is checked here because `date.fromisoformat` accepts more on
    Python 3.11 and later (`20090630`, `2009-W26-2`) than on 3.10."""
    if isinstance(value, datetime):
        return value.date()
    if isinstance(value, date):
        return value
    text = str(value)
    if _ISO_DATE.fullmatch(text):
        try:
            return date.fromisoformat(text)
        except ValueError:  # a month or day out of range
            pass
    raise CorpusError(f"{what}: invalid ISO date {value!r}")


_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


_DOC_TYPES = {dt.value: dt for dt in DocType}


def validate_record(raw: Mapping[str, object]) -> tuple[PublicationRecord | None, list[str]]:
    """Validate one parsed record; return (record, diagnostics).

    The diagnostic list is complete (every violated constraint), and the
    record is None whenever any diagnostic is present.
    """
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
    elif citations >= _COUNT_BOUND:
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
    attributions = _parse_attributions(raw.get("attributions"), diagnostics)

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


def _memo_attributions(raw: object, diagnostics: list[str], memo: dict) -> tuple[Attribution, ...]:
    """`_parse_attributions` through `memo`, keyed by (org, subunit, weight) per
    item. Only lists whose keys hold JSON strings, as `write_publications_jsonl`
    writes them, are stored (`1` and `true` compare equal but do not both
    validate), so a key that finds an entry holds strings too."""
    if type(raw) is not list:
        return _parse_attributions(raw, diagnostics)
    try:
        key = tuple([(item.get("org"), item.get("subunit"), item.get("weight")) for item in raw])
        parsed = memo.get(key)
    except (AttributeError, TypeError):  # an item that is no dict, or a value that is a list or dict
        return _parse_attributions(raw, diagnostics)
    if parsed is None:
        n_diagnostics = len(diagnostics)
        parsed = _parse_attributions(raw, diagnostics)
        if len(diagnostics) == n_diagnostics and all(
            type(o) is str and type(w) is str and (s is None or type(s) is str) for o, s, w in key
        ):
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
        if len(set(fields)) != len(fields):
            diagnostics.append(f"journals line {lineno}: journal {jid!r} lists a field more than once")
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


def _target_fault(organizations: Mapping[str, Organization], org_id: str, subunit_id: str | None) -> str | None:
    """Why (org_id, subunit_id) cannot be credited, or None if it can: the
    organization must be a registered one that is not a sub-unit, and the
    sub-unit, if any, one of its own."""
    org, subunit = organizations.get(org_id), organizations.get(subunit_id)
    if org is None:
        return f"unknown organization {org_id!r}"
    if org.parent_id is not None:
        return f"{org_id!r} is a sub-unit of {org.parent_id!r}, not an organization"
    if subunit_id is not None and subunit is None:
        return f"unknown sub-unit {subunit_id!r}"
    if subunit_id is not None and subunit.parent_id != org_id:
        return f"sub-unit {subunit_id!r} does not belong to {org_id!r}"
    return None


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


def _valid_fields(fields: tuple) -> bool:
    return bool(fields) and all(type(f) is str and f for f in fields) and len(set(fields)) == len(fields)


def _read_columns(source: PathOrIO) -> tuple[RecordColumns, list[str]]:
    """Decode publications JSONL into columns in file order, plus the full
    diagnostic list; the distinct-value tuples may hold values that no
    kept record uses (`columns.select` drops them).

    A line takes the fast path when id, year, doc type, journal and
    citations have their JSON types and ranges and fields and addresses
    are lists: each distinct field tuple and address list is checked the
    first time it is seen, and each distinct attribution list validated
    once by `_memo_attributions`, so equal lists share one tuple. Every
    other line goes through `validate_record`, so each diagnostic keeps
    its text and its order.
    """
    ids, seen, diagnostics, rejected = [], set(), [], []
    coded = ([], [], [], [], [], [], [])  # codes into the dicts below, then citations
    add_year, add_journal, add_doc_type, add_fields, add_addresses, add_attributions, add_citations = (
        c.append for c in coded
    )
    # Distinct value -> code, its place in the dict; -1 for a field tuple or
    # address list that does not validate. Attribution tuples go by identity,
    # and the dict keeps each alive.
    year_codes, journal_codes, doc_codes, field_codes, address_codes = {}, {}, {}, {}, {}
    attribution_codes: dict[int, tuple[int, tuple[Attribution, ...]]] = {}
    memo: dict[tuple, tuple[Attribution, ...]] = {}
    # The scanner of `json.loads`; a line that is more than one JSON value
    # and "\n" goes through `json.loads` itself.
    scan = json.JSONDecoder().scan_once
    with _open_text(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                raw, end = scan(line, 0)
                whole = end == len(line) - 1 and line[end] == "\n"
            except (ValueError, StopIteration, RecursionError):
                whole = False
            if not whole:
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
            f = a = -1
            try:
                rec_id, y, doc, jid, cites = raw["id"], raw["year"], raw["doc_type"], raw["journal"], raw["citations"]
                field_list, address_list = raw["fields"], raw.get("addresses", [])
                if (type(rec_id) is str and rec_id and type(y) is int and type(doc) is str and doc in _DOC_TYPES
                        and type(jid) is str and jid and type(cites) is int and 0 <= cites < _COUNT_BOUND
                        and type(field_list) is list and type(address_list) is list):
                    field_key, address_key = tuple(field_list), tuple(address_list)
                    if (f := field_codes.get(field_key)) is None:
                        f = field_codes[field_key] = len(field_codes) if _valid_fields(field_key) else -1
                    if (a := address_codes.get(address_key)) is None:
                        valid = all(type(s) is str for s in address_key)
                        a = address_codes[address_key] = len(address_codes) if valid else -1
                    atts = raw.get("attributions")
                    atts = () if atts is None else _memo_attributions(atts, rejected, memo)
                    if rejected:
                        rejected.clear()
                        f = -1
            except (KeyError, TypeError):  # a missing key or an unhashable item, which `validate_record` diagnoses
                f = -1
            if f < 0 or a < 0:  # every such JSON line fails a check of `validate_record`
                _, rec_diags = validate_record(raw)
                rec_id = raw.get("id", "?")
                diagnostics.extend(f"publications line {lineno} (record {rec_id}): {d}" for d in rec_diags)
                continue
            if rec_id in seen:
                diagnostics.append(f"publications line {lineno}: duplicate publication id {rec_id!r}")
                continue
            seen.add(rec_id)
            ids.append(rec_id)
            add_year(year_codes.setdefault(y, len(year_codes)))
            add_journal(journal_codes.setdefault(jid, len(journal_codes)))
            add_doc_type(doc_codes.setdefault(doc, len(doc_codes)))
            add_fields(f)
            add_addresses(a)
            add_attributions(attribution_codes.setdefault(id(atts), (len(attribution_codes), atts))[0])
            add_citations(cites)
    by_value, attribution_tuples = encode(atts for _, atts in attribution_codes.values())
    year, journal, doc_type, fields, addresses, attributions = (np.array(c, np.int32) for c in coded[:6])
    return RecordColumns(
        tuple(ids), year, journal, doc_type, fields, addresses, by_value[attributions], np.array(coded[6], np.int64),
        tuple(year_codes), tuple(journal_codes), tuple(map(_DOC_TYPES.get, doc_codes)), tuple(field_codes),
        tuple(address_codes), attribution_tuples,
    ), diagnostics


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
    dangling journal/field/organization references. A publications path
    whose snapshot (`write_snapshot`) matches its bytes is loaded from
    the snapshot; the registries, the sort and the reference checks run
    on either path.
    """
    journal_registry = load_journals(journals)
    org_registry = load_organizations(orgs)
    scheme = load_field_scheme(field_scheme)
    cols, diagnostics = _load_snapshot(publications) or _read_columns(publications)
    # Python string order; a numpy str array would drop trailing NULs.
    cols = select(cols, np.array(sorted(range(len(cols.ids)), key=cols.ids.__getitem__), np.intp))

    dangling_journals = set(cols.journals).difference(journal_registry)
    field_refs = {f for t in cols.field_tuples for f in t}
    field_refs.update(f for journal in journal_registry.values() for f in journal.field_ids)
    dangling_fields = field_refs.difference(scheme.field_to_discipline)
    targets = {(a.org_id, a.subunit_id) for t in cols.attribution_tuples for a in t}
    # List each id at fault. A sub-unit's parent is never itself a sub-unit, so
    # a sub-unit named beside an organization at fault is at fault too.
    dangling_orgs = {o for o, _ in targets if _target_fault(org_registry, o, None)}
    dangling_orgs.update(s for o, s in targets if s is not None and _target_fault(org_registry, o, s))
    dangling = (("journal", dangling_journals), ("field", dangling_fields), ("organization", dangling_orgs))
    for what, names in dangling:
        if names:
            diagnostics.append(f"dangling {what} reference(s): " + ", ".join(sorted(names)))
    if diagnostics:
        raise CorpusValidationError(diagnostics)

    return Corpus(
        columns=cols,
        journals=journal_registry,
        organizations=org_registry,
        field_scheme=scheme,
        census_date=_as_date(census_date, "census_date") if census_date is not None else None,
    )


def write_publications_jsonl(corpus: Corpus, destination: str | Path | IO[str]) -> None:
    """Write records back to the publications JSONL format, in id order.

    Attributions, when present, are carried in an optional key with exact
    fractional weights so reconciled corpora survive a round trip."""
    _write_columns(corpus.columns, destination)


def _write_columns(cols: RecordColumns, destination: str | Path | IO[str]) -> None:
    """The publications format's one encoder: a line per row of `cols`, in
    column order. Each distinct year, doc type, journal, field tuple, address
    list and attribution tuple is encoded once; per record only the id and the
    citation count are. Each line reads as `json.dumps` of the record. A code
    need only index its tuple: the tuples may hold values no row uses."""
    dumps, encode_id = json.dumps, json.encoder.encode_basestring_ascii
    years = [str(y) for y in cols.years]
    doc_types = [dumps(dt.value) for dt in cols.doc_types]
    journals = [dumps(j) for j in cols.journals]
    fields = [dumps(list(t)) for t in cols.field_tuples]
    addresses = [dumps(list(t)) for t in cols.address_lists]
    attributions = [', "attributions": ' + dumps(_attribution_items(t)) if t else "" for t in cols.attribution_tuples]
    rows = zip(cols.ids, cols.year.tolist(), cols.doc_type.tolist(), cols.journal.tolist(), cols.fields.tolist(),
               cols.citations.tolist(), cols.addresses.tolist(), cols.attributions.tolist())
    with _open_out(destination) as fh:
        fh.writelines(
            f'{{"id": {encode_id(i)}, "year": {years[y]}, "doc_type": {doc_types[d]}, '
            f'"journal": {journals[j]}, "fields": {fields[f]}, "citations": {c}, '
            f'"addresses": {addresses[a]}{attributions[t]}}}\n'
            for i, y, d, j, f, c, a, t in rows
        )


def _attribution_items(attributions: tuple[Attribution, ...]) -> list[dict]:
    """An attribution tuple as the JSON list that ingest reads, weights as "n/d"."""
    return [
        {"org": a.org_id, "subunit": a.subunit_id, "weight": f"{a.weight.numerator}/{a.weight.denominator}"}
        for a in attributions
    ]


#: Bump whenever ingest validation or the snapshot layout changes: a
#: snapshot written under another value no longer loads.
SNAPSHOT_FORMAT = 2
# The stored arrays, in file order, as explicit little-endian bytes.
_SNAPSHOT_ARRAYS = (*((code, np.dtype("<i4")) for code, _ in CODED), ("citations", np.dtype("<i8")))
# Values per JSON line, so that no line, and no buffer that holds one,
# grows with the corpus.
_SNAPSHOT_LINE = 4096
# Hex digits of the seal that ends the key line.
_SEAL = 64


def snapshot_path(publications: str | Path) -> Path:
    """The snapshot that belongs to a publications JSONL: its name plus `.snapshot`."""
    path = Path(publications)
    return path.with_name(path.name + ".snapshot")


def _snapshot_key(publications: str | Path) -> bytes:
    """A snapshot's first line up to its seal: magic, format, version and the
    sha256 of the JSONL's bytes. The seal, the sha256 of every byte after the
    line, and a newline end the line."""
    with open(publications, "rb") as fh:
        return f"fieldimpact-snapshot {SNAPSHOT_FORMAT} {__version__} {_sha256(fh)} ".encode()


def _sha256(fh: IO[bytes]) -> str:
    """The hex sha256 of the rest of `fh`, read in 64 KiB chunks."""
    digest = hashlib.sha256()
    while chunk := fh.read(1 << 16):
        digest.update(chunk)
    return digest.hexdigest()


def write_snapshot(corpus: Corpus, publications: str | Path) -> Path:
    """Store `corpus`'s columns next to `publications`, which must hold
    `write_publications_jsonl(corpus)`, and return the snapshot's path.

    After the key line, whose seal is the sha256 of every later byte, a JSON
    line holds the lengths of the ids and of the six distinct-value tuples,
    and JSON lines of at most `_SNAPSHOT_LINE` values each hold their values,
    in that order; the code and citation arrays follow as raw bytes. The
    bytes are a function of the corpus alone.
    """
    cols = corpus.columns
    tuples = (cols.ids, cols.years, cols.journals, [dt.value for dt in cols.doc_types], cols.field_tuples,
              cols.address_lists, [_attribution_items(t) for t in cols.attribution_tuples])
    path = snapshot_path(publications)
    key = _snapshot_key(publications)
    with open(path, "w+b") as fh:
        fh.write(key + b"0" * _SEAL + b"\n")  # the seal's place, filled in once the body is written
        fh.write(json.dumps([len(values) for values in tuples]).encode() + b"\n")  # ASCII, so one line
        for values in tuples:
            for i in range(0, len(values), _SNAPSHOT_LINE):
                fh.write(json.dumps(values[i:i + _SNAPSHOT_LINE]).encode() + b"\n")
        for name, dtype in _SNAPSHOT_ARRAYS:
            fh.write(np.ascontiguousarray(getattr(cols, name), dtype))
        fh.seek(len(key) + _SEAL + 1)
        seal = _sha256(fh)
        fh.seek(len(key))
        fh.write(seal.encode())
    return path


def _load_snapshot(publications: PathOrIO) -> tuple[RecordColumns, list[str]] | None:
    """The columns stored for a publications path, in file order with no
    diagnostics, as `_read_columns` gives them; None (parse the JSONL) when
    there is no snapshot, its key does not match the file, its seal does not
    match its body, or its body is not what `write_snapshot` writes. The
    body is hashed in chunks before any of it is decoded."""
    if not isinstance(publications, (str, Path)):
        return None
    try:
        with open(snapshot_path(publications), "rb") as fh:
            key = _snapshot_key(publications)
            line = fh.read(len(key) + _SEAL + 1)
            if line != key + _sha256(fh).encode() + b"\n":
                return None
            fh.seek(len(line))
            return _snapshot_columns(fh), []
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return None


def _snapshot_columns(fh: IO[bytes]) -> RecordColumns:
    """Decode the rest of a snapshot after its key line. Raises ValueError,
    TypeError or KeyError for bad JSON, a value of the wrong type, an empty
    or repeated id, an empty journal id, a count its lines do not hold,
    arrays whose length is not the id count, or a code outside its values."""

    def read_values(count: int) -> list:
        found: list = []
        while len(found) < count:
            line = json.loads(fh.readline())
            if type(line) is not list:
                raise ValueError("snapshot line holds no list")
            found += line
        if len(found) != count:
            raise ValueError("snapshot lines hold more values than their count")
        return found

    counts = json.loads(fh.readline())
    ids, years, journals, doc_types, field_tuples, address_lists, attributions = map(read_values, counts)
    ids, years, journals = tuple(ids), tuple(years), tuple(journals)
    field_tuples, address_lists = tuple(map(tuple, field_tuples)), tuple(map(tuple, address_lists))
    rejected: list[str] = []
    attribution_tuples = tuple(_parse_attributions(t, rejected) for t in attributions)
    if rejected or not (all(type(i) is str and i for i in ids) and all(type(y) is int for y in years)
                        and all(type(j) is str and j for j in journals) and all(map(_valid_fields, field_tuples))
                        and all(type(a) is str for t in address_lists for a in t) and len(set(ids)) == len(ids)):
        raise ValueError("snapshot value of the wrong type, empty or repeated")
    n, arrays = len(ids), {}
    for name, dtype in _SNAPSHOT_ARRAYS:
        array = np.empty(n, dtype)
        if fh.readinto(array) != array.nbytes:
            raise ValueError("snapshot arrays shorter than the id count")
        arrays[name] = array.astype(dtype.newbyteorder("="), copy=False)
    if fh.read(1):
        raise ValueError("snapshot arrays longer than the id count")
    cols = RecordColumns(
        ids=ids, **arrays, years=years, journals=journals, doc_types=tuple(_DOC_TYPES[d] for d in doc_types),
        field_tuples=field_tuples, address_lists=address_lists, attribution_tuples=attribution_tuples,
    )
    for code, values in CODED:
        codes = getattr(cols, code)
        if n and not 0 <= codes.min() <= codes.max() < len(getattr(cols, values)):
            raise ValueError(f"snapshot {code} code out of range")
    if n and not 0 <= cols.citations.min() <= cols.citations.max() < _COUNT_BOUND:
        raise ValueError("snapshot citation count out of range")
    return cols
