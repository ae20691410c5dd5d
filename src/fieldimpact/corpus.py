"""Domain model and ingest for publication corpora.

A corpus bundles publication records with the journal, organization and
field registries they reference. Ingest decodes each publication line
straight into integer-coded columns (`columns.RecordColumns`), checks
each distinct value of a key and every cross reference once (the line
checks are one table, `_LINE_CHECKS`), sorts the records by id, and
yields an immutable object that downstream stages (reconciliation,
benchmarks, indicators) can share freely across threads. The columns
are the corpus's only stored form of its records; `Corpus.records`
builds `PublicationRecord` views from them on demand.

`write_snapshot` stores the columns that parsing a JSONL gives next to
it, keyed by the JSONL's sha256 and sealed by the sha256 of its own body;
`reconcile` stores those of its raw input the same way in its output
directory, as `input-<sha256>.snapshot`. `parse_corpus` loads them
instead of decoding the JSON while the key and the seal match and every
stored value passes the same checks, and parses as usual on any
mismatch. A snapshot already in id order, with its codes numbered as
`columns.select` numbers them, is kept as loaded; any other is sorted.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
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
from itertools import islice, repeat
from pathlib import Path
from typing import IO, Iterable, Mapping, NamedTuple

import numpy as np

from . import __version__
from .columns import CODED, RecordColumns, encode, select


# Every citation count, and every count n of a benchmark cell, is below this:
# standardized ratios divide a count as a float, exact for integers below 2**53,
# and 1 / n must not round to 0.
_COUNT_BOUND = 2**53

_JOURNALS_HEADER = ("journal_id", "name", "impact_factor", "fields")
_ORGS_HEADER = ("org_id", "name", "org_type", "parent_id")
_FIELD_SCHEME_HEADER = ("field_id", "discipline_id")


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
    ignored) when ingest's citation check accepts it: non-negative and
    below 2**53. Events dated before the publication year are counted but
    flagged, since such noise occurs in real exports.
    """
    if isinstance(citation_events, bool):
        raise CorpusError("citation_events must be dates or an integer count")
    if isinstance(citation_events, int):
        problems = _check_citations(int(citation_events))
        if problems:
            raise CorpusError(problems[0])
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
# An attribution weight from its text, as an exact rational: a corpus repeats
# few weights, which an attribution check and its stored form both parse.
_weight = functools.lru_cache(maxsize=1024)(Fraction)


def _check_id(value) -> tuple[str, ...]:
    return () if type(value) is str and value else ("id must be a non-empty string",)


def _check_year(value) -> tuple[str, ...]:
    return () if type(value) is int else ("year must be an integer",)


def _check_doc_type(value) -> tuple[str, ...]:
    valid = type(value) is str and value in _DOC_TYPES
    return () if valid else (f"doc_type must be one of {sorted(_DOC_TYPES)}, got {value!r}",)


def _check_journal(value) -> tuple[str, ...]:
    return () if type(value) is str and value else ("journal must be a non-empty string",)


def _check_fields(value) -> tuple[str, ...]:
    if type(value) is not list or not value:
        return ("fields must be a non-empty list",)
    if not all(type(f) is str and f for f in value):
        return ("fields must contain non-empty strings",)
    return ("duplicate field in fields",) if len(set(value)) != len(value) else ()


def _check_citations(value) -> tuple[str, ...]:
    if type(value) is not int:
        return ("citations must be an integer",)
    if value < 0:
        return ("citations must be non-negative",)
    return ("citations must be below 2**53",) if value >= _COUNT_BOUND else ()


def _check_addresses(value) -> tuple[str, ...]:
    valid = type(value) is list and all(type(a) is str for a in value)
    return () if valid else ("addresses must be a list of strings",)


def _check_attributions(value) -> tuple[str, ...]:
    if value is None:
        return ()
    if type(value) is not list:
        return ("attributions must be a list",)
    total = Fraction(0)
    for item in value:
        if type(item) is not dict or type(item.get("org")) is not str:
            return ("each attribution needs an 'org' string",)
        subunit = item.get("subunit")
        if subunit is not None and type(subunit) is not str:
            return ("attribution 'subunit' must be a string or null",)
        try:
            weight = _weight(str(item.get("weight")))
        except (ValueError, ZeroDivisionError):
            return (f"invalid attribution weight {item.get('weight')!r}",)
        if not 0 < weight <= 1:
            return (f"attribution weight {weight} outside (0, 1]",)
        total += weight
    if value and total != 1:
        return ("attribution weights must sum to exactly 1",)
    return ()


def _attributions(value: list | None) -> tuple[Attribution, ...]:
    """A checked attribution list as `Attribution`s."""
    return tuple(Attribution(sys.intern(item["org"]), item.get("subunit"), _weight(str(item.get("weight"))))
                 for item in value or ())


#: Each key of a publication line, its check, and the function that gives a
#: checked value's stored form, in message order. A check takes the key's
#: raw JSON value, None when the key is absent ([] for addresses), and
#: returns its messages.
_LINE_CHECKS = (
    ("id", _check_id, str), ("year", _check_year, int), ("doc_type", _check_doc_type, _DOC_TYPES.__getitem__),
    ("journal", _check_journal, str), ("fields", _check_fields, tuple), ("citations", _check_citations, int),
    ("addresses", _check_addresses, tuple), ("attributions", _check_attributions, _attributions),
)


PathOrIO = str | Path | IO[str]


class _HashingReader(io.RawIOBase):
    """A file's bytes, read unbuffered, each also fed to `sha`."""

    def __init__(self, path: str | Path, sha: hashlib._Hash):
        super().__init__()
        self._file, self._sha = open(path, "rb", buffering=0), sha

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        self._sha.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


@contextmanager
def _open_text(source: PathOrIO, sha: hashlib._Hash | None = None):
    """Yield a text stream for a path or an already-open file object.

    A path is opened as UTF-8 and closed on exit, and with `sha` every byte
    read from it also updates `sha`; a stream stays open. Bytes that do not
    decode end as a CorpusError naming the source.
    """
    if isinstance(source, (str, Path)):
        if sha is None:
            stream = open(source, "r", encoding="utf-8", newline="")
        else:
            stream = io.TextIOWrapper(io.BufferedReader(_HashingReader(source, sha), 1 << 16), "utf-8", newline="")
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
    for lineno, row in _read_csv(source, _JOURNALS_HEADER, "journals"):
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
    for lineno, row in _read_csv(source, _ORGS_HEADER, "orgs"):
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
    for lineno, row in _read_csv(source, _FIELD_SCHEME_HEADER, "fieldscheme"):
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


# A memo key that no memo holds: the value's entry is its own.
_FRESH = object()


class _Distinct:
    """The distinct values of one key of the publication lines, each checked
    once. `memo` maps a value's memo key to its code: the index of its stored
    form in `values` if `check` gives no message, else -1 less the index of
    its messages in `faults`, which the keys of a file share; a value whose
    memo key is `_FRESH` gets an entry of its own."""

    def __init__(self, check, stored, faults: list):
        self.check, self.stored, self.memo, self.values, self.faults = check, stored, {}, [], faults

    def code(self, value, key) -> int:
        messages = self.check(value)
        if messages:
            self.faults.append(messages)
        else:
            stored = self.stored(value)
            self.values.append(key if key == stored else stored)  # a list's key is its stored form
        code = -len(self.faults) if messages else len(self.values) - 1
        if key is not _FRESH:
            self.memo[key] = code
        return code


def _attribution_key(value: list):
    """An attribution list's memo key, (org, subunit, weight) per item, if each
    item is an object whose values are strings, the subunit also null, as
    `write_publications_jsonl` writes them; else `_FRESH`."""
    try:
        key = tuple([(item.get("org"), item.get("subunit"), item.get("weight")) for item in value])
    except AttributeError:  # an item that is no object
        return _FRESH
    exact = all(type(o) is str and type(w) is str and (s is None or type(s) is str) for o, s, w in key)
    return key if exact else _FRESH


def _read_columns(source: PathOrIO, sha: hashlib._Hash | None = None) -> tuple[RecordColumns, list[str]]:
    """Decode publications JSONL into columns in file order, plus the full
    diagnostic list; the distinct-value tuples may hold values that no
    kept record uses (`columns.select` drops them). With `sha`, every byte
    decoded from a path also updates it.

    Every line takes one path: the id is checked on each line, and each
    check of `_LINE_CHECKS` runs once per distinct value of its key. A
    value shares a memo entry only with one of the key's exact JSON type:
    `True`, `1` and `1.0` hash alike, yet do not all pass, and doc type and
    weight messages print the value's repr. A line's diagnostics are its
    values' messages in table order; only a line with none is checked for
    a duplicate id.
    """
    ids, seen, diagnostics, faults, citations = [], set(), [], [], []
    columns = [_Distinct(check, stored, faults) for _, check, stored in _LINE_CHECKS[1:]]
    years, doc_types, journals, fields, citation_checks, addresses, attributions = columns
    year_get, doc_get, journal_get, field_get, citation_get, address_get, attribution_get = (
        column.memo.get for column in columns)
    coded = ([], [], [], [], [], [])  # codes per line into `values` of the columns but citations
    add_year, add_doc_type, add_journal, add_fields, add_addresses, add_attributions = (c.append for c in coded)
    add_citations, check_id, fresh = citations.append, _check_id, _FRESH
    # The scanner of `json.loads`; a line that is more than one JSON value
    # and "\n" goes through `json.loads` itself.
    scan = json.JSONDecoder().scan_once
    with _open_text(source, sha) as fh:
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
            try:
                rec_id, y, d, j, f, c = (raw["id"], raw["year"], raw["doc_type"], raw["journal"], raw["fields"],
                                         raw["citations"])
            except KeyError:  # an absent key's value is None
                rec_id, y, d, j, f, c = map(raw.get, ("id", "year", "doc_type", "journal", "fields", "citations"))
            a, t = raw.get("addresses", []), raw.get("attributions")
            try:
                if (yc := year_get(yk := y if type(y) is int else fresh)) is None:
                    yc = years.code(y, yk)
                if (dc := doc_get(dk := d if type(d) is str else fresh)) is None:
                    dc = doc_types.code(d, dk)
                if (jc := journal_get(jk := j if type(j) is str else fresh)) is None:
                    jc = journals.code(j, jk)
                if (fc := field_get(fk := tuple(f) if type(f) is list else fresh)) is None:
                    fc = fields.code(f, fk)
                if (cc := citation_get(ck := c if type(c) is int else fresh)) is None:
                    cc = citation_checks.code(c, ck)
                if (ac := address_get(ak := tuple(a) if type(a) is list else fresh)) is None:
                    ac = addresses.code(a, ak)
                tk = t if t is None else _attribution_key(t) if type(t) is list else fresh
                if (tc := attribution_get(tk)) is None:
                    tc = attributions.code(t, tk)
            except TypeError:  # an unhashable item in a list: each value gets an entry of its own
                yc, dc, jc, fc, cc, ac, tc = map(_Distinct.code, columns, (y, d, j, f, c, a, t), repeat(fresh))
            messages = check_id(rec_id)
            if messages or (yc | dc | jc | fc | cc | ac | tc) < 0:
                messages += tuple(m for code in (yc, dc, jc, fc, cc, ac, tc) if code < 0 for m in faults[~code])
                diagnostics.extend(f"publications line {lineno} (record {raw.get('id', '?')}): {m}" for m in messages)
                continue
            if rec_id in seen:
                diagnostics.append(f"publications line {lineno}: duplicate publication id {rec_id!r}")
                continue
            seen.add(rec_id)
            ids.append(rec_id)
            add_year(yc)
            add_doc_type(dc)
            add_journal(jc)
            add_fields(fc)
            add_addresses(ac)
            add_attributions(tc)
            add_citations(c)
    by_value, attribution_tuples = encode(attributions.values)
    year, doc_type, journal, field, address, attribution = (np.array(c, np.int32) for c in coded)
    return RecordColumns(
        tuple(ids), year, journal, doc_type, field, address, by_value[attribution], np.array(citations, np.int64),
        tuple(years.values), tuple(journals.values), tuple(doc_types.values), tuple(fields.values),
        tuple(addresses.values), attribution_tuples,
    ), diagnostics


def parse_corpus(
    publications: PathOrIO,
    journals: PathOrIO,
    orgs: PathOrIO,
    field_scheme: PathOrIO,
    *,
    snapshot_dir: str | Path | None = None,
) -> Corpus:
    """Ingest and validate the four corpus files into an immutable Corpus.

    Record order is normalized to ascending id. Raises
    CorpusValidationError carrying every diagnostic found: malformed
    lines (with line numbers), constraint violations, duplicate ids and
    dangling journal/field/organization references. A publications path
    whose snapshot (`write_snapshot`) matches its bytes is loaded from
    the snapshot: the one next to the file, else, given `snapshot_dir`,
    the one named by the file's sha256 in that directory. Without
    `snapshot_dir` the file is hashed only when a snapshot lies next to
    it; with it, exactly once. The registries, the sort and the reference
    checks run on either path.
    """
    return _ingest(publications, journals, orgs, field_scheme, snapshot_dir)[0]


def _ingest(
    publications: PathOrIO,
    journals: PathOrIO,
    orgs: PathOrIO,
    field_scheme: PathOrIO,
    snapshot_dir: str | Path | None,
    store: bool = False,
) -> tuple[Corpus, str | None]:
    """`parse_corpus`, and, with `store`, the sha256 of the bytes that the
    JSON parse of a publications path decoded, else None: the digest under
    which `reconcile` stores the parsed columns (`_write_input_snapshot`).
    It is taken from the decoded bytes, not from the lookup's read, so a
    file that changes in between is stored under its new bytes."""
    journal_registry = load_journals(journals)
    org_registry = load_organizations(orgs)
    scheme = load_field_scheme(field_scheme)
    loaded = _find_snapshot(publications, snapshot_dir)
    sha = hashlib.sha256() if store and not loaded and isinstance(publications, (str, Path)) else None
    cols, diagnostics = (loaded[0], []) if loaded else _read_columns(publications, sha)
    if loaded and _in_select_order(*loaded):
        # What `select` would give, without the sort and the renumbering. The ids
        # and arrays are copied: the loaded ones were allocated among the loader's
        # temporaries, and kept, they hold that freed memory resident (3 MB more
        # peak RSS in the 100k-record chain).
        cols = cols._replace(ids=tuple(iter(cols.ids)), **{a: getattr(cols, a).copy() for a, _ in _SNAPSHOT_ARRAYS})
    else:
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

    corpus = Corpus(columns=cols, journals=journal_registry, organizations=org_registry, field_scheme=scheme)
    return corpus, sha and sha.hexdigest()


def _in_select_order(cols: RecordColumns, increasing: bool) -> bool:
    """Whether sorting `cols` by id would give them back unchanged: the ids
    strictly increase (`increasing`, as `_load_snapshot` found), and each
    code column numbers its values in order of first appearance with every
    value used, as `columns.select` numbers them."""
    if not increasing:
        return False
    for code, values in CODED:
        codes, n_values = getattr(cols, code), len(getattr(cols, values))
        if not len(codes):
            if n_values:
                return False
            continue
        # Codes in order of first appearance: the running maximum starts at 0
        # and grows by at most 1, so each new code is the next unused one.
        top = np.maximum.accumulate(codes)
        if top[0] != 0 or top[-1] != n_values - 1 or (np.diff(top) > 1).any():
            return False
    return True


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


#: Bump whenever the snapshot layout changes, or ingest comes to refuse a
#: value that the writer writes: a snapshot written under another value no
#: longer loads. A check that refuses only values the writer never writes
#: needs no bump, since the loader runs the checks too.
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


def _input_snapshot_path(directory: str | Path, digest: str) -> Path:
    """The snapshot in `directory` of a publications file whose bytes have
    sha256 `digest`: `input-<digest>.snapshot`, which no two inputs share."""
    return Path(directory) / f"input-{digest}.snapshot"


def _digest(publications: str | Path) -> str:
    """The hex sha256 of a publications file's bytes."""
    with open(publications, "rb") as fh:
        return _sha256(fh)


def _snapshot_key(digest: str) -> bytes:
    """A snapshot's first line up to its seal: magic, format, version and
    `digest`, the sha256 of the JSONL's bytes. The seal, the sha256 of every
    byte after the line, and a newline end the line."""
    return f"fieldimpact-snapshot {SNAPSHOT_FORMAT} {__version__} {digest} ".encode()


def _sha256(fh: IO[bytes]) -> str:
    """The hex sha256 of the rest of `fh`, read in 64 KiB chunks."""
    digest = hashlib.sha256()
    while chunk := fh.read(1 << 16):
        digest.update(chunk)
    return digest.hexdigest()


def write_snapshot(corpus: Corpus, publications: str | Path) -> Path:
    """Store `corpus`'s columns next to `publications`, and return the
    snapshot's path (`snapshot_path`). Parsing `publications` gives `corpus`."""
    path = snapshot_path(publications)
    _write_snapshot(corpus, path, _digest(publications))
    return path


def _write_input_snapshot(corpus: Corpus, directory: str | Path, digest: str) -> None:
    """Store `corpus`'s columns in `directory` under the name that
    `parse_corpus(..., snapshot_dir=directory)` looks for: parsing bytes
    whose sha256 is `digest` gave `corpus`."""
    _write_snapshot(corpus, _input_snapshot_path(directory, digest), digest)


def _write_snapshot(corpus: Corpus, path: Path, digest: str) -> None:
    """Write the snapshot of `corpus` to `path`, keyed by `digest`.

    After the key line, whose seal is the sha256 of every later byte, a JSON
    line holds the lengths of the ids and of the six distinct-value tuples,
    and JSON lines of at most `_SNAPSHOT_LINE` values each hold their values,
    in that order; the code and citation arrays follow as raw bytes. The
    bytes are a function of the corpus alone.
    """
    cols = corpus.columns
    tuples = (cols.ids, cols.years, cols.journals, [dt.value for dt in cols.doc_types], cols.field_tuples,
              cols.address_lists, [_attribution_items(t) for t in cols.attribution_tuples])
    key = _snapshot_key(digest)
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


def _find_snapshot(publications: PathOrIO, snapshot_dir: str | Path | None) -> tuple[RecordColumns, bool] | None:
    """`_load_snapshot` of the snapshot next to `publications`, else of its
    snapshot in `snapshot_dir`. With a `snapshot_dir` the file is hashed
    once, for both keys; without one, only if the sibling opens."""
    if snapshot_dir is None or not isinstance(publications, (str, Path)):
        return _load_snapshot(publications)
    digest = _digest(publications)
    loaded = _load_snapshot(publications, digest=digest)
    return loaded or _load_snapshot(publications, _input_snapshot_path(snapshot_dir, digest), digest)


def _load_snapshot(publications: PathOrIO, target: str | Path | None = None,
                   digest: str | None = None) -> tuple[RecordColumns, bool] | None:
    """The columns stored at `target`, by default next to `publications`, as
    written, and whether their ids strictly increase; None (parse the
    JSONL) when there is no such file, its key does not match `digest` (by
    default the JSONL is hashed once the file opens), its seal does not
    match its body, or its body is not what `write_snapshot` writes. The
    body is hashed in chunks before any of it is decoded."""
    if not isinstance(publications, (str, Path)):
        return None
    try:
        with open(target if target is not None else snapshot_path(publications), "rb") as fh:
            key = _snapshot_key(digest or _digest(publications))
            line = fh.read(len(key) + _SEAL + 1)
            if line != key + _sha256(fh).encode() + b"\n":
                return None
            fh.seek(len(line))
            return _snapshot_columns(fh)
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return None


def _snapshot_columns(fh: IO[bytes]) -> tuple[RecordColumns, bool]:
    """Decode the rest of a snapshot after its key line, and tell whether
    its ids strictly increase, as `write_snapshot` writes them. Raises ValueError
    or TypeError for bad JSON, a count its lines do not hold, a value that
    a check of `_LINE_CHECKS` refuses, a repeated id, arrays whose length
    is not the id count, or a code outside its values."""

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

    checks = {key: (check, stored) for key, check, stored in _LINE_CHECKS}
    n_ids, *counts = json.loads(fh.readline())
    # Ids and citations are checked as columns; each key's list is dropped once stored.
    ids = tuple(read_values(n_ids))
    # Ids that strictly increase are distinct without a set.
    increasing = all(map(operator.lt, ids, islice(ids, 1, None)))
    if any(map(_check_id, ids)) or not increasing and len(set(ids)) != len(ids):
        raise ValueError("snapshot id that ingest refuses, or a repeated one")
    distinct = {}
    for (key, values), count in zip(CODED, counts, strict=True):
        check, stored = checks[key]
        found = read_values(count)
        if any(map(check, found)):
            raise ValueError(f"snapshot {key} value that ingest refuses")
        distinct[values] = tuple(map(stored, found))
    n, arrays = len(ids), {}
    for name, dtype in _SNAPSHOT_ARRAYS:
        array = np.empty(n, dtype)
        if fh.readinto(array) != array.nbytes:
            raise ValueError("snapshot arrays shorter than the id count")
        arrays[name] = array.astype(dtype.newbyteorder("="), copy=False)
    if fh.read(1):
        raise ValueError("snapshot arrays longer than the id count")
    cols = RecordColumns(ids, **arrays, **distinct)
    for code, values in CODED:
        codes = getattr(cols, code)
        if n and not 0 <= codes.min() <= codes.max() < len(getattr(cols, values)):
            raise ValueError(f"snapshot {code} code out of range")
    # Every count between two that the check passes passes it too.
    if n and any(map(_check_citations, (cols.citations.min().item(), cols.citations.max().item()))):
        raise ValueError("snapshot citation count out of range")
    return cols, increasing
