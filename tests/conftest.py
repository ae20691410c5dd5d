"""Shared corpus builders for the test suite."""

from __future__ import annotations

import io
import json
import math
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

import numpy as np
import pytest

from fieldimpact.benchmarks import CitationBenchmarkTable
from fieldimpact.columns import RecordColumns
from fieldimpact.corpus import (_COUNT_BOUND, _DOC_TYPES, Attribution, Corpus, PublicationRecord, RecordView,
                                _read_columns, parse_corpus)
from fieldimpact.reconcile import RuleConflict


def jsonl(pubs: list[dict]) -> str:
    return "".join(json.dumps(p) + "\n" for p in pubs)


def read_records(text: str):
    """Publications JSONL text as `PublicationRecord`s in file order, plus
    the full diagnostic list, as ingest decodes it."""
    columns, diagnostics = _read_columns(io.StringIO(text))
    return list(RecordView(columns)), diagnostics


# The brute-force oracle of ingest's line checks: each publication line
# validated on its own, building the record that ingest would keep.


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


def journals_csv(rows: list[tuple]) -> str:
    out = "journal_id,name,impact_factor,fields\n"
    for jid, name, impact, fields in rows:
        out += f"{jid},{name},{impact},{';'.join(fields)}\n"
    return out


def orgs_csv(rows: list[tuple]) -> str:
    out = "org_id,name,org_type,parent_id\n"
    for oid, name, org_type, parent in rows:
        out += f"{oid},{name},{org_type},{parent or ''}\n"
    return out


def scheme_csv(mapping: dict[str, str]) -> str:
    return "field_id,discipline_id\n" + "".join(f"{f},{d}\n" for f, d in mapping.items())


def mk_corpus(
    pubs: list[dict],
    journals: list[tuple] | None = None,
    orgs: list[tuple] | None = None,
    scheme: dict[str, str] | None = None,
) -> Corpus:
    """Build a validated corpus from in-memory pieces.

    Defaults derive a permissive journal registry (IF 1.0) and field
    scheme (one discipline) from the publications themselves.
    """
    if scheme is None:
        fields = sorted({f for p in pubs for f in p["fields"]})
        scheme = {f: "Physics" for f in fields}
    if journals is None:
        jfields: dict[str, set] = {}
        for p in pubs:
            jfields.setdefault(p["journal"], set()).update(p["fields"])
        journals = [(j, f"Journal {j}", 1.0, sorted(fs)) for j, fs in sorted(jfields.items())]
    if orgs is None:
        orgs = [("ORG_A", "Org Alpha", "U", None)]
    return parse_corpus(
        io.StringIO(jsonl(pubs)),
        io.StringIO(journals_csv(journals)),
        io.StringIO(orgs_csv(orgs)),
        io.StringIO(scheme_csv(scheme)),
    )


def pub(
    id: str,
    year: int = 2003,
    doc_type: str = "article",
    journal: str = "J1",
    fields: list[str] | None = None,
    citations: int = 0,
    addresses: list[str] | None = None,
    **extra,
) -> dict:
    record = {
        "id": id,
        "year": year,
        "doc_type": doc_type,
        "journal": journal,
        "fields": fields or ["F1"],
        "citations": citations,
        "addresses": addresses or [],
    }
    record.update(extra)
    return record


def args_corpus(files, *extra):
    """The four corpus flags for a `tiny_corpus_files` dict, then `extra`."""
    return [
        "--pubs", str(files["pubs"]),
        "--journals", str(files["journals"]),
        "--orgs", str(files["orgs"]),
        "--fields", str(files["fields"]),
        *extra,
    ]


def assert_columns_equal(found: RecordColumns, expected: RecordColumns):
    """Every array equal in dtype and values, every tuple equal."""
    for name, a, b in zip(RecordColumns._fields, found, expected):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


def att(org: str, weight: str = "1", subunit: str | None = None) -> dict:
    """One attribution as the publications JSONL carries it."""
    return {"org": org, "subunit": subunit, "weight": weight}


def first_match_oracle(normalized: str, rules):
    """Scan every rule in file order and return the first whose pattern
    occurs in the address; independent of the engine's lookup path."""
    for rule in rules.rules:
        if rule.pattern in normalized:
            return rule
    return None


def top_decile_oracle(journals, fraction=0.10):
    """Brute force: per field, sort by IF descending and include everything
    tied with the k-th impact factor, k = ceil(fraction * n) of the decimal
    `fraction`, exactly. A journal counts once in each field it lists."""
    fields = {}
    for j in journals:
        for f in set(j.field_ids):
            fields.setdefault(f, []).append(j)
    out = {}
    for f, members in fields.items():
        ifs = sorted((j.impact_factor for j in members), reverse=True)
        k = math.ceil(Fraction(str(fraction)) * len(ifs))
        boundary = ifs[k - 1]
        out[f] = frozenset(j.id for j in members if j.impact_factor >= boundary)
    return out


# The scalar definition of standardized impact, the oracle of `aggregate`'s
# rate and journal-rate tables.


def standardized_impact(pub: PublicationRecord, xcr_table: CitationBenchmarkTable) -> float:
    """Citations over the mean expected citation rate of the publication's fields."""
    return pub.citations / _mean_expected_rate(pub.year, pub.field_ids, xcr_table)


def _mean_expected_rate(
    year: int, field_ids: Sequence[str], xcr_table: CitationBenchmarkTable
) -> float:
    """Arithmetic mean of the expected rates of `field_ids` in `year`: the
    denominator of every standardized impact, the rates summed left to right.

    Raises BenchmarkError when any of those cells is missing or degenerate.
    """
    rates = [xcr_table.expected(year, f) for f in field_ids]
    return sum_left_to_right(rates) / len(rates)


def sum_left_to_right(values: Iterable[float]) -> float:
    """Plain float addition in order. Not the built-in `sum`, which adds
    with Neumaier compensation from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


def journal_standardized_impact(
    pub: PublicationRecord, jxcr_table: CitationBenchmarkTable
) -> float:
    """Citations over the expected citation rate of the publication's journal-year."""
    return pub.citations / jxcr_table.expected(pub.year, pub.journal_id)


def conflict_oracle(rules) -> tuple[RuleConflict, ...]:
    """Compare every pair of rules in file order: a conflict is one pattern
    inside the other with different targets. Independent of the rule index."""
    return tuple(
        RuleConflict(a, b)
        for i, a in enumerate(rules.rules)
        for b in rules.rules[i + 1 :]
        if a.target != b.target and (a.pattern in b.pattern or b.pattern in a.pattern)
    )


@pytest.fixture
def tiny_corpus_files(tmp_path):
    """The three-record fixture used by CLI-facing tests."""
    pubs = [
        pub("p1", citations=0, addresses=["Univ. Alpha, Dept of X"]),
        pub("p2", citations=2, addresses=["Universita Alpha"]),
        pub("p3", doc_type="review", journal="J2", fields=["F1", "F2"], citations=7,
            addresses=["Inst. Beta", "univ alpha"]),
    ]
    (tmp_path / "p.jsonl").write_text(jsonl(pubs), encoding="utf-8")
    (tmp_path / "j.csv").write_text(
        journals_csv([("J1", "Journal One", 2.5, ["F1"]), ("J2", "Journal Two", 1.0, ["F1", "F2"])]),
        encoding="utf-8",
    )
    (tmp_path / "o.csv").write_text(
        orgs_csv([("A", "University Alpha", "U", None), ("B", "Institute Beta", "RI", None)]),
        encoding="utf-8",
    )
    (tmp_path / "f.csv").write_text(
        scheme_csv({"F1": "Physics", "F2": "Biology"}), encoding="utf-8"
    )
    (tmp_path / "rules.tsv").write_text(
        "univ alpha\tA\nuniversita alpha\tA\ninst beta\tB\n", encoding="utf-8"
    )
    return {
        "pubs": tmp_path / "p.jsonl",
        "journals": tmp_path / "j.csv",
        "orgs": tmp_path / "o.csv",
        "fields": tmp_path / "f.csv",
        "rules": tmp_path / "rules.tsv",
        "dir": tmp_path,
    }
