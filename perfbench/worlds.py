"""Seeded input generators for the three workloads.

Every input is a pure function of the benchmark's ``--seed``; the engine
only reads the files written here. ``chain`` uses the synthetic world of
``fieldimpact.synth`` unchanged. ``slices`` rewrites that world with
properties ``synth`` never produces (multi-field records, sub-units and
their rules). ``rules`` is a dictionary-scale rule file with its own
address population. Neither generator changes ``synth`` or its outputs.

The ``slices`` and ``rules`` inputs are written once per run by a child
process, before any timed set-up, so that neither the time nor the
memory of this module's own code shows in the measured process:

    PYTHONPATH=src python3 perfbench/worlds.py --workload slices --seed 1 --out DIR

The mixes below (shares, rates and counts) were chosen so that the
multi-field, sub-unit, exclusion and conflict paths run on every pass.
They are not measured from any real corpus, so no performance claim
should rest on how a pass's time divides between those paths. The
``rules`` sizes (about 3k patterns, 20k distinct addresses over 50k
records, 30% unmatched) follow the issue that defined the benchmark.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fieldimpact import synth

# Criterion-10 world scaled to 10 fields x 6 years x 1670 = 100,200 records.
WORLD = dict(n_fields=10, years=(2001, 2006), annual_volume=1670, n_orgs=60)

# slices: enrichment of the same world family (chosen, not measured).
SLICES_COAUTHOR_RATE = 0.30
MULTI_FIELD_SHARE = 0.25  # records that gain 1-2 fields of other disciplines
SUBUNIT_ORGS = 20  # orgs that get two sub-units, each matched by one spelling
XCR_CELLS_REMOVED = 3  # cells dropped from the reloaded xcr table

# rules: dictionary-scale reconciliation. Aliases per organization and the
# 1-3 addresses per record (ADDRESS_COUNT_P) are chosen, not measured.
RULE_ORGS = 800
ALIASES_PER_ORG = 3
SUBUNIT_RULES = 120
CONFLICTING_SUBUNITS = 40  # sub-unit patterns that contain their org's alias
DISTINCT_ADDRESSES = 20_000
UNMATCHED_SHARE = 0.30
UNKNOWN_CODES_FROM = 90_000  # address codes no rule uses
RULES_RECORDS = 50_000
RULES_YEARS = (2001, 2004)
ADDRESS_COUNT_P = (0.6, 0.3, 0.1)  # records with 1, 2 and 3 addresses

INPUTS = "inputs.json"  # manifest that write_inputs leaves in its directory


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def generate_world(seed: int, out_dir: Path, coauthor_rate: float = 0.10):
    spec = synth.build_world_spec(seed, coauthor_rate=coauthor_rate, **WORLD)
    return synth.generate_corpus(spec, out_dir)


@dataclass(frozen=True)
class CorpusFiles:
    publications: Path
    journals: Path
    orgs: Path
    field_scheme: Path
    rules: Path
    n_records: int

    def parse_inputs(self) -> tuple[Path, Path, Path, Path]:
        return (self.publications, self.journals, self.orgs, self.field_scheme)


def enrich_world(generated, seed: int) -> CorpusFiles:
    """Rewrite a synthetic world for ``slices``.

    A seeded share of records gains one or two fields from other
    disciplines. ``SUBUNIT_ORGS`` organizations get two sub-units, each
    matched by one of the organization's address spellings, with the
    sub-unit rules placed before the organization rules so that they win
    first-match.
    """
    rng = rng_for(seed, 1)
    out = generated.out_dir
    scheme = dict(
        line.split(",")
        for line in generated.field_scheme.read_text(encoding="utf-8").splitlines()[1:]
    )
    fields = sorted(scheme)
    other_discipline = {f: [g for g in fields if scheme[g] != scheme[f]] for f in fields}

    records = [
        json.loads(line)
        for line in generated.publications.read_text(encoding="utf-8").splitlines()
    ]
    n = len(records)
    multi = rng.random(n) < MULTI_FIELD_SHARE
    extra_count = rng.integers(1, 3, n)
    picks = rng.integers(0, 1 << 30, (n, 2))
    publications = out / "publications.enriched.jsonl"
    with open(publications, "w", encoding="utf-8", newline="") as fh:
        for i, record in enumerate(records):
            if multi[i]:
                candidates = list(other_discipline[record["fields"][0]])
                for k in range(int(extra_count[i])):
                    record["fields"].append(candidates.pop(int(picks[i, k]) % len(candidates)))
            fh.write(json.dumps(record) + "\n")

    org_text = generated.orgs.read_text(encoding="utf-8").rstrip("\n")
    orgs = {row[0]: row for row in (line.split(",") for line in org_text.splitlines()[1:])}
    spellings = sorted({a for record in records for a in record["addresses"]})
    org_lines = [org_text]
    rule_lines = ["# sub-unit rules first, so that they win over their organization"]
    for org_id in sorted(rng.choice(sorted(orgs), SUBUNIT_ORGS, replace=False)):
        _, name, org_type, _ = orgs[org_id]
        variants = [a for a in spellings if name in a and a != name][:2]
        for k, variant in enumerate(variants, start=1):
            sub_id = f"{org_id}-S{k}"
            org_lines.append(f"{sub_id},{name} sub-unit {k},{org_type},{org_id}")
            rule_lines.append(f"{variant}\t{org_id}\t{sub_id}")
    orgs_path = out / "orgs.enriched.csv"
    orgs_path.write_text("\n".join(org_lines) + "\n", encoding="utf-8")
    rules = out / "rules.enriched.tsv"
    rule_lines.append(generated.rules.read_text(encoding="utf-8").rstrip("\n"))
    rules.write_text("\n".join(rule_lines) + "\n", encoding="utf-8")
    return CorpusFiles(publications, generated.journals, orgs_path, generated.field_scheme, rules, n)


def xcr_cells_to_remove(seed: int, years, fields) -> set[tuple[str, str]]:
    """Seeded (year, field) cells dropped from the reloaded xcr table."""
    rng = rng_for(seed, 2)
    cells = [(str(y), f) for y in range(years[0], years[1] + 1) for f in fields]
    return {cells[i] for i in rng.choice(len(cells), XCR_CELLS_REMOVED, replace=False)}


_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_KINDS = ("University", "Institute", "Hospital", "Laboratory", "College", "Centre")
_DEPTS = ("Dept. of Physics", "Department of Chemistry", "Faculty of Medicine",
          "School of Engineering", "Division of Biology", "Unit of Statistics")
_CITIES = ("Northport", "Aldergrove", "Westbury", "Kingsbridge", "Redfield",
           "Eastham", "Lowmoor", "Highcliff", "Brackenford", "Stonehaven")


def _words(rng, count: int) -> list[str]:
    lengths = rng.integers(5, 9, count)
    letters = rng.integers(0, 26, (count, 8))
    return ["".join(_LETTERS[row[:k]]).capitalize() for row, k in zip(letters, lengths)]


def rules_world(seed: int, out: Path) -> CorpusFiles:
    """Write a 2,520-rule dictionary and 20,000 distinct addresses.

    Every pattern ends in a code token ``C#####`` that no other pattern
    shares, and addresses carry digits only in such a token, so a pattern
    contains another only where the generator makes it: exactly
    ``CONFLICTING_SUBUNITS`` sub-unit patterns embed their
    organization's alias. Unmatched addresses carry codes no rule uses.
    """
    rng = rng_for(seed, 3)
    out.mkdir(parents=True, exist_ok=True)
    # Two words per alias; the last CONFLICTING_SUBUNITS name departments.
    words = _words(rng, 2 * (RULE_ORGS * ALIASES_PER_ORG + SUBUNIT_RULES) + CONFLICTING_SUBUNITS)
    code = iter(range(10**5))

    def alias(i: int) -> str:
        kind = _KINDS[int(rng.integers(len(_KINDS)))]
        return f"{words[2 * i]}-{words[2 * i + 1]} {kind}, C{next(code):05d}"

    orgs = [f"O{i:04d}" for i in range(RULE_ORGS)]
    org_rules = [(alias(i), orgs[i // ALIASES_PER_ORG], None)
                 for i in range(RULE_ORGS * ALIASES_PER_ORG)]
    sub_orgs = sorted(rng.choice(RULE_ORGS, SUBUNIT_RULES, replace=False))
    sub_rules, sub_lines = [], []
    for k, o in enumerate(sub_orgs):
        org_id, sub_id = orgs[o], f"{orgs[o]}-S"
        if k < CONFLICTING_SUBUNITS:
            pattern = f"Dept. {words[-1 - k]}, {org_rules[o * ALIASES_PER_ORG][0]}"
        else:
            pattern = alias(RULE_ORGS * ALIASES_PER_ORG + k)
        sub_rules.append((pattern, org_id, sub_id))
        sub_lines.append(f"{sub_id},{pattern.split(',')[0]} unit,U,{org_id}")
    # Sub-unit rules come first so they win over the alias they contain.
    rules = tuple(sub_rules + org_rules)

    org_file = out / "orgs.csv"
    types = ("U", "RI", "H")
    org_lines = [f"{o},Organization {o},{types[i % 3]}," for i, o in enumerate(orgs)]
    org_file.write_text(
        "\n".join(["org_id,name,org_type,parent_id", *org_lines, *sub_lines]) + "\n",
        encoding="utf-8",
    )
    rule_file = out / "rules.tsv"
    rule_file.write_text(
        "".join(f"{p}\t{o}\t{s or ''}\n" for p, o, s in rules), encoding="utf-8"
    )
    fields = [f"R{i}" for i in range(4)]
    scheme = out / "fieldscheme.csv"
    scheme.write_text("field_id,discipline_id\n" + "".join(f"{f},Physics\n" for f in fields),
                      encoding="utf-8")
    journals = out / "journals.csv"
    journals.write_text(
        "journal_id,name,impact_factor,fields\n"
        + "".join(f"J{i},Journal {i},{1 + i / 8!r},{fields[i % 4]}\n" for i in range(8)),
        encoding="utf-8",
    )

    # Draw twice what is needed and keep the first DISTINCT_ADDRESSES
    # distinct spellings, so the draw count does not depend on collisions.
    m = 2 * DISTINCT_ADDRESSES
    pool = _words(rng, 2000)
    dept = rng.integers(len(_DEPTS), size=m)
    city = rng.integers(len(_CITIES), size=m)
    street = rng.integers(len(pool), size=m)
    unmatched = rng.random(m) < UNMATCHED_SHARE
    rule_pick = rng.integers(len(rules), size=m)
    unknown = rng.integers(len(pool), size=m)
    unknown_kind = rng.integers(len(_KINDS), size=m)
    unknown_code = rng.integers(UNKNOWN_CODES_FROM, 10**5, size=m)
    addresses: list[str] = []
    seen: set[str] = set()
    for i in range(m):
        if unmatched[i]:
            body = f"{pool[unknown[i]]} {_KINDS[unknown_kind[i]]}, C{unknown_code[i]:05d}"
        else:
            body = rules[rule_pick[i]][0]
        address = f"{_DEPTS[dept[i]]}, {body}, {pool[street[i]]} Street, {_CITIES[city[i]]}"
        if address not in seen:
            seen.add(address)
            addresses.append(address)
            if len(addresses) == DISTINCT_ADDRESSES:
                break

    n_addr = rng.choice(3, RULES_RECORDS, p=ADDRESS_COUNT_P) + 1
    picks = rng.integers(0, len(addresses), (RULES_RECORDS, 3))
    years = rng.integers(RULES_YEARS[0], RULES_YEARS[1] + 1, RULES_RECORDS)
    jidx = rng.integers(0, 8, RULES_RECORDS)
    cits = rng.negative_binomial(2, 0.3, RULES_RECORDS)
    publications = out / "publications.jsonl"
    with open(publications, "w", encoding="utf-8", newline="") as fh:
        for i in range(RULES_RECORDS):
            record = {
                "id": f"r{i:07d}",
                "year": int(years[i]),
                "doc_type": "article",
                "journal": f"J{jidx[i]}",
                "fields": [fields[jidx[i] % 4]],
                "citations": int(cits[i]),
                "addresses": [addresses[j] for j in picks[i, : n_addr[i]]],
            }
            fh.write(json.dumps(record) + "\n")
    return CorpusFiles(publications, journals, org_file, scheme, rule_file, RULES_RECORDS)


def read_rules(rule_file: Path) -> list[tuple[str, str, str | None]]:
    """(display pattern, org, sub-unit) of every rule, in file order."""
    rules = []
    for line in rule_file.read_text(encoding="utf-8").splitlines():
        pattern, org, sub = line.split("\t")
        rules.append((pattern, org, sub or None))
    return rules


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Write the inputs of ``slices`` or ``rules`` and their manifest."""
    if workload == "slices":
        generated = generate_world(seed, out, coauthor_rate=SLICES_COAUTHOR_RATE)
        files = enrich_world(generated, seed)
    else:
        files = rules_world(seed, out)
    manifest = {k: str(v) if isinstance(v, Path) else v for k, v in vars(files).items()}
    (out / INPUTS).write_text(json.dumps(manifest), encoding="utf-8")


def read_inputs(out: Path) -> CorpusFiles:
    manifest = json.loads((out / INPUTS).read_text(encoding="utf-8"))
    return CorpusFiles(**{k: v if k == "n_records" else Path(v) for k, v in manifest.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's generated inputs.")
    parser.add_argument("--workload", required=True, choices=("slices", "rules"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
