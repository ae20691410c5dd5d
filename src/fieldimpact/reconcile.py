"""Affiliation reconciliation: normalized substring rules over addresses.

Raw affiliation strings are normalized (lowercase, diacritics stripped,
punctuation collapsed to single spaces) and matched against an ordered
rule set; the first rule in file order whose pattern is a substring of
the address wins (a token-start index only skips rules that cannot occur).
Matched records receive fractional attribution weights summing to exactly 1.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .columns import renumber
from .corpus import Attribution, Corpus, CorpusError, CorpusValidationError, Organization, _open_text
from .reporting import Table, emit

_NON_ALNUM_RE = re.compile(r"[^0-9a-z]+")
_TABLE = {c: chr(c) if chr(c).isdigit() or chr(c).islower() else " " for c in range(128)}  # a missing code costs a KeyError
_Q = 4  # key length of the rule index


class RuleError(CorpusError):
    """Raised for rule files that cannot be compiled."""


def normalize_address(raw: str) -> str:
    """Normalize an affiliation string for substring matching.

    Lowercases, strips diacritics to base letters, replaces every run of
    punctuation/whitespace (and any other non-alphanumeric character)
    with a single space, and trims. Idempotent.
    """
    if raw.isascii():  # ASCII is NFKD-invariant and has no combining marks
        return " ".join(raw.lower().translate(_TABLE).split())
    raw = "".join(ch for ch in unicodedata.normalize("NFKD", raw)
                  if not unicodedata.combining(ch))
    return _NON_ALNUM_RE.sub(" ", raw.lower()).strip()


@dataclass(frozen=True, slots=True)
class Rule:
    pattern: str
    org_id: str
    subunit_id: str | None
    source_line: int

    @property
    def target(self) -> tuple[str, str | None]:
        return (self.org_id, self.subunit_id)


@dataclass(frozen=True, slots=True)
class RuleConflict:
    """Two rules where one pattern contains the other but targets differ."""

    first: Rule
    second: Rule


def _keys(text: str, grams: bool = False) -> set[str]:
    """The first `_Q` characters of every token of `text` but the first, or
    with `grams` every `_Q`-character substring of `text`."""
    if grams:
        return {text[j : j + _Q] for j in range(len(text) - _Q + 1)}
    return {t[:_Q] for t in text.split(" ")[1:]}


def _key_index(rules: Sequence[Rule]) -> tuple[dict[str, list[int]], tuple[int, ...], bool]:
    """Rule indices keyed by the rarest of the pattern's own keys (fewest distinct
    patterns with it, then the key), the rules with none, and whether any keys are grams.

    Own keys: the starts of the later tokens of `_Q` or more characters, else the
    `_Q`-grams. Patterns are normalized, so wherever one occurs each later token
    starts an item of `text.split(" ")`, and its start is in `_keys(text)`."""
    patterns = {r.pattern for r in rules}
    starts = {p: {k for k in _keys(p) if len(k) == _Q} for p in patterns}
    own = {p: starts[p] or _keys(p, grams=True) for p in patterns}
    rarity = Counter(k for keys in own.values() for k in keys)
    keyed: dict[str | None, list[int]] = {}
    for i, rule in enumerate(rules):
        keyed.setdefault(min(own[rule.pattern], key=lambda k: (rarity[k], k), default=None), []).append(i)
    return keyed, tuple(keyed.pop(None, ())), any(len(p) >= _Q and not starts[p] for p in patterns)


def _candidates(index: tuple[dict[str, list[int]], tuple[int, ...], bool], text: str) -> list[int]:
    """Ascending indices of the rules that may occur in `text`: a pattern
    that occurs there has its key among the text's keys too."""
    keyed, always, grams = index
    return sorted(set(always).union(*map(keyed.get, keyed.keys() & _keys(text, grams))))


@dataclass(frozen=True)
class RuleSet:
    """Ordered rules, the compile-time conflict report, and a token-start index
    that narrows `match` to candidates; it takes no part in equality, hash or repr."""

    rules: tuple[Rule, ...]
    conflicts: tuple[RuleConflict, ...]
    warnings: tuple[str, ...] = ()
    _index: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self._index is None:
            object.__setattr__(self, "_index", _key_index(self.rules))

    def match(self, normalized: str) -> Rule | None:
        """The first rule in file order whose pattern occurs in `normalized`."""
        for i in _candidates(self._index, normalized):
            if self.rules[i].pattern in normalized:
                return self.rules[i]
        return None


def compile_rules(
    rule_file: str | Path | IO[str],
    organizations: Mapping[str, Organization],
) -> RuleSet:
    """Compile a rule file (`PATTERN<TAB>ORG_ID[<TAB>SUBUNIT_ID]`).

    Patterns are normalized with the address normalizer. Unknown
    organizations or empty patterns are hard errors naming the line;
    duplicate (pattern, target) pairs are dropped with a warning.
    Containment between patterns with different targets is reported as a
    conflict, never resolved silently.
    """
    rules: list[Rule] = []
    warnings: list[str] = []
    seen: set[tuple[str, str, str | None]] = set()
    with _open_text(rule_file) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.rstrip("\n")
            if not text.strip() or text.lstrip().startswith("#"):
                continue
            parts = text.split("\t")
            if len(parts) not in (2, 3):
                raise RuleError(
                    f"rules line {lineno}: expected PATTERN<TAB>ORG_ID[<TAB>SUBUNIT_ID]"
                )
            pattern = normalize_address(parts[0])
            if not pattern:
                raise RuleError(f"rules line {lineno}: pattern is empty after normalization")
            org_id = parts[1].strip()
            if org_id not in organizations:
                raise RuleError(f"rules line {lineno}: unknown organization {org_id!r}")
            subunit_id = parts[2].strip() if len(parts) == 3 and parts[2].strip() else None
            if subunit_id is not None:
                subunit = organizations.get(subunit_id)
                if subunit is None:
                    raise RuleError(f"rules line {lineno}: unknown sub-unit {subunit_id!r}")
                if subunit.parent_id != org_id:
                    raise RuleError(
                        f"rules line {lineno}: sub-unit {subunit_id!r} does not belong to {org_id!r}"
                    )
            key = (pattern, org_id, subunit_id)
            if key in seen:
                warnings.append(
                    f"rules line {lineno}: duplicate rule {pattern!r} -> {org_id}"
                    + (f"/{subunit_id}" if subunit_id else "")
                )
                continue
            seen.add(key)
            rules.append(Rule(pattern, sys.intern(org_id), subunit_id, lineno))

    index = _key_index(rules)
    # A pattern's candidates include every pattern it contains; pairs sort in file order.
    pairs = sorted({(min(i, j), max(i, j)) for j, b in enumerate(rules)
                    for i in _candidates(index, b.pattern) if i != j
                    and rules[i].target != b.target and rules[i].pattern in b.pattern})
    conflicts = tuple(RuleConflict(rules[i], rules[j]) for i, j in pairs)
    return RuleSet(tuple(rules), conflicts, tuple(warnings), index)


@dataclass(frozen=True, slots=True)
class UnmatchedAddress:
    address: str
    count: int
    sample_ids: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class UnmatchedReport:
    """Distinct unmatched normalized addresses with occurrence counts."""

    entries: tuple[UnmatchedAddress, ...]

    def to_csv(self, destination: str | Path | IO[str]) -> None:
        rows = tuple((e.address, e.count, ";".join(e.sample_ids)) for e in self.entries)
        emit(Table(("address", "count", "sample_ids"), rows), "csv", destination)


@dataclass(frozen=True, slots=True)
class ReconcileStats:
    total_addresses: int
    matched_addresses: int
    n_records: int
    n_attributed: int
    n_unattributed: int

    @property
    def match_rate(self) -> float:
        if self.total_addresses == 0:
            return 1.0
        return self.matched_addresses / self.total_addresses


@dataclass(frozen=True, slots=True)
class ReconcileResult:
    corpus: Corpus
    unmatched: UnmatchedReport
    stats: ReconcileStats


_SAMPLE_IDS = 5


def _attributions_for(
    matches: list[tuple[str, str | None]],
    organizations: Mapping[str, Organization],
    known: dict[tuple[str, str | None], tuple],
) -> tuple[tuple[str, str | None, int], ...]:
    """Distinct targets weighted 1/m per organization, split over its sub-units,
    as (org_id, subunit_id, k) triples of weight 1/k in attribution order.

    A target missing from `organizations`, or a sub-unit that belongs to
    another organization there (rules compiled against other registries),
    raises CorpusValidationError. `known` maps each target already found in
    `organizations` to its sort key, and each one found is added to it, so
    a caller that passes one dict for all its calls checks each target once.
    """
    distinct = dict.fromkeys(matches)
    unknown = []
    for target in distinct:
        if target not in known:
            org_id, subunit_id = target
            if org_id in organizations and (
                subunit_id is None or getattr(organizations.get(subunit_id), "parent_id", None) == org_id
            ):
                # Attribution order: by organization, its org-level share first.
                known[target] = (org_id, subunit_id is not None, subunit_id or "")
            else:
                label = org_id if subunit_id is None else f"{org_id}/{subunit_id}"
                unknown.append(f"rule target {label} does not match the corpus's organizations")
    if unknown:
        raise CorpusValidationError(unknown)
    targets = sorted(distinct, key=known.__getitem__)
    n_targets: dict[str, int] = {}
    for org_id, _ in targets:
        n_targets[org_id] = n_targets.get(org_id, 0) + 1
    m = len(n_targets)
    return tuple((org_id, subunit_id, m * n_targets[org_id]) for org_id, subunit_id in targets)


def reconcile_corpus(corpus: Corpus, rules: RuleSet, threads: int = 1) -> ReconcileResult:
    """Attribute every record to the organizations its addresses match.

    A record's attributions are the distinct (org, sub-unit) targets of
    its matched addresses. Each distinct org-level entity gets weight
    1/m (m = number of distinct matched organizations); when several
    sub-unit targets of the same organization match, that organization's
    1/m is split equally among them, so weights always sum to exactly 1.
    Records with no match get empty attributions, replacing any they
    carried. Each distinct address list is matched once, and each
    distinct address once, by `RuleSet.match`; each distinct matched
    target is checked once against `corpus.organizations`, and each
    distinct weighted target built once as an `Attribution`. The result
    shares every column with `corpus` but the attribution column.
    `threads` is accepted for compatibility and has no effect.
    """
    cols = corpus.columns
    n_records = np.bincount(cols.addresses, minlength=len(cols.address_lists))
    # Each list's records in id order; list c's run starts after those of codes below c.
    order = np.argsort(cols.addresses, kind="stable")
    starts = (np.cumsum(n_records) - n_records).tolist()
    n_records = n_records.tolist()
    # Raw address strings repeat heavily in real exports; memoizing the
    # normalization and the first-match target (None: no rule matched)
    # keeps the per-address cost at two dict lookups.
    norm_cache: dict[str, str] = {}
    target_cache: dict[str, tuple[str, str | None] | None] = {}
    unmatched_counts: dict[str, int] = {}
    unmatched_lists: dict[str, set[int]] = {}  # the address lists that hold each
    total_addresses = matched_addresses = n_attributed = 0
    # Distinct match profiles are few: one attribution code per profile,
    # and one per distinct tuple of weighted targets.
    profile_codes: dict[tuple, int] = {}
    known_targets: dict[tuple[str, str | None], tuple] = {}
    attribution_codes: dict[tuple[tuple[str, str | None, int], ...], int] = {(): 0}
    list_attributions: list[int] = []

    for code, (addresses, n) in enumerate(zip(cols.address_lists, n_records)):
        if not n:  # a list no record carries
            list_attributions.append(0)
            continue
        matches = []
        for raw in addresses:
            normalized = norm_cache.get(raw)
            if normalized is None:
                normalized = norm_cache.setdefault(raw, normalize_address(raw))
            target = target_cache.get(normalized, False)
            if target is False:
                rule = rules.match(normalized)
                target = target_cache[normalized] = None if rule is None else rule.target
            if target is not None:
                matches.append(target)
                continue
            unmatched_counts[normalized] = unmatched_counts.get(normalized, 0) + n
            unmatched_lists.setdefault(normalized, set()).add(code)
        total_addresses += len(addresses) * n
        attribution = 0
        if matches:
            matched_addresses += len(matches) * n
            n_attributed += n
            profile = tuple(matches)
            attribution = profile_codes.get(profile)
            if attribution is None:
                atts = _attributions_for(matches, corpus.organizations, known_targets)
                attribution = profile_codes[profile] = attribution_codes.setdefault(atts, len(attribution_codes))
        list_attributions.append(attribution)

    def sample_ids(lists) -> tuple[str, ...]:
        """Ids of the first records, in id order, that carry any of `lists`."""
        rows = sorted(r for c in lists for r in order[starts[c]:starts[c] + min(n_records[c], _SAMPLE_IDS)].tolist())
        return tuple(cols.ids[r] for r in rows[:_SAMPLE_IDS])

    entries = tuple(
        UnmatchedAddress(addr, count, sample_ids(unmatched_lists[addr]))
        for addr, count in sorted(unmatched_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    stats = ReconcileStats(
        total_addresses=total_addresses,
        matched_addresses=matched_addresses,
        n_records=len(cols.ids),
        n_attributed=n_attributed,
        n_unattributed=len(cols.ids) - n_attributed,
    )
    attributions, weighted = renumber(
        np.array(list_attributions, np.int32)[cols.addresses], tuple(attribution_codes)
    )
    made = {t: Attribution(t[0], t[1], Fraction(1, t[2])) for t in set().union(*weighted)}
    attribution_tuples = tuple(tuple(map(made.__getitem__, ts)) for ts in weighted)
    columns = cols._replace(attributions=attributions, attribution_tuples=attribution_tuples)
    return ReconcileResult(
        corpus=replace(corpus, columns=columns),
        unmatched=UnmatchedReport(entries),
        stats=stats,
    )
