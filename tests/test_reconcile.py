import io
import re
import unicodedata
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldimpact.cli import dispatch
from fieldimpact.corpus import Attribution, CorpusValidationError, load_organizations
from fieldimpact.reconcile import (
    ReconcileStats,
    RuleError,
    RuleSet,
    compile_rules,
    normalize_address,
    reconcile_corpus,
)

from conftest import args_corpus, att, conflict_oracle, first_match_oracle, mk_corpus, pub

ORGS3 = [
    ("ORG_TV", "Tor Vergata", "U", None),
    ("ORG_A", "Org Alpha", "U", None),
    ("ORG_B", "Org Beta", "RI", None),
]


def ruleset(text: str, orgs=None) -> RuleSet:
    registry = {o[0]: o for o in (orgs or ORGS3)}
    corpus = mk_corpus([pub("p1")], orgs=orgs or ORGS3)
    return compile_rules(io.StringIO(text), corpus.organizations)


def two_step_normalize(raw: str) -> str:
    """The reference normalizer: NFKD and combining-mark removal on every input."""
    decomposed = unicodedata.normalize("NFKD", raw)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return re.sub(r"[^0-9a-z]+", " ", stripped.lower()).strip()


class TestNormalize:
    def test_diacritics_punctuation_whitespace(self):
        assert normalize_address("Univ. Roma  'Tor Vergatà'") == "univ roma tor vergata"

    def test_empty(self):
        assert normalize_address("") == ""

    @given(st.text(max_size=60))
    def test_idempotent(self, s):
        once = normalize_address(s)
        assert normalize_address(once) == once

    def test_is_lowercase_alnum_single_spaced(self):
        out = normalize_address("A--B   ç,; (x) 42")
        assert out == "a b c x 42"

    @given(st.text(max_size=60) | st.text(st.characters(max_codepoint=127), max_size=60))
    def test_equals_two_step_reference(self, s):
        assert normalize_address(s) == two_step_normalize(s)

    def test_every_short_ascii_string_equals_two_step_reference(self):
        ascii_ = [chr(c) for c in range(128)]
        some = " \t\n\x00\x7f!#-.,'/_09aZ"  # punctuation, spaces, controls, digits, letter edges
        texts = ascii_ + [a + b for a in ascii_ for b in ascii_] + [a + b + c for a in some for b in some for c in some]
        assert [t for t in texts if normalize_address(t) != two_step_normalize(t)] == []


class TestCompileRules:
    def test_disjoint_patterns_no_conflict(self):
        rs = ruleset("alpha lab\tORG_A\nbeta lab\tORG_B\n")
        assert len(rs.rules) == 2
        assert rs.conflicts == ()

    def test_containment_with_different_targets_reported(self):
        rs = ruleset("roma tor vergata\tORG_A\ntor vergata\tORG_B\n")
        assert len(rs.rules) == 2
        assert len(rs.conflicts) == 1
        pair = rs.conflicts[0]
        assert {pair.first.org_id, pair.second.org_id} == {"ORG_A", "ORG_B"}

    def test_containment_with_same_target_is_fine(self):
        rs = ruleset("roma tor vergata\tORG_TV\ntor vergata\tORG_TV\n")
        assert rs.conflicts == ()

    def test_unknown_org_is_error_with_line(self):
        with pytest.raises(RuleError, match="line 2.*X9"):
            ruleset("alpha\tORG_A\nbeta site\tX9\n")

    def test_empty_pattern_after_normalization_is_error(self):
        with pytest.raises(RuleError, match="empty"):
            ruleset("'''\tORG_A\n")

    def test_duplicate_pattern_target_deduplicated_with_warning(self):
        rs = ruleset("alpha\tORG_A\nalpha\tORG_A\n")
        assert len(rs.rules) == 1
        assert len(rs.warnings) == 1

    def test_comments_and_blank_lines_ignored(self):
        rs = ruleset("# comment\n\nalpha\tORG_A\n")
        assert len(rs.rules) == 1
        assert rs.rules[0].source_line == 3

    def test_subunit_must_belong_to_org(self):
        orgs = ORGS3 + [("SUB1", "Sub One", "RI", "ORG_B")]
        rs = ruleset("beta sub one\tORG_B\tSUB1\n", orgs=orgs)
        assert rs.rules[0].target == ("ORG_B", "SUB1")
        with pytest.raises(RuleError, match="does not belong"):
            ruleset("x\tORG_A\tSUB1\n", orgs=orgs)


    @pytest.mark.parametrize("line, message", [
        ("univ gamma", "rules line 4: expected PATTERN<TAB>ORG_ID[<TAB>SUBUNIT_ID]"),
        ("univ gamma\tA\tB\tC", "rules line 4: expected PATTERN<TAB>ORG_ID[<TAB>SUBUNIT_ID]"),
        ("univ gamma\tC", "rules line 4: unknown organization 'C'"),
        ("univ gamma\tA\tZ", "rules line 4: unknown sub-unit 'Z'"),
        ("univ gamma\tA\tB", "rules line 4: sub-unit 'B' does not belong to 'A'"),
        ("!!!\tA", "rules line 4: pattern is empty after normalization"),
    ])
    def test_rejected_line_message_and_exit_code(self, tiny_corpus_files, tmp_path, capsys, line, message):
        files = tiny_corpus_files
        rules = files["rules"]
        rules.write_text(rules.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        with pytest.raises(RuleError) as exc:
            compile_rules(rules, load_organizations(files["orgs"]))
        assert str(exc.value) == message
        out = tmp_path / "out"
        assert dispatch(["reconcile", *args_corpus(files, "--rules", str(rules), "--out-dir", str(out))]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()


class TestMatchAddress:
    def test_substring_match(self):
        rs = ruleset("roma tor vergata\tORG_TV\n")
        assert rs.match("dip ing impresa univ roma tor vergata").target == ("ORG_TV", None)

    def test_no_rule_matches(self):
        rs = ruleset("alpha\tORG_A\n")
        assert rs.match("completely different") is None

    def test_first_match_wins_in_file_order(self):
        lines = ["# filler"] * 3 + ["alpha site\tORG_A"] + ["# filler"] * 6 + ["site\tORG_B"]
        rs = ruleset("\n".join(lines) + "\n")
        assert rs.rules[0].source_line == 4
        assert rs.rules[1].source_line == 11
        assert rs.match("the alpha site x").target == ("ORG_A", None)

    def test_patterns_without_a_long_later_token_match_anywhere(self):
        # "univ" is a first token, "of" and "pd" are short, "sapienza" is a single
        # word: these are keyed by 4-grams, and "alpha beta" still by "beta".
        rs = ruleset("alpha beta\tORG_A\nuniv of pd\tORG_B\nsapienza\tORG_TV\n")
        for address in ("univ of pd", "dip univ of pd", "xuniv of pdz", "xuniv of pd lab"):
            assert rs.match(address).target == ("ORG_B", None)
        assert rs.match("univ of p d") is None
        for address in ("sapienza", "la sapienza roma", "unisapienzaroma"):
            assert rs.match(address).target == ("ORG_TV", None)
        assert rs.match("xalpha betax sapienza").target == ("ORG_A", None)

    def test_first_token_mid_word_and_last_token_a_prefix(self):
        rs = ruleset("roma tor vergata\tORG_TV\n")
        assert rs.match("xroma tor vergatax").target == ("ORG_TV", None)
        assert rs.match("roma tor  vergata") is None

    @given(st.data())
    @settings(max_examples=60)
    def test_appending_rules_never_unmatches(self, data):
        words = st.sampled_from(["alpha", "beta", "gamma", "lab", "inst", "roma"])
        patterns = data.draw(st.lists(st.lists(words, min_size=1, max_size=3).map(" ".join),
                                      min_size=1, max_size=6))
        targets = data.draw(st.lists(st.sampled_from(["ORG_A", "ORG_B"]),
                                     min_size=len(patterns), max_size=len(patterns)))
        address = data.draw(st.lists(words, min_size=1, max_size=8).map(" ".join))
        base_text = "".join(f"{p}\t{t}\n" for p, t in zip(patterns, targets))
        extra = data.draw(st.lists(words, min_size=1, max_size=3).map(" ".join))
        rs_before = ruleset(base_text)
        rs_after = ruleset(base_text + f"{extra}\tORG_B\n")
        before = rs_before.match(address)
        if before is not None:
            assert rs_after.match(address) == before


# Patterns over a three-letter alphabet share key prefixes and nest in each other.
TOKEN = st.text("abc", min_size=1, max_size=7)
SHORT_TOKEN = st.text("abc", min_size=1, max_size=3)
LONG_TOKEN = st.text("abc", min_size=4, max_size=7)
PATTERN = (st.text("abc ", min_size=1, max_size=9).filter(lambda p: p.strip())
           | st.lists(TOKEN, min_size=1, max_size=4).map(" ".join))
TARGET = st.sampled_from(["ORG_A", "ORG_B", "ORG_TV"])
CONTEXT = st.text("abc ", max_size=4)  # around a pattern: mid-word, at a word start, or after runs of spaces


@st.composite
def rule_files(draw):
    """Rule lines that always hold a pattern shorter than 4 characters (always
    a candidate), a pattern keyed by a later token of 4 or more, a pattern
    whose later tokens are all shorter (keyed by a 4-gram, like "univ of pd"),
    a single word of 4 or more, one pattern with two targets, and one pattern
    nested in another."""
    lines = draw(st.lists(st.tuples(PATTERN, TARGET), max_size=25))
    short = draw(SHORT_TOKEN)
    keyed = " ".join(draw(st.lists(TOKEN, min_size=1, max_size=2)) + [draw(LONG_TOKEN)])
    unkeyed = " ".join([draw(TOKEN)] + draw(st.lists(SHORT_TOKEN, min_size=1, max_size=3)))
    twice = draw(PATTERN)
    inner = draw(PATTERN)
    special = [(short, draw(TARGET)), (keyed, draw(TARGET)), (unkeyed, draw(TARGET)),
               (draw(LONG_TOKEN), draw(TARGET)),
               (twice, "ORG_A"), (twice, "ORG_B"), (inner, draw(TARGET)),
               (draw(PATTERN) + inner + draw(PATTERN), draw(TARGET))]
    for line in special:
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "".join(f"{p}\t{t}\n" for p, t in lines)


def keyed_at_token_starts(text):
    """The rule lines whose patterns the index keys without 4-grams: shorter
    than 4, or with a later token of 4 or more characters."""
    lines = [line for line in text.splitlines(keepends=True)
             if len(p := normalize_address(line.split("\t")[0])) < 4
             or any(len(t) >= 4 for t in p.split(" ")[1:])]
    return "".join(lines)


class TestTokenIndex:
    """The token-start index, with and without 4-gram keys, against the linear
    first-match scan and the pairwise conflict check."""

    @given(rule_files(), st.lists(st.text("abc ", max_size=24), max_size=8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_match_equals_linear_oracle(self, text, addresses, data):
        self.check_match(ruleset(text), addresses, data)
        self.check_match(ruleset(keyed_at_token_starts(text)), addresses, data)

    def check_match(self, rs, addresses, data):
        # Each pattern inside other text: its first token may sit mid-word, its
        # last may be the prefix of a longer word, and spaces may run around it.
        embedded = [data.draw(CONTEXT) + r.pattern + data.draw(CONTEXT) for r in rs.rules]
        raw = addresses + embedded  # also passed unnormalized, with runs of spaces
        texts = [normalize_address(a) for a in raw] + [r.pattern for r in rs.rules] + raw
        # Every suffix of the rules too, so that each rule in turn is the first that can match.
        for tail in [rs] + [RuleSet(rs.rules[k:], ()) for k in range(1, len(rs.rules))]:
            for address in texts:
                assert tail.match(address) is first_match_oracle(address, tail)

    @given(rule_files())
    @settings(max_examples=150, deadline=None)
    def test_conflicts_equal_pairwise_oracle(self, text):
        for rs in (ruleset(text), ruleset(keyed_at_token_starts(text))):
            assert rs.conflicts == conflict_oracle(rs)

    @given(rule_files())
    @settings(max_examples=60, deadline=None)
    def test_only_patterns_shorter_than_4_are_tried_on_every_text(self, text):
        for text in (text, keyed_at_token_starts(text)):
            rs = ruleset(text)
            _, always, grams = rs._index
            assert [rs.rules[i] for i in always] == [r for r in rs.rules if len(r.pattern) < 4]
            assert grams == (text != keyed_at_token_starts(text))  # texts are looked up by 4-grams

    @given(rule_files())
    @settings(max_examples=60, deadline=None)
    def test_compiles_are_equal_and_hashable(self, text):
        first, second = ruleset(text), ruleset(text)
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second)
        rebuilt = RuleSet(first.rules, first.conflicts, first.warnings)
        assert rebuilt == first and hash(rebuilt) == hash(first)
        for rule in first.rules:
            assert rebuilt.match(rule.pattern) is first.match(rule.pattern)


SUBUNIT_ORGS = ORGS3 + [("SUB1", "Sub One", "RI", "ORG_B"), ("SUB2", "Sub Two", "RI", "ORG_B"),
                        ("SUB3", "Sub Three", "U", "ORG_A")]
SUBUNIT_TARGETS = st.sampled_from([("ORG_A", None), ("ORG_B", None), ("ORG_TV", None),
                                   ("ORG_B", "SUB1"), ("ORG_B", "SUB2"), ("ORG_A", "SUB3")])


@st.composite
def reconcile_cases(draw):
    """A rule file, and records in shuffled id order whose address lists
    repeat, reordered and with duplicate addresses."""
    lines = draw(st.lists(st.tuples(PATTERN, SUBUNIT_TARGETS), min_size=1, max_size=10))
    rules = "".join(f"{p}\t{org}\t{sub or ''}\n" for p, (org, sub) in lines)
    inside = st.builds(lambda left, p, right: left + p.upper() + right,
                       CONTEXT, st.sampled_from([p for p, _ in lines]), CONTEXT)
    pool = draw(st.lists(st.text("abcAB ,.-", min_size=1, max_size=10) | inside, min_size=1, max_size=8))
    lists = draw(st.lists(st.lists(st.sampled_from(pool), max_size=4), min_size=1, max_size=5))
    pubs = []
    for i in range(draw(st.integers(1, 14))):
        base = draw(st.sampled_from(lists))
        addresses = draw(st.permutations(base))
        if base and draw(st.booleans()):
            addresses.insert(draw(st.integers(0, len(addresses))), draw(st.sampled_from(base)))
        pubs.append(pub(f"p{i:02d}", addresses=addresses))
    return rules, draw(st.permutations(pubs))


def reconcile_oracle(corpus, rules):
    """Each record on its own, in id order, by the linear first-match scan:
    its attributions (1/m per organization, split over its sub-units; in
    organization order, an organization before its sub-units), the stats,
    and each unmatched address's count and first sample ids."""
    attributions, unmatched = {}, {}
    total = matched = attributed = 0
    for rec in sorted(corpus.records, key=lambda r: r.id):
        by_org: dict[str, set] = {}
        for raw in rec.addresses:
            normalized = normalize_address(raw)
            rule = first_match_oracle(normalized, rules)
            total += 1
            if rule is None:
                count, ids = unmatched.get(normalized, (0, []))
                unmatched[normalized] = (count + 1, ids if rec.id in ids else ids + [rec.id])
            else:
                matched += 1
                by_org.setdefault(rule.org_id, set()).add(rule.subunit_id)
        attributed += bool(by_org)
        attributions[rec.id] = tuple(
            Attribution(org, sub, Fraction(1, len(by_org) * len(subs)))
            for org, subs in sorted(by_org.items())
            for sub in sorted(subs, key=lambda s: (s is not None, s or ""))
        )
    n = len(corpus.records)
    stats = ReconcileStats(total, matched, n, attributed, n - attributed)
    entries = sorted(((a, count, tuple(ids[:5])) for a, (count, ids) in unmatched.items()),
                     key=lambda e: (-e[1], e[0]))
    return attributions, stats, entries


class TestReconcileCorpus:
    @given(reconcile_cases())
    @settings(max_examples=100, deadline=None)
    def test_equals_per_record_oracle(self, case):
        text, pubs = case
        corpus = mk_corpus(pubs, orgs=SUBUNIT_ORGS)
        rs = ruleset(text, orgs=SUBUNIT_ORGS)
        result = reconcile_corpus(corpus, rs)
        attributions, stats, unmatched = reconcile_oracle(corpus, rs)
        assert {r.id: r.attributions for r in result.corpus.records} == attributions
        assert all(type(a.weight) is Fraction for r in result.corpus.records for a in r.attributions)
        assert result.stats == stats
        assert [(e.address, e.count, e.sample_ids) for e in result.unmatched.entries] == unmatched

    def corpus_two_orgs(self, addresses):
        return mk_corpus([pub("p1", addresses=addresses)], orgs=ORGS3)

    def test_two_orgs_half_weight_each(self):
        corpus = self.corpus_two_orgs(["Org Alpha dept", "Org Beta lab"])
        rs = ruleset("org alpha\tORG_A\norg beta\tORG_B\n")
        rec = reconcile_corpus(corpus, rs).corpus.records[0]
        assert [(a.org_id, a.weight) for a in rec.attributions] == [
            ("ORG_A", Fraction(1, 2)),
            ("ORG_B", Fraction(1, 2)),
        ]

    def test_same_org_twice_collapses_to_weight_one(self):
        corpus = self.corpus_two_orgs(["Org Alpha dept", "ORG ALPHA, lab 2"])
        rs = ruleset("org alpha\tORG_A\n")
        rec = reconcile_corpus(corpus, rs).corpus.records[0]
        assert [(a.org_id, a.weight) for a in rec.attributions] == [("ORG_A", Fraction(1))]

    def test_subunit_targets_split_their_org_share(self):
        orgs = ORGS3 + [("SUB1", "Sub One", "RI", "ORG_B"), ("SUB2", "Sub Two", "RI", "ORG_B")]
        corpus = mk_corpus(
            [pub("p1", addresses=["beta sub one", "beta sub two", "org alpha"])], orgs=orgs
        )
        rs = ruleset(
            "beta sub one\tORG_B\tSUB1\nbeta sub two\tORG_B\tSUB2\norg alpha\tORG_A\n", orgs=orgs
        )
        rec = reconcile_corpus(corpus, rs).corpus.records[0]
        weights = {(a.org_id, a.subunit_id): a.weight for a in rec.attributions}
        assert weights == {
            ("ORG_A", None): Fraction(1, 2),
            ("ORG_B", "SUB1"): Fraction(1, 4),
            ("ORG_B", "SUB2"): Fraction(1, 4),
        }
        assert sum(weights.values()) == 1

    def test_unmatched_report_counts_sum(self):
        corpus = mk_corpus(
            [
                pub("p1", addresses=["nowhere inst", "org alpha"]),
                pub("p2", addresses=["nowhere inst"]),
                pub("p3", addresses=["elsewhere"]),
            ],
            orgs=ORGS3,
        )
        rs = ruleset("org alpha\tORG_A\n")
        result = reconcile_corpus(corpus, rs)
        assert sum(e.count for e in result.unmatched.entries) == 3
        by_addr = {e.address: e for e in result.unmatched.entries}
        assert by_addr["nowhere inst"].count == 2
        assert set(by_addr["nowhere inst"].sample_ids) == {"p1", "p2"}
        assert result.stats.match_rate == pytest.approx(0.25)
        assert result.stats.n_unattributed == 2

    def test_address_lists_no_record_carries_are_ignored(self):
        corpus = mk_corpus(
            [
                pub("p1", addresses=["nowhere inst"]),
                pub("p2", addresses=["org alpha"]),
                pub("p3", addresses=["elsewhere"]),
            ],
            orgs=ORGS3,
        )
        cols = corpus.columns
        # Columns built by hand may hold a distinct list that no record carries.
        padded = replace(corpus, columns=cols._replace(
            addresses=cols.addresses + 1, address_lists=(("unused place", "org beta"),) + cols.address_lists,
        ))
        rs = ruleset("org alpha\tORG_A\norg beta\tORG_B\n")
        plain, found = reconcile_corpus(corpus, rs), reconcile_corpus(padded, rs)
        assert found.corpus.records == plain.corpus.records
        assert found.unmatched == plain.unmatched and found.stats == plain.stats
        assert [e.sample_ids for e in found.unmatched.entries] == [("p3",), ("p1",)]

    def test_unmatched_records_keep_empty_attributions(self):
        corpus = mk_corpus([pub("p1", addresses=["mystery place"])], orgs=ORGS3)
        rs = ruleset("org alpha\tORG_A\n")
        rec = reconcile_corpus(corpus, rs).corpus.records[0]
        assert rec.attributions == ()

    def test_thread_count_does_not_change_outcome(self):
        pubs = [
            pub(f"p{i:03d}", addresses=[["Org Alpha x", "Org Beta y", "nowhere"][i % 3]])
            for i in range(60)
        ]
        corpus = mk_corpus(pubs, orgs=ORGS3)
        rs = ruleset("org alpha\tORG_A\norg beta\tORG_B\n")
        one = reconcile_corpus(corpus, rs, threads=1)
        four = reconcile_corpus(corpus, rs, threads=4)
        assert one.corpus.records == four.corpus.records
        assert one.unmatched == four.unmatched
        assert one.stats == four.stats

    @given(st.data())
    @settings(max_examples=40)
    def test_weight_conservation_exact(self, data):
        words = ["alpha", "beta", "gamma", "tor", "vergata", "lab"]
        n_addr = data.draw(st.integers(min_value=1, max_value=6))
        addresses = [
            " ".join(data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=4)))
            for _ in range(n_addr)
        ]
        corpus = mk_corpus([pub("p1", addresses=addresses)], orgs=ORGS3)
        rs = ruleset("alpha\tORG_A\nbeta\tORG_B\ngamma\tORG_TV\n")
        rec = reconcile_corpus(corpus, rs).corpus.records[0]
        if rec.attributions:
            assert sum((a.weight for a in rec.attributions), Fraction(0)) == 1

    def test_stale_attributions_cleared_when_nothing_matches(self):
        corpus = mk_corpus(
            [pub("p1", addresses=["mystery place"], attributions=[att("ORG_B")])], orgs=ORGS3
        )
        result = reconcile_corpus(corpus, ruleset("org alpha\tORG_A\n"))
        assert result.corpus.records[0].attributions == ()
        assert result.stats.n_unattributed == 1


class TestRuleTargetGuard:
    """A rule set compiled for other registries cannot attribute to unknown targets."""

    ORGS = ORGS3 + [("SUB1", "Sub One", "RI", "ORG_B")]

    def test_unknown_organization_raises(self):
        rs = ruleset("org beta\tORG_B\n", orgs=self.ORGS)
        corpus = mk_corpus([pub("p1", addresses=["org beta lab"])], orgs=ORGS3[:2])
        with pytest.raises(CorpusValidationError) as exc:
            reconcile_corpus(corpus, rs)
        assert exc.value.diagnostics == ["rule target ORG_B does not match the corpus's organizations"]

    def test_unknown_subunit_raises(self):
        rs = ruleset("beta sub one\tORG_B\tSUB1\n", orgs=self.ORGS)
        corpus = mk_corpus([pub("p1", addresses=["beta sub one"])], orgs=ORGS3)
        with pytest.raises(CorpusValidationError) as exc:
            reconcile_corpus(corpus, rs)
        assert exc.value.diagnostics == ["rule target ORG_B/SUB1 does not match the corpus's organizations"]

    def test_subunit_of_another_organization_raises(self):
        rs = ruleset("beta sub one\tORG_B\tSUB1\n", orgs=self.ORGS)
        corpus = mk_corpus(
            [pub("p1", addresses=["beta sub one"])], orgs=ORGS3 + [("SUB1", "Sub One", "U", "ORG_A")]
        )
        with pytest.raises(CorpusValidationError, match="rule target ORG_B/SUB1 does not match"):
            reconcile_corpus(corpus, rs)

    def test_unmatched_targets_are_not_checked(self):
        rs = ruleset("org beta\tORG_B\norg alpha\tORG_A\n", orgs=self.ORGS)
        corpus = mk_corpus([pub("p1", addresses=["org alpha"])], orgs=ORGS3[:2])
        rec = reconcile_corpus(corpus, rs).corpus.records[0]
        assert [(a.org_id, a.weight) for a in rec.attributions] == [("ORG_A", Fraction(1))]
