"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 1-3 are self-contained arithmetic on reference figures; 4-9 are
property checks on seeded synthetic corpora; 10 is an engineering target
on a million-record pipeline.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from fieldimpact.benchmarks import classify_top_journals, compute_benchmarks
from fieldimpact.corpus import FieldScheme, Journal, parse_corpus, doc_type_shares
from fieldimpact.indicators import (
    aggregate,
    concentration_index_from_shares,
    org_type_discipline_weights,
)
from fieldimpact.reconcile import compile_rules, normalize_address, reconcile_corpus
from fieldimpact.reporting import RankingSpec, rank, render
from fieldimpact.synth import (
    FieldProfile,
    SynthOrg,
    SynthSpec,
    build_world_spec,
    distortion_demo,
    generate_corpus,
)
from fieldimpact.trends import avg_annual_increase

from conftest import first_match_oracle, jsonl, journals_csv, orgs_csv, pub, scheme_csv, top_decile_oracle


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}", flush=True)


# --- Criterion 1: concentration indices from published output shares. ----

# Per-discipline output shares by organization type (universities,
# research institutions, hospitals-HCROs) with the reference index value.
SHARE_TABLE = {
    "Biology": ((70.0, 1.03), (20.8, 0.98), (9.2, 0.83)),
    "Biomedical research": ((61.4, 0.90), (9.1, 0.43), (29.5, 2.66)),
    "Chemistry": ((75.9, 1.12), (22.9, 1.08), (1.2, 0.11)),
    "Clinical medicine": ((65.5, 0.96), (7.1, 0.33), (27.4, 2.47)),
    "Earth and space sciences": ((62.7, 0.92), (35.3, 1.67), (2.0, 0.18)),
    "Engineering": ((76.7, 1.13), (21.5, 1.01), (1.7, 0.15)),
    "Mathematics": ((89.2, 1.31), (10.8, 0.51), (0.0, 0.0)),
    "Physics": ((58.8, 0.87), (40.7, 1.92), (0.5, 0.05)),
}
OVERALL_SHARES = (67.9, 21.2, 11.1)


def test_criterion_1_concentration_reproduction():
    with criterion(1, "24 concentration indices reproduced within ±0.01 in < 1 s"):
        start = time.perf_counter()
        checked = 0
        for discipline, cells in SHARE_TABLE.items():
            for (share, reference), overall in zip(cells, OVERALL_SHARES):
                value = concentration_index_from_shares(share, overall)
                assert value == pytest.approx(reference, abs=0.01), (discipline, share, overall)
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 24
        assert elapsed < 1.0


# --- Criterion 2: document-type shares from reference counts. ------------

COUNTS_BY_YEAR = {
    2001: ((25956, 69.5), (10195, 27.3), (1202, 3.2)),
    2002: ((26785, 70.0), (10160, 26.5), (1337, 3.5)),
    2003: ((28090, 67.1), (12330, 29.4), (1449, 3.5)),
    2004: ((29638, 67.9), (12305, 28.2), (1726, 4.0)),
    2005: ((30904, 67.9), (12643, 27.8), (1960, 4.3)),
    2006: ((32662, 69.3), (12044, 25.5), (2458, 5.2)),
    "all": ((174035, 68.6), (69677, 27.4), (10132, 4.0)),
}


def test_criterion_2_document_type_shares():
    with criterion(2, "21 document-type percentages reproduced within ±0.05 pp"):
        checked = 0
        for row in COUNTS_BY_YEAR.values():
            counts = {"article": row[0][0], "proceedings": row[1][0], "review": row[2][0]}
            shares = doc_type_shares(counts)
            for key, (_, reference) in zip(("article", "proceedings", "review"), row):
                assert shares[key] == pytest.approx(reference, abs=0.05)
                checked += 1
        assert checked == 21


# --- Criterion 3: growth sanity on reference totals. ----------------------

ANNUAL_TOTALS = [37353, 38282, 41869, 43669, 45507, 47164]


def test_criterion_3_growth_sanity():
    with criterion(3, "total growth 26.3% and compound annual rate 4.78% (±0.1 pp)"):
        total_growth = 100.0 * (ANNUAL_TOTALS[-1] / ANNUAL_TOTALS[0] - 1)
        assert total_growth == pytest.approx(26.3, abs=0.1)
        cagr = avg_annual_increase(ANNUAL_TOTALS)
        assert cagr == pytest.approx(4.78, abs=0.1)


# --- Criterion 4: benchmark closure on a synthetic world. -----------------


def test_criterion_4_benchmark_closure(tmp_path):
    with criterion(4, "every field-year and journal-year cell self-normalizes to 1 ± 1e-9"):
        spec = build_world_spec(8601, n_fields=6, years=(2001, 2006), annual_volume=150)
        generated = generate_corpus(spec, tmp_path)
        corpus = parse_corpus(generated.publications, generated.journals, generated.orgs, generated.field_scheme)
        assert corpus.summary().n_records >= 5000
        benchmarks = compute_benchmarks(corpus)
        assert all(cell.mean != 0.0 for cell in (*benchmarks.xcr.cells.values(), *benchmarks.jxcr.cells.values()))
        top = classify_top_journals(corpus.journals, corpus.field_scheme)

        rows = aggregate(corpus, ("field", "year"), benchmarks, top)
        assert len(rows) == 6 * 6
        for row in rows:
            assert row.mean_cx == pytest.approx(1.0, rel=1e-9)

        by_cell: dict[tuple, list] = {}
        for rec in corpus.records:
            ratio = rec.citations / benchmarks.jxcr.expected(rec.year, rec.journal_id)
            by_cell.setdefault((rec.year, rec.journal_id), []).append(ratio)
        assert len(by_cell) == len(benchmarks.jxcr.cells)
        for ratios in by_cell.values():
            assert math.fsum(ratios) / len(ratios) == pytest.approx(1.0, rel=1e-9)


# --- Criterion 5: the distortion demonstration. ----------------------------


def test_criterion_5_distortion_demo():
    with criterion(5, "raw means differ ≥ 2x, standardized within 5%, deterministic"):
        first = distortion_demo()
        second = distortion_demo()
        assert first.raw_ratio >= 2.0
        assert first.standardized_rel_diff < 0.05
        assert first.passed
        assert first.raw_means == second.raw_means
        assert first.standardized_means == second.standardized_means
        assert first.raw_ranking == second.raw_ranking
        assert first.standardized_ranking == second.standardized_ranking


# --- Criterion 6: concentration closure on a reconciled synthetic corpus. --


def test_criterion_6_concentration_closure(tmp_path):
    with criterion(6, "per discipline, Σ (org-type share × CI) = 1 ± 1e-9"):
        spec = build_world_spec(
            7301, n_fields=6, years=(2001, 2006), annual_volume=120, n_orgs=12, coauthor_rate=0.2
        )
        generated = generate_corpus(spec, tmp_path)
        corpus = parse_corpus(generated.publications, generated.journals, generated.orgs, generated.field_scheme)
        rules = compile_rules(generated.rules, corpus.organizations)
        reconciled = reconcile_corpus(corpus, rules).corpus
        w_td, w_d, w_t, total = org_type_discipline_weights(reconciled)
        assert w_d, "reconciled corpus must carry attributed disciplines"
        for discipline, disc_total in w_d.items():
            acc = 0.0
            acc_exact = Fraction(0)
            for org_type, overall in w_t.items():
                share = w_td.get((org_type, discipline), Fraction(0)) / disc_total
                overall_share = overall / total
                ci = float(share) / float(overall_share)
                acc += float(overall_share) * ci
                acc_exact += overall_share * (share / overall_share)
            assert acc == pytest.approx(1.0, abs=1e-9), discipline
            assert acc_exact == 1


# --- Criterion 7: hand-built reconciliation fixture with an oracle. --------

FIXTURE_ORGS = [
    ("TORV", "University of Rome Example", "U", None),
    ("CNRX", "National Research Example", "RI", None),
    ("OSPG", "San Giovanni Hospital Example", "H", None),
]

FIXTURE_RULES = "\n".join(
    [
        "univ roma tor vergata\tTORV",
        "tor vergata\tTORV",
        "universita di roma tor vergata\tTORV",
        "dip ing impresa\tTORV",
        "cnr ist nazionale\tCNRX",
        "consiglio nazionale delle ricerche\tCNRX",
        "cnr\tCNRX",
        "istituto cnr\tCNRX",
        "osp san giovanni\tOSPG",
        "ospedale s giovanni\tOSPG",
        "san giovanni hosp\tOSPG",
        "s giovanni\tOSPG",
    ]
) + "\n"

FIXTURE_ADDRESSES = [
    ("TORV", "Univ. Roma 'Tor Vergatà', Dip. Fisica"),
    ("TORV", "Università di Roma Tor Vergata - Dept. Medicina"),
    ("TORV", "UNIV ROMA TOR VERGATA"),
    ("TORV", "Dip. Ing. Impresa, Via del Politecnico 1, Roma"),
    ("TORV", "dip ing impresa universita tor vergata"),
    ("TORV", "Univ Roma Tor Vergata, Fac. Economia"),
    ("TORV", "tor vergata university of rome"),
    ("TORV", "Phys Dept, Univ. Roma Tor-Vergata"),
    ("TORV", "Centro Calcolo, Università 'Tor Vergatà'"),
    ("TORV", "Rome Tor Vergata Univ Hosp"),
    ("CNRX", "CNR Ist Nazionale di Ottica, Firenze"),
    ("CNRX", "Consiglio Nazionale delle Ricerche, Roma"),
    ("CNRX", "CNR, Area della Ricerca di Bologna"),
    ("CNRX", "Istituto CNR per la Chimica"),
    ("CNRX", "ICTP & CNR joint lab"),
    ("CNRX", "Consiglio Nazionale delle Ricerche - IMATI"),
    ("CNRX", "cnr ist nazionale astrofisica"),
    ("CNRX", "Lab CNR Milano"),
    ("CNRX", "CONSIGLIO NAZIONALE DELLE RICERCHE (CNR)"),
    ("CNRX", "Sez. di Genova, CNR"),
    ("OSPG", "Osp. San Giovanni, Torino"),
    ("OSPG", "Ospedale S. Giovanni Calibita"),
    ("OSPG", "San Giovanni Hosp, Dept Cardiology"),
    ("OSPG", "Osp San Giovanni Addolorata"),
    ("OSPG", "s. giovanni"),
    ("OSPG", "A.O. S. Giovanni-Addolorata"),
    ("OSPG", "OSPEDALE S GIOVANNI BOSCO"),
    ("OSPG", "Divisione Oncologia, Osp. San Giovanni"),
    ("OSPG", "san giovanni hosp torino italy"),
    ("OSPG", "Clin Chir, Ospedale S. Giovanni di Dio"),
]


def test_criterion_7_reconciliation_fixture(tmp_path):
    with criterion(7, "30 address variants: 100% matched, weights exact, oracle agrees"):
        assert len(FIXTURE_ADDRESSES) == 30
        assert len(FIXTURE_RULES.strip().splitlines()) == 12
        pubs = [
            pub(f"a{i:02d}", citations=i, addresses=[address])
            for i, (_, address) in enumerate(FIXTURE_ADDRESSES)
        ]
        import io

        corpus = parse_corpus(
            io.StringIO(jsonl(pubs)),
            io.StringIO(journals_csv([("J1", "Journal One", 1.0, ["F1"])])),
            io.StringIO(orgs_csv(FIXTURE_ORGS)),
            io.StringIO(scheme_csv({"F1": "Physics"})),
        )
        rules = compile_rules(io.StringIO(FIXTURE_RULES), corpus.organizations)
        result = reconcile_corpus(corpus, rules)

        assert result.stats.match_rate == 1.0
        assert result.stats.matched_addresses == 30
        assert result.unmatched.entries == ()

        org_weights: dict[str, Fraction] = {}
        for rec, (expected_org, address) in zip(result.corpus.records, FIXTURE_ADDRESSES):
            total = sum((a.weight for a in rec.attributions), Fraction(0))
            assert total == 1
            assert [a.org_id for a in rec.attributions] == [expected_org]
            for a in rec.attributions:
                org_weights[a.org_id] = org_weights.get(a.org_id, Fraction(0)) + a.weight
            normalized = normalize_address(address)
            oracle_rule = first_match_oracle(normalized, rules)
            assert oracle_rule is not None
            assert rules.match(normalized) is oracle_rule
        assert sum(org_weights.values()) == 30
        assert org_weights == {"TORV": 10, "CNRX": 10, "OSPG": 10}


# --- Criterion 8: top-decile classification against a brute-force oracle. --


def test_criterion_8_top_decile_oracle():
    with criterion(8, "200 random IF tables agree with the sort-and-count oracle"):
        rng = np.random.default_rng(20118815)
        for trial in range(200):
            n = int(rng.integers(1, 501))
            ifs = np.round(rng.lognormal(0.2, 0.9, n), 1)  # one-decimal grid injects ties
            journals = [
                Journal(f"J{i:04d}", f"Journal {i}", float(ifs[i]), ("F1",)) for i in range(n)
            ]
            top = classify_top_journals({j.id: j for j in journals}, FieldScheme({"F1": "Physics"}))
            expected = top_decile_oracle(journals)
            assert top.by_field["F1"] == expected["F1"], trial
            count = len(top.by_field["F1"])
            assert math.ceil(0.1 * n) <= count <= n


# --- Criterion 9: ranking threshold monotonicity. ---------------------------


def test_criterion_9_ranking_monotonicity(tmp_path):
    with criterion(9, "raising the threshold 0→25→50→100 only removes entities"):
        volumes = {"F0": 3, "F1": 15, "F2": 40, "F3": 75}
        fields = tuple(
            FieldProfile(fid, "Physics", 4.0, 2.0, 4, vol) for fid, vol in volumes.items()
        )
        orgs = tuple(
            SynthOrg(f"U{i:02d}", f"Synth University {i:03d}", "U", {f"F{i % 4}": 1.0})
            for i in range(8)
        )
        spec = SynthSpec(2001, 2006, fields, orgs, seed=4242, coauthor_rate=0.05)
        generated = generate_corpus(spec, tmp_path)
        corpus = parse_corpus(generated.publications, generated.journals, generated.orgs, generated.field_scheme)
        rules = compile_rules(generated.rules, corpus.organizations)
        reconciled = reconcile_corpus(corpus, rules).corpus
        benchmarks = compute_benchmarks(reconciled)
        top = classify_top_journals(reconciled.journals, reconciled.field_scheme)
        rows = aggregate(reconciled, ("org",), benchmarks, top)

        previous = None
        sizes = []
        for threshold in (0, 25, 50, 100):
            spec_t = RankingSpec("org", "mean_cx", min_weight=threshold, limit=100)
            entities = {row[0] for row in rank(rows, spec_t).rows}
            sizes.append(len(entities))
            if previous is not None:
                assert entities <= previous, threshold
            previous = entities
        assert sizes[0] > sizes[-1] > 0  # the ladder actually bites


# --- Criterion 10: million-record pipeline under 60 s, thread-invariant. ----


def run_pipeline(generated, threads: int) -> tuple[str, str]:
    corpus = parse_corpus(
        generated.publications, generated.journals, generated.orgs, generated.field_scheme
    )
    rules = compile_rules(generated.rules, corpus.organizations)
    result = reconcile_corpus(corpus, rules, threads=threads)
    benchmarks = compute_benchmarks(result.corpus)
    top = classify_top_journals(corpus.journals, corpus.field_scheme)
    rows = aggregate(result.corpus, ("org",), benchmarks, top)
    table = rank(rows, RankingSpec("org", "mean_cx", min_weight=50, limit=10))
    import io as _io

    unmatched = _io.StringIO()
    result.unmatched.to_csv(unmatched)
    return render(table, "csv"), unmatched.getvalue()


def test_criterion_10_million_record_performance(tmp_path):
    with criterion(10, "1,000,000-record pipeline < 60 s with thread-invariant output"):
        spec = build_world_spec(
            2024, n_fields=10, years=(2001, 2006), annual_volume=16700, n_orgs=60,
            coauthor_rate=0.10,
        )
        generated = generate_corpus(spec, tmp_path)
        assert generated.n_publications >= 1_000_000

        start = time.perf_counter()
        single = run_pipeline(generated, threads=1)
        elapsed = time.perf_counter() - start
        threaded = run_pipeline(generated, threads=4)
        assert single == threaded
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
        print(f"    [pipeline: {elapsed:.1f}s single-threaded]", flush=True)
