"""Byte-for-byte golden outputs of the CLI chain.

Each case runs reconcile, benchmark, indicators (several slices), rank
(CSV and JSON, two metrics) and trend in-process and compares every
file it writes with the frozen copy under ``tests/golden/<case>/expected``.
Two inputs are frozen:

- ``synth``: a small seeded synthetic world (single-field records only);
- ``fixture``: a hand-written corpus under ``tests/golden/fixture/input``
  with multi-field records spanning two disciplines, a sub-unit rule,
  unmatched and missing addresses, a degenerate (all-zero) benchmark
  cell, and an ``--xcr-csv`` table with the (2003, F2) cell removed, so
  the discipline-mean and exclusion paths are frozen too.

``synth/world`` freezes the files that ``synth`` writes for the ``synth``
case: the three registries (journals with full-precision impact factors,
orgs, field scheme) and the publications JSONL. ``reconcile`` re-encodes
every record, so only this copy pins the generator's own key order and
spacing.

The expected files are data, not a regeneration target: a change that
alters them changes the engine's results. They include the two column
snapshots that ``reconcile`` writes, of the reconciled JSONL and of the
raw publications file, which freeze their format; the chain is also run
with both deleted after ``reconcile``.

``diagnostics`` is no chain case: ``validate`` on a publications file
whose lines break every rule of a valid line, one at a time and all at
once, against the fixture's registries. Its stderr freezes every
diagnostic's text and their order.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from fieldimpact import corpus as corpus_module
from fieldimpact.cli import dispatch
from fieldimpact.corpus import snapshot_path
from fieldimpact.synth import build_world_spec

GOLDEN = Path(__file__).parent / "golden"

SLICES = ("nation", "org", "discipline,year", "field,year", "org,field", "subunit")
RANK_METRICS = ("mean_cx", "top_decile_mean_cx")
TREND_METRICS = "mean_cx,top_share_pct,mean_cjx,weight"
SNAPSHOT = "publications.reconciled.jsonl.snapshot"


def raw_snapshot(inputs: dict) -> str:
    """The name of the raw publications file's snapshot that ``reconcile`` writes."""
    return f"input-{hashlib.sha256(inputs['pubs'].read_bytes()).hexdigest()}.snapshot"


def synth_inputs(tmp_path: Path) -> dict:
    spec = build_world_spec(
        11, n_fields=4, years=(2001, 2004), annual_volume=25, n_orgs=6, coauthor_rate=0.3
    )
    spec_path = tmp_path / "synth.spec"
    spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    world = tmp_path / "world"
    assert dispatch(["synth", "--spec", str(spec_path), "--out-dir", str(world)]) == 0
    return {
        "pubs": world / "publications.jsonl",
        "journals": world / "journals.csv",
        "orgs": world / "orgs.csv",
        "fields": world / "fieldscheme.csv",
        "rules": world / "rules.tsv",
        "benchmark_opts": [],
        "min_weight": "5",
    }


def fixture_inputs(tmp_path: Path) -> dict:
    src = GOLDEN / "fixture" / "input"
    return {
        "pubs": src / "publications.jsonl",
        "journals": src / "journals.csv",
        "orgs": src / "orgs.csv",
        "fields": src / "fields.csv",
        "rules": src / "rules.tsv",
        "benchmark_opts": ["--xcr-csv", str(src / "xcr_partial.csv")],
        "min_weight": "0",
    }


INPUTS = {"synth": synth_inputs, "fixture": fixture_inputs}


def corpus_args(inputs: dict, pubs: Path) -> list[str]:
    return [
        "--pubs", str(pubs),
        "--journals", str(inputs["journals"]),
        "--orgs", str(inputs["orgs"]),
        "--fields", str(inputs["fields"]),
    ]


def run_chain(inputs: dict, out: Path, keep_snapshot: bool = True) -> None:
    """Run every frozen command, writing all outputs into ``out``; without
    ``keep_snapshot``, later commands parse the raw and the reconciled JSONL."""

    def run(*argv: str) -> None:
        assert dispatch(list(argv)) == 0, argv

    run("reconcile", *corpus_args(inputs, inputs["pubs"]),
        "--rules", str(inputs["rules"]), "--out-dir", str(out))
    if not keep_snapshot:
        snapshot_path(out / "publications.reconciled.jsonl").unlink()
        (out / raw_snapshot(inputs)).unlink()
    run("benchmark", *corpus_args(inputs, inputs["pubs"]), "--out-dir", str(out))
    reconciled = corpus_args(inputs, out / "publications.reconciled.jsonl")
    bm = inputs["benchmark_opts"]
    for slice_spec in SLICES:
        run("indicators", *reconciled, *bm, "--slice", slice_spec, "--out-dir", str(out))
    for metric in RANK_METRICS:
        for fmt in ("csv", "json"):
            run("rank", *reconciled, *bm, "--metric", metric,
                "--min-weight", inputs["min_weight"], "--limit", "20",
                "--format", fmt, "--out", str(out / f"rank_org_{metric}.{fmt}"))
    run("trend", *reconciled, *bm, "--slice", "discipline",
        "--metrics", TREND_METRICS, "--out-dir", str(out))


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_golden_outputs_byte_identical(case, tmp_path):
    out = tmp_path / "out"
    run_chain(INPUTS[case](tmp_path), out)
    expected_dir = GOLDEN / case / "expected"
    expected = sorted(p.name for p in expected_dir.iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (expected_dir / name).read_bytes(), name


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_golden_outputs_without_snapshot_byte_identical(case, tmp_path):
    """The snapshots are caches: parsing both JSONL files instead gives every other file unchanged."""
    out = tmp_path / "out"
    inputs = INPUTS[case](tmp_path)
    run_chain(inputs, out, keep_snapshot=False)
    expected_dir = GOLDEN / case / "expected"
    expected = sorted(p.name for p in expected_dir.iterdir() if p.name not in (SNAPSHOT, raw_snapshot(inputs)))
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (expected_dir / name).read_bytes(), name


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_reconcile_again_loads_its_raw_snapshot(case, tmp_path, monkeypatch):
    """A second ``reconcile`` into the same directory loads the raw file's
    snapshot, does not rewrite it, and leaves every output file unchanged."""
    inputs, out = INPUTS[case](tmp_path), tmp_path / "out"
    argv = ["reconcile", *corpus_args(inputs, inputs["pubs"]), "--rules", str(inputs["rules"]), "--out-dir", str(out)]
    assert dispatch(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert raw_snapshot(inputs) in first
    written, original = [], corpus_module._write_snapshot
    monkeypatch.setattr(corpus_module, "_write_snapshot", lambda *args: written.append(args[1]) or original(*args))
    assert dispatch(argv) == 0
    assert written == [out / SNAPSHOT]  # only the reconciled JSONL's snapshot
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_diagnostics_byte_identical(tmp_path, capsys):
    """Every line diagnostic, the duplicate ids and the dangling references, in order, as `validate` prints them."""
    inputs = fixture_inputs(tmp_path)
    case = GOLDEN / "diagnostics"
    assert dispatch(["validate", *corpus_args(inputs, case / "input" / "publications.jsonl")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.encode() == (case / "expected" / "validate.stderr").read_bytes()


def test_synth_world_byte_identical(tmp_path):
    """The registries and publications `synth` writes for the golden spec, frozen under ``synth/world``."""
    inputs = synth_inputs(tmp_path)
    for key, name in (("journals", "journals.csv"), ("orgs", "orgs.csv"), ("fields", "fieldscheme.csv"),
                      ("pubs", "publications.jsonl")):
        assert inputs[key].read_bytes() == (GOLDEN / "synth" / "world" / name).read_bytes(), name


def test_rank_by_subunit_has_no_empty_entity(tmp_path, capsys):
    """Org-level shares rank under their organization's id, not as one blank entity."""
    inputs = fixture_inputs(tmp_path)
    code = dispatch(["rank", *corpus_args(inputs, inputs["pubs"]), "--rules", str(inputs["rules"]),
                     "--group-by", "subunit", "--min-weight", "0", "--limit", "20", "--out", "-"])
    assert code == 0
    entities = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert sorted(entities) == ["A", "A_LAB", "B", "C"]
