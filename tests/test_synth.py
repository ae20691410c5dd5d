import dataclasses
import json
import tracemalloc

import pytest

from fieldimpact.benchmarks import classify_top_journals, compute_benchmarks
from fieldimpact.cli import dispatch
from fieldimpact.corpus import parse_corpus
from fieldimpact.indicators import aggregate
from fieldimpact.reconcile import compile_rules, reconcile_corpus
from fieldimpact.synth import (
    GENERATOR_NAME,
    FieldProfile,
    SynthError,
    SynthOrg,
    SynthSpec,
    build_demo_spec,
    build_world_spec,
    distortion_demo,
    generate_corpus,
    load_spec,
    spec_from_dict,
)


def one_field_spec(seed=1234, mu=0.01, volume=1000, dispersion=1.0):
    return SynthSpec(
        year_start=2003,
        year_end=2003,
        fields=(FieldProfile("F0", "Physics", mu, dispersion, 3, volume),),
        orgs=(),
        seed=seed,
    )


class TestSpecValidation:
    def test_seed_mandatory_in_file_format(self):
        with pytest.raises(SynthError):
            spec_from_dict({"years": [2001, 2002], "fields": [], "orgs": []})

    def test_mix_must_sum_to_one(self):
        spec = SynthSpec(
            2001, 2002,
            fields=(FieldProfile("F0", "Physics", 1.0, 1.0, 1, 10),),
            orgs=(SynthOrg("U1", "U One", "U", {"F0": 0.7}),),
            seed=1,
        )
        with pytest.raises(SynthError, match="sum to"):
            spec.validate()

    def test_mu_must_be_positive(self):
        with pytest.raises(SynthError, match="> 0"):
            one_field_spec(mu=0.0).validate()

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("field", "mean_citations", "Infinity"),
            ("field", "if_sigma", "NaN"),
            ("field", "dispersion", "-Infinity"),
            ("org", "field_mix", "NaN"),
            ("spec", "coauthor_rate", "NaN"),
            ("spec", "doc_type_weights", "[0.5, NaN, 0.5]"),
        ],
    )
    def test_non_finite_spec_number_is_a_diagnostic(self, tmp_path, capsys, where, key, value):
        raw = build_world_spec(7, n_fields=2, n_orgs=2).to_dict()
        target = {"field": raw["fields"][0], "org": raw["orgs"][0], "spec": raw}[where]
        target[key] = {"F00": "@"} if key == "field_mix" else "@"
        path = tmp_path / "bad.spec"
        path.write_text(json.dumps(raw).replace('"@"', value), encoding="utf-8")
        with pytest.raises(SynthError):
            load_spec(path)
        assert dispatch(["synth", "--spec", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("name", ["Tab\tUniversity", "Line\nUniversity", "Return\rUniversity"])
    def test_org_name_that_rules_tsv_cannot_hold_is_rejected(self, name):
        spec = build_world_spec(7, n_fields=2, n_orgs=2)
        spec = dataclasses.replace(spec, orgs=(dataclasses.replace(spec.orgs[0], name=name),))
        with pytest.raises(SynthError, match="tab or line break"):
            spec.validate()

    @pytest.mark.parametrize("name", ["#1 University", "  # Institute"])
    def test_org_name_that_rules_tsv_reads_as_a_comment_is_rejected(self, tmp_path, capsys, name):
        spec = build_world_spec(3, n_fields=2, n_orgs=2, annual_volume=20)
        spec = dataclasses.replace(spec, orgs=(dataclasses.replace(spec.orgs[0], name=name), *spec.orgs[1:]))
        with pytest.raises(SynthError, match="would read as a rules.tsv comment"):
            spec.validate()
        path = tmp_path / "bad.spec"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        assert dispatch(["synth", "--spec", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: org ")

    @pytest.mark.parametrize("name", ["!!!", " - "])
    def test_org_name_that_normalizes_to_nothing_is_rejected(self, name):
        spec = build_world_spec(7, n_fields=2, n_orgs=2)
        spec = dataclasses.replace(spec, orgs=(dataclasses.replace(spec.orgs[0], name=name),))
        with pytest.raises(SynthError, match="empty after normalization"):
            spec.validate()

    @pytest.mark.parametrize("field_id", ["F;0", " F0", "F0 ", "F0\t", ""])
    def test_field_id_the_loaders_would_split_or_strip_is_rejected(self, tmp_path, capsys, field_id):
        spec = build_world_spec(3, n_fields=2, n_orgs=2)
        spec = dataclasses.replace(spec, fields=(dataclasses.replace(spec.fields[0], field_id=field_id),
                                                 *spec.fields[1:]))
        with pytest.raises(SynthError, match="must be non-empty, without ';' or surrounding whitespace"):
            spec.validate()
        path = tmp_path / "bad.spec"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        assert dispatch(["synth", "--spec", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: field ")

    def test_duplicate_org_ids_are_rejected(self, tmp_path, capsys):
        spec = build_world_spec(3, n_fields=2, n_orgs=2)
        spec = dataclasses.replace(spec, orgs=(spec.orgs[0], dataclasses.replace(spec.orgs[1], org_id="U000")))
        with pytest.raises(SynthError, match="duplicate org ids"):
            spec.validate()
        path = tmp_path / "bad.spec"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        out = tmp_path / "out"
        assert dispatch(["synth", "--spec", str(path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: duplicate org ids"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "part, change, message",
        [
            ("spec", {"year_end": 2000}, "year_end must be >= year_start"),
            ("spec", {"fields": ()}, "at least one field profile required"),
            ("spec", {"coauthor_rate": 1.5}, "coauthor_rate must be in [0, 1]"),
            ("spec", {"coauthor_rate": -0.1}, "coauthor_rate must be in [0, 1]"),
            ("spec", {"doc_type_weights": (0.5, 0.5)}, "doc_type_weights must be 3 finite numbers >= 0"),
            ("spec", {"doc_type_weights": (1.2, -0.2, 0.0)}, "doc_type_weights must be 3 finite numbers >= 0"),
            ("spec", {"doc_type_weights": (0.5, 0.5, 0.5)}, "doc_type_weights must sum to 1"),
            ("spec", {"address_variants": 0}, "address_variants must be >= 1"),
            ("field", {"mean_citations": 0.0}, "field F00: mean citation level must be > 0"),
            ("field", {"dispersion": 0.0}, "field F00: dispersion must be > 0"),
            ("field", {"journal_count": 0}, "field F00: journal count must be >= 1"),
            ("field", {"annual_volume": -1}, "field F00: annual volume must be >= 0"),
            ("field", {"if_sigma": -0.5}, "field F00: if_sigma must be >= 0"),
            ("field", {"field_id": "F01"}, "duplicate field ids in profiles"),
            # orgs.csv cannot hold these ids: its loader strips cells and refuses an empty id.
            *(("org", {"org_id": org_id}, f"org {org_id!r}: id must be non-empty, without surrounding whitespace")
              for org_id in ("", " ", " U000", "U000 ")),
            ("org", {"org_type": "X"}, "org U000: org_type must be U, RI or H"),
            ("org", {"field_mix": {"F00": 1.5, "F01": -0.5}}, "org U000: field-mix weights must be finite and >= 0"),
            ("org", {"field_mix": {"F00": 0.5, "F99": 0.5}}, "org U000: unknown fields in mix: ['F99']"),
        ],
    )
    def test_spec_check_message_and_exit_code(self, tmp_path, capsys, part, change, message):
        spec = build_world_spec(3, n_fields=2, n_orgs=2)
        if part == "field":
            spec = dataclasses.replace(spec, fields=(dataclasses.replace(spec.fields[0], **change), *spec.fields[1:]))
        elif part == "org":
            spec = dataclasses.replace(spec, orgs=(dataclasses.replace(spec.orgs[0], **change), *spec.orgs[1:]))
        else:
            spec = dataclasses.replace(spec, **change)
        with pytest.raises(SynthError) as exc:
            spec.validate()
        assert str(exc.value) == message
        path = tmp_path / "bad.spec"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        out = tmp_path / "out"
        assert dispatch(["synth", "--spec", str(path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_missing_seed_is_rejected(self):
        spec = dataclasses.replace(build_world_spec(3, n_fields=2, n_orgs=2), seed=None)
        with pytest.raises(SynthError, match="^seed is mandatory$"):
            spec.validate()

    def test_absent_optional_keys_take_the_dataclass_defaults(self):
        raw = build_world_spec(7, n_fields=2, n_orgs=2).to_dict()
        for key in ("coauthor_rate", "doc_type_weights", "address_variants"):
            del raw[key]
        for field in raw["fields"]:
            del field["if_location"], field["if_sigma"]
        spec = spec_from_dict(raw)
        assert spec == SynthSpec(spec.year_start, spec.year_end, tuple(
            FieldProfile(f.field_id, f.discipline_id, f.mean_citations, f.dispersion, f.journal_count, f.annual_volume)
            for f in spec.fields
        ), spec.orgs, spec.seed)

    def test_spec_file_round_trip(self, tmp_path):
        spec = build_world_spec(7, n_fields=3, n_orgs=3)
        path = tmp_path / "synth.spec"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        assert load_spec(path) == spec

    def test_to_dict_holds_only_json_types(self):
        raw = build_world_spec(7, n_fields=2, n_orgs=2).to_dict()
        assert raw == json.loads(json.dumps(raw))  # tuples would come back as lists
        assert raw["years"] == [2001, 2006] and "year_start" not in raw and "year_end" not in raw


class TestGeneration:
    def test_same_spec_same_seed_byte_identical(self, tmp_path):
        spec = build_world_spec(42, n_fields=3, annual_volume=40, n_orgs=5, years=(2001, 2002))
        g1 = generate_corpus(spec, tmp_path / "a")
        g2 = generate_corpus(spec, tmp_path / "b")
        for name in ("publications.jsonl", "journals.csv", "orgs.csv", "fieldscheme.csv", "rules.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        spec = build_world_spec(42, n_fields=2, annual_volume=40, n_orgs=3, years=(2001, 2001))
        other = build_world_spec(43, n_fields=2, annual_volume=40, n_orgs=3, years=(2001, 2001))
        g1 = generate_corpus(spec, tmp_path / "a")
        g2 = generate_corpus(other, tmp_path / "b")
        assert g1.publications.read_bytes() != g2.publications.read_bytes()

    def test_generated_files_parse_with_zero_diagnostics(self, tmp_path):
        spec = build_world_spec(11, n_fields=4, annual_volume=30, n_orgs=6, years=(2001, 2003))
        g = generate_corpus(spec, tmp_path)
        corpus = parse_corpus(g.publications, g.journals, g.orgs, g.field_scheme)
        assert corpus.summary().n_records == g.n_publications

    def test_org_name_with_comma_and_quote_loads_and_reconciles(self, tmp_path):
        spec = build_world_spec(11, n_fields=2, annual_volume=30, n_orgs=2, years=(2001, 2001))
        orgs = (dataclasses.replace(spec.orgs[0], name='Synth, "Comma" University'), spec.orgs[1])
        g = generate_corpus(dataclasses.replace(spec, orgs=orgs), tmp_path)
        corpus = parse_corpus(g.publications, g.journals, g.orgs, g.field_scheme)
        assert corpus.organizations["U000"].name == 'Synth, "Comma" University'
        result = reconcile_corpus(corpus, compile_rules(g.rules, corpus.organizations))
        assert result.stats.n_attributed == result.stats.n_records

    def test_low_mean_sampler_tracks_its_target(self, tmp_path):
        # Law-of-large-numbers check against the sampler's configured mean.
        g = generate_corpus(one_field_spec(seed=1234, mu=0.01, volume=100_000), tmp_path)
        corpus = parse_corpus(g.publications, g.journals, g.orgs, g.field_scheme)
        empirical = sum(r.citations for r in corpus.records) / len(corpus.records)
        assert abs(empirical - 0.01) / 0.01 < 0.10

    def test_heterogeneous_fields_normalize_to_one(self, tmp_path):
        spec = SynthSpec(
            2003, 2003,
            fields=(
                FieldProfile("LO", "Physics", 2.0, 5.0, 3, 4000),
                FieldProfile("HI", "Biology", 10.0, 5.0, 3, 4000),
            ),
            orgs=(),
            seed=99,
        )
        g = generate_corpus(spec, tmp_path)
        corpus = parse_corpus(g.publications, g.journals, g.orgs, g.field_scheme)
        lo = [r.citations for r in corpus.records if r.field_ids[0] == "LO"]
        hi = [r.citations for r in corpus.records if r.field_ids[0] == "HI"]
        raw_ratio = (sum(hi) / len(hi)) / (sum(lo) / len(lo))
        assert raw_ratio == pytest.approx(5.0, rel=0.2)
        bm = compute_benchmarks(corpus)
        top = classify_top_journals(corpus.journals, corpus.field_scheme)
        for row in aggregate(corpus, ("field",), bm, top):
            assert row.mean_cx == pytest.approx(1.0, rel=1e-9)

    def test_peak_memory_is_per_block(self, tmp_path):
        """Publications are written one (year, field) block at a time, so four
        years of blocks peak about as high as one year does."""

        def peak(years):
            spec = build_world_spec(8, n_fields=2, years=years, annual_volume=4000, n_orgs=3)
            tracemalloc.start()
            try:
                generate_corpus(spec, tmp_path / str(years[1]))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((2001, 2001))  # first-call allocations (lazy imports, caches) are not per block
        assert peak((2001, 2004)) < 1.5 * peak((2001, 2001))

    def test_metadata_records_generator_and_seed(self, tmp_path):
        g = generate_corpus(one_field_spec(seed=5, volume=10), tmp_path)
        meta = json.loads(g.meta.read_text())
        assert meta["generator"] == GENERATOR_NAME == "numpy-PCG64"
        assert meta["seed"] == 5
        assert meta["spec"]["fields"][0]["mean_citations"] == 0.01


class TestDistortionDemo:
    def test_default_spec_separates_raw_but_not_standardized(self):
        report = distortion_demo()
        assert report.raw_ratio >= 2.0
        assert report.standardized_rel_diff < 0.05
        assert report.passed

    def test_deterministic_under_fixed_seed(self):
        a = distortion_demo(seed=31)
        b = distortion_demo(seed=31)
        assert a.raw_means == b.raw_means
        assert a.standardized_means == b.standardized_means
        assert a.raw_ranking == b.raw_ranking

    def test_symmetric_mixes_show_no_distortion(self):
        # With identical field mixes neither ranking separates the two
        # organizations: the rankings agree in the only sense sampling
        # noise allows (both are ties at the demo's own tolerances).
        spec = build_demo_spec(777, concentrated_mix=(0.5, 0.5), spread_mix=(0.5, 0.5))
        report = distortion_demo(spec=spec)
        assert report.raw_ratio < 2.0
        assert report.raw_ratio == pytest.approx(1.0, rel=0.05)
        assert report.standardized_rel_diff < 0.05

    def test_single_field_rankings_identical(self):
        # One field and one year: standardization divides every count by
        # the same constant, so the two rankings must coincide exactly.
        spec = build_demo_spec(
            555, concentrated_mix=(1.0, 0.0), spread_mix=(1.0, 0.0), years=(2004, 2004)
        )
        report = distortion_demo(spec=spec)
        raw_order = [r[0] for r in report.raw_ranking.rows]
        std_order = [r[0] for r in report.standardized_ranking.rows]
        assert raw_order == std_order

    def test_out_dir_persists_files(self, tmp_path):
        report = distortion_demo(seed=31, out_dir=tmp_path)
        assert (tmp_path / "publications.jsonl").exists()
        assert (tmp_path / "synth.meta.json").exists()
        assert report.summary_lines()
