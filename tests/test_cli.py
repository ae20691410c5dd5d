import json
from pathlib import Path

import pytest

from fieldimpact import cli
from fieldimpact.cli import dispatch
from fieldimpact.synth import build_world_spec

from conftest import args_corpus

# Every name through which a command reads a corpus: `reconcile` ingests through
# `_ingest`, which also returns the digest it stores the raw snapshot under.
INGEST = ("parse_corpus", "_ingest")


class TestValidate:
    def test_valid_fixture(self, tiny_corpus_files, capsys):
        code = dispatch(["validate", *args_corpus(tiny_corpus_files)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "3 records, 0 diagnostics"

    def test_invalid_corpus_exits_one_with_diagnostics(self, tiny_corpus_files, capsys):
        bad = tiny_corpus_files["dir"] / "bad.jsonl"
        bad.write_text('{"id": "x", "year": 2003}\n', encoding="utf-8")
        files = dict(tiny_corpus_files, pubs=bad)
        code = dispatch(["validate", *args_corpus(files)])
        assert code == 1
        err = capsys.readouterr().err
        assert "validation failed" in err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert dispatch(["validate"]) == 2
        assert "--pubs" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tiny_corpus_files, capsys):
        assert dispatch(["validate", "--bogus", "x"]) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert dispatch(["frobnicate"]) == 2

    def test_nonexistent_input_is_usage_error(self, tiny_corpus_files, capsys):
        files = dict(tiny_corpus_files, pubs=tiny_corpus_files["dir"] / "nope.jsonl")
        assert dispatch(["validate", *args_corpus(files)]) == 2

    def test_version(self, capsys):
        assert dispatch(["--version"]) == 0


class TestReconcileCmd:
    def test_writes_outputs_and_match_rate(self, tiny_corpus_files, tmp_path, capsys):
        out = tmp_path / "out"
        code = dispatch(
            ["reconcile", *args_corpus(tiny_corpus_files),
             "--rules", str(tiny_corpus_files["rules"]), "--out-dir", str(out)]
        )
        assert code == 0
        assert (out / "publications.reconciled.jsonl").exists()
        assert (out / "unmatched.csv").exists()
        assert "match rate 100.0%" in capsys.readouterr().out

    def test_thread_flag_output_invariant(self, tiny_corpus_files, tmp_path):
        outs = []
        for threads, sub in (("1", "t1"), ("4", "t4")):
            out = tmp_path / sub
            dispatch(
                ["reconcile", *args_corpus(tiny_corpus_files),
                 "--rules", str(tiny_corpus_files["rules"]),
                 "--out-dir", str(out), "--threads", threads]
            )
            outs.append((out / "publications.reconciled.jsonl").read_bytes())
        assert outs[0] == outs[1]


class TestRuleFileReport:
    def test_every_rules_command_prints_the_conflicts(self, tmp_path, capsys):
        """The fixture plus one rule inside three others: the same three lines from each command."""
        src = Path(__file__).parent / "golden" / "fixture" / "input"
        rules = tmp_path / "rules.tsv"
        rules.write_text((src / "rules.tsv").read_text(encoding="utf-8") + "alpha\tB\n", encoding="utf-8")
        corpus = ["--pubs", str(src / "publications.jsonl"), "--journals", str(src / "journals.csv"),
                  "--orgs", str(src / "orgs.csv"), "--fields", str(src / "fields.csv"), "--rules", str(rules)]
        out = ["--out-dir", str(tmp_path / "out")]
        reported = []
        for argv in (["reconcile", *out], ["indicators", "--slice", "org", *out],
                     ["rank", "--min-weight", "0", "--out", "-"], ["trend", "--slice", "org", *out]):
            assert dispatch([argv[0], *corpus, *argv[1:]]) == 0, argv
            err = capsys.readouterr().err.splitlines()
            reported.append([line for line in err if line.startswith("rule conflict:")])
        assert len(reported[0]) == 3
        assert reported[1:] == [reported[0]] * 3

    def test_reconcile_prints_the_rule_file_warnings(self, tmp_path, capsys):
        """A rule repeated on the golden fixture: reconcile names its second line on stderr and exits 0."""
        src = Path(__file__).parent / "golden" / "fixture" / "input"
        rules = tmp_path / "rules.tsv"
        rules.write_text("univ alpha\tA\n" * 2, encoding="utf-8")
        corpus = ["--pubs", str(src / "publications.jsonl"), "--journals", str(src / "journals.csv"),
                  "--orgs", str(src / "orgs.csv"), "--fields", str(src / "fields.csv"), "--rules", str(rules)]
        assert dispatch(["reconcile", *corpus, "--out-dir", str(tmp_path / "out")]) == 0
        assert "rules line 2: duplicate rule 'univ alpha' -> A" in capsys.readouterr().err.splitlines()


class TestBenchmarkCmd:
    def test_writes_three_tables(self, tiny_corpus_files, tmp_path):
        out = tmp_path / "bm"
        code = dispatch(["benchmark", *args_corpus(tiny_corpus_files), "--out-dir", str(out)])
        assert code == 0
        assert (out / "xcr.csv").read_text().startswith("year,field_id,n,xcr")
        assert (out / "jxcr.csv").read_text().startswith("year,journal_id,n,jxcr")
        assert (out / "top_journals.csv").read_text().startswith("field_id,journal_id")


class TestIndicatorsCmd:
    def test_writes_csv_and_json_mirror(self, tiny_corpus_files, tmp_path):
        out = tmp_path / "ind"
        code = dispatch(
            ["indicators", *args_corpus(tiny_corpus_files),
             "--slice", "discipline,year", "--out-dir", str(out)]
        )
        assert code == 0
        csv_path = out / "indicators_discipline_year.csv"
        json_path = out / "indicators_discipline_year.json"
        assert csv_path.read_text().splitlines()[0] == (
            "discipline,year,weight,n_excluded,mean_cx,top_share_pct,mean_cjx"
        )
        assert json.loads(json_path.read_text())

    def test_org_slice_needs_rules_or_attributions(self, tiny_corpus_files, tmp_path, capsys):
        code = dispatch(
            ["indicators", *args_corpus(tiny_corpus_files), "--slice", "org",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "rules" in capsys.readouterr().err


class TestRankCmd:
    def rank_args(self, files, *extra):
        return [
            "rank", *args_corpus(files), "--rules", str(files["rules"]),
            "--metric", "mean_cx", "--min-weight", "0", "--limit", "10", *extra,
        ]

    def test_table_shape_on_stdout(self, tiny_corpus_files, capsys):
        code = dispatch(self.rank_args(tiny_corpus_files, "--out", "-"))
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "entity,weight,mean_cx,top_share_pct,mean_cjx"
        assert len(lines) == 3  # two organizations

    def test_min_weight_threshold_respected(self, tiny_corpus_files, capsys):
        code = dispatch(
            ["rank", *args_corpus(tiny_corpus_files), "--rules", str(tiny_corpus_files["rules"]),
             "--metric", "mean_cx", "--min-weight", "50", "--limit", "10", "--out", "-"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1  # header only: no entity reaches 50 publications

    def test_rerun_identical_output_files(self, tiny_corpus_files, tmp_path):
        paths = []
        for name in ("r1.csv", "r2.csv"):
            target = tmp_path / name
            dispatch(self.rank_args(tiny_corpus_files, "--out", str(target)))
            paths.append(target.read_bytes())
        assert paths[0] == paths[1]

    def test_default_filename_template(self, tiny_corpus_files, tmp_path):
        out = tmp_path / "ranked"
        code = dispatch(self.rank_args(tiny_corpus_files, "--out-dir", str(out)))
        assert code == 0
        produced = list(out.glob("org_mean_cx_*.csv"))
        assert len(produced) == 1

    def test_discipline_filter(self, tiny_corpus_files, capsys):
        code = dispatch(self.rank_args(tiny_corpus_files, "--discipline", "Biology", "--out", "-"))
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # Only p3 is in Biology (field F2), attributed half to A and half to B.
        assert len(lines) == 3
        assert all(line.split(",")[1] == "0.5" for line in lines[1:])

    @pytest.mark.parametrize("flag, value", [("--discipline", "Biology"), ("--field", "F2")])
    def test_restricted_ranking_names_its_file(self, tiny_corpus_files, tmp_path, flag, value):
        out = tmp_path / "r"
        assert dispatch(self.rank_args(tiny_corpus_files, flag, value, "--out-dir", str(out))) == 0
        (produced,) = out.glob(f"org_{value}_mean_cx_*.csv")
        # F2 is Biology's only field: p3, attributed half to A and half to B.
        rows = sorted(line.split(",")[:2] for line in produced.read_text().splitlines()[1:])
        assert rows == [["A", "0.5"], ["B", "0.5"]]

    def test_config_file_with_flag_override(self, tiny_corpus_files, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "pubs": str(tiny_corpus_files["pubs"]),
            "journals": str(tiny_corpus_files["journals"]),
            "orgs": str(tiny_corpus_files["orgs"]),
            "fields": str(tiny_corpus_files["fields"]),
            "rules": str(tiny_corpus_files["rules"]),
            "min_weight": 50,
            "limit": 10,
            "out": "-",
        }), encoding="utf-8")
        code = dispatch(["rank", "--config", str(config)])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1  # config threshold bites
        code = dispatch(["rank", "--config", str(config), "--min-weight", "0"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 3  # flag wins over config


class TestTrendCmd:
    def test_writes_trend_csv(self, tiny_corpus_files, tmp_path, capsys):
        out = tmp_path / "tr"
        code = dispatch(
            ["trend", *args_corpus(tiny_corpus_files), "--slice", "nation",
             "--metrics", "mean_cx,weight", "--out-dir", str(out)]
        )
        assert code == 0  # single year: growth undefined, rows skipped with a note
        err = capsys.readouterr().err
        assert "skipped" in err
        assert (out / "trend_nation.csv").exists()

    def test_empty_trend_table_keeps_its_slice_keys(self, tiny_corpus_files, tmp_path):
        out = tmp_path / "tr"
        assert dispatch(["trend", *args_corpus(tiny_corpus_files), "--slice", "discipline", "--out-dir", str(out)]) == 0
        assert (out / "trend_discipline.csv").read_text() == (
            "discipline,metric,first_year,last_year,avg_annual_increase_pct,unstable_base_flag\n"
        )


class TestSynthCmds:
    def test_synth_generates_from_spec_file(self, tmp_path, capsys):
        spec = build_world_spec(3, n_fields=2, annual_volume=20, n_orgs=3, years=(2001, 2001))
        spec_path = tmp_path / "synth.spec"
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        out = tmp_path / "world"
        code = dispatch(["synth", "--spec", str(spec_path), "--out-dir", str(out)])
        assert code == 0
        assert (out / "publications.jsonl").exists()
        assert (out / "synth.meta.json").exists()
        assert dispatch(["validate",
                         "--pubs", str(out / "publications.jsonl"),
                         "--journals", str(out / "journals.csv"),
                         "--orgs", str(out / "orgs.csv"),
                         "--fields", str(out / "fieldscheme.csv")]) == 0

    def test_demo_distortion_passes(self, capsys):
        code = dispatch(["demo-distortion"])
        out = capsys.readouterr().out
        assert code == 0
        assert "raw citations-per-publication ratio" in out

    def test_out_dir_env_var(self, tiny_corpus_files, tmp_path, monkeypatch):
        monkeypatch.setenv("FIELDIMPACT_OUT_DIR", str(tmp_path / "envout"))
        code = dispatch(["benchmark", *args_corpus(tiny_corpus_files)])
        assert code == 0
        assert (tmp_path / "envout" / "xcr.csv").exists()


class TestBadInputDiagnostics:
    """Bad options and bad files end as one stderr line and exit 1 or 2."""

    def write(self, files, name, text):
        path = files["dir"] / name
        path.write_text(text, encoding="utf-8")
        return path

    def run(self, argv, capsys):
        code = dispatch(argv)
        err = capsys.readouterr().err.splitlines()
        return code, err

    def test_config_threads_not_an_integer(self, tiny_corpus_files, capsys):
        config = self.write(tiny_corpus_files, "run.json", json.dumps({"threads": "abc"}))
        code, err = self.run(
            ["reconcile", *args_corpus(tiny_corpus_files), "--rules", str(tiny_corpus_files["rules"]),
             "--config", str(config), "--out-dir", str(tiny_corpus_files["dir"] / "out")],
            capsys,
        )
        assert code == 2
        assert err == ["usage error: invalid value for threads: 'abc'"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["indicators", "--slice", "nation"],
            ["indicators", "--slice", "org"],
            ["rank", "--out", "-"],
            ["trend", "--slice", "discipline"],
            ["trend", "--slice", "org"],
            ["reconcile"],
            ["validate"],
            ["benchmark"],
            ["synth", "--spec", "nonexistent.spec"],
            ["demo-distortion"],
        ],
    )
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_threads_fail_before_any_input(self, tiny_corpus_files, capsys, monkeypatch, argv, threads):
        def no_input(*args, **kwargs):
            raise AssertionError("input read")

        for name in (*INGEST, "compile_rules", "load_spec", "distortion_demo"):
            monkeypatch.setattr(cli, name, no_input)
        out = tiny_corpus_files["dir"] / "out"
        command = argv[0]
        inputs = [] if command in ("synth", "demo-distortion") else args_corpus(tiny_corpus_files)
        if command in ("reconcile", "indicators", "rank", "trend"):
            inputs += ["--rules", str(tiny_corpus_files["dir"] / "nonexistent.tsv")]
        code, err = self.run([command, *inputs, *argv[1:], "--threads", threads, "--out-dir", str(out)], capsys)
        assert code == 2
        assert err == ["usage error: --threads must be >= 1"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["indicators", "trend"])
    @pytest.mark.parametrize("rules", ["rules.tsv", "nonexistent.tsv"])
    def test_rules_on_non_org_slice_warn_and_change_nothing(self, tiny_corpus_files, capsys, command, rules):
        files = tiny_corpus_files
        plain, with_rules = files["dir"] / "plain", files["dir"] / "with_rules"
        assert dispatch([command, *args_corpus(files), "--slice", "nation", "--out-dir", str(plain)]) == 0
        plain_err = capsys.readouterr().err.splitlines()
        code, err = self.run(
            [command, *args_corpus(files), "--slice", "nation", "--rules", str(files["dir"] / rules),
             "--threads", "2", "--out-dir", str(with_rules)],
            capsys,
        )
        assert code == 0
        warnings = [line for line in err if line.startswith("warning:")]
        assert warnings == ["warning: --rules ignored: slice 'nation' has no organizational key"]
        assert [line for line in err if not line.startswith("warning:")] == [
            line.replace(str(plain), str(with_rules)) for line in plain_err
        ]
        assert sorted(p.name for p in with_rules.iterdir()) == sorted(p.name for p in plain.iterdir())
        for path in plain.iterdir():
            assert (with_rules / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("flag, value, kind", [("--discipline", "Phisics", "discipline"),
                                                   ("--field", "F9", "field")])
    def test_rank_within_value_not_in_field_scheme(self, tiny_corpus_files, tmp_path, capsys, flag, value, kind):
        out = tmp_path / "r"
        code, err = self.run(
            ["rank", *args_corpus(tiny_corpus_files), "--rules", str(tiny_corpus_files["rules"]),
             "--min-weight", "0", flag, value, "--out-dir", str(out)],
            capsys,
        )
        assert code == 2
        assert err == [f"usage error: {flag} {value!r} is not a {kind} of the field scheme"]
        assert not out.exists()

    def test_unknown_config_key_fails_before_any_input(self, tiny_corpus_files, capsys, monkeypatch):
        def no_input(*args, **kwargs):
            raise AssertionError("input read")

        for name in INGEST:
            monkeypatch.setattr(cli, name, no_input)
        path = self.write(tiny_corpus_files, "run.json", json.dumps({"min_wieght": 5, "zz": 1, "limit": 3}))
        code, err = self.run(
            ["rank", *args_corpus(tiny_corpus_files), "--config", str(path), "--out", "-"], capsys
        )
        assert code == 2
        assert err == ["usage error: unknown config key(s): 'min_wieght', 'zz'"]

    def test_config_keys_of_other_subcommands_accepted(self, tiny_corpus_files, capsys):
        # One config serves a whole chain: `rules` and `slice_spec` belong to
        # other subcommands of the same run, `spec` and `seed` to none of validate's.
        path = self.write(tiny_corpus_files, "run.json", json.dumps(
            {"rules": str(tiny_corpus_files["rules"]), "slice_spec": "org", "spec": "x", "seed": 3}
        ))
        code, err = self.run(["validate", *args_corpus(tiny_corpus_files), "--config", str(path)], capsys)
        assert code == 0 and err == []

    @pytest.mark.parametrize("via_config", [False, True])
    def test_fraction_with_top_csv_warns(self, tiny_corpus_files, tmp_path, capsys, via_config):
        files = tiny_corpus_files
        bench = tmp_path / "bench"
        assert dispatch(["benchmark", *args_corpus(files), "--out-dir", str(bench)]) == 0
        capsys.readouterr()
        base = ["rank", *args_corpus(files), "--rules", str(files["rules"]), "--min-weight", "0",
                "--top-csv", str(bench / "top_journals.csv"), "--out", "-"]
        plain_code = dispatch(base)
        plain = capsys.readouterr()
        if via_config:
            extra = ["--config", str(self.write(files, "run.json", json.dumps({"fraction": 0.9})))]
        else:
            extra = ["--fraction", "0.9"]
        code = dispatch(base + extra)
        warned = capsys.readouterr()
        assert code == plain_code == 0
        assert warned.out == plain.out
        err = warned.err.splitlines()
        assert err[0] == "warning: --fraction ignored: --top-csv given"
        assert err[1:] == plain.err.splitlines()

    def test_config_limit_not_an_integer(self, tiny_corpus_files, capsys):
        config = self.write(tiny_corpus_files, "run.json", json.dumps({"limit": "x"}))
        code, err = self.run(
            ["rank", *args_corpus(tiny_corpus_files), "--rules", str(tiny_corpus_files["rules"]),
             "--config", str(config), "--out", "-"],
            capsys,
        )
        assert code == 2
        assert err == ["usage error: invalid value for limit: 'x'"]

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--limit", "0"], "limit must be >= 1"),
            (["--metric", "bogus"], "unknown metric 'bogus', allowed: "),
        ],
    )
    def test_bad_rank_option_fails_before_ingest(self, tiny_corpus_files, capsys, monkeypatch, option, message):
        def no_ingest(*args, **kwargs):
            raise AssertionError("ingest ran")

        for name in INGEST:
            monkeypatch.setattr(cli, name, no_ingest)
        code, err = self.run(
            ["rank", *args_corpus(tiny_corpus_files), "--rules", str(tiny_corpus_files["rules"]),
             *option, "--out", "-"],
            capsys,
        )
        assert code == 2
        assert len(err) == 1 and err[0].startswith("usage error: " + message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reconcile"], "missing required option --rules"),
            (["indicators", "--xcr-csv", "{missing}"], "--xcr-csv does not exist: {missing}"),
            (["indicators", "--jxcr-csv", "{missing}"], "--jxcr-csv does not exist: {missing}"),
            (["indicators", "--top-csv", "{missing}"], "--top-csv does not exist: {missing}"),
            (["indicators", "--slice", "org", "--rules", "{missing}"], "--rules does not exist: {missing}"),
            (["trend", "--slice", "org", "--rules", "{missing}"], "--rules does not exist: {missing}"),
        ],
    )
    def test_option_fault_fails_before_ingest(self, tiny_corpus_files, capsys, monkeypatch, argv, message):
        def no_ingest(*args, **kwargs):
            raise AssertionError("ingest ran")

        for name in INGEST:
            monkeypatch.setattr(cli, name, no_ingest)
        missing = str(tiny_corpus_files["dir"] / "nonexistent")
        out = tiny_corpus_files["dir"] / "out"
        argv = [arg.format(missing=missing) for arg in argv]
        code, err = self.run([argv[0], *args_corpus(tiny_corpus_files), *argv[1:], "--out-dir", str(out)], capsys)
        assert (code, err) == (2, ["usage error: " + message.format(missing=missing)])
        assert not out.exists()

    # One bad string per option whose converter is more than "a string" or "a path".
    BAD_VALUES = {
        "threads": "x", "fraction": "x", "slice_spec": "bogus", "group_by": "nation", "min_weight": "nan",
        "limit": "1.5", "fmt": "xml", "metrics": "bogus", "unstable_floor": "inf", "seed": "x",
    }

    @pytest.mark.parametrize(
        "option", [o for o in cli._OPTIONS.values() if o.convert not in (cli._text, cli._path)], ids=lambda o: o.flag
    )
    def test_flag_and_config_give_the_same_usage_error(self, tiny_corpus_files, capsys, monkeypatch, option):
        def no_input(*args, **kwargs):
            raise AssertionError("input read")

        for name in INGEST:
            monkeypatch.setattr(cli, name, no_input)
        monkeypatch.setattr(cli, "distortion_demo", no_input)
        bad = self.BAD_VALUES[option.dest]
        command = next(name for name, c in cli._COMMANDS.items() if option.dest in c.required + c.optional)
        inputs = args_corpus(tiny_corpus_files) if "pubs" in cli._COMMANDS[command].required else []
        config = self.write(tiny_corpus_files, "run.json", json.dumps({option.dest: bad}))
        by_flag = self.run([command, *inputs, option.flag, bad], capsys)
        by_config = self.run([command, *inputs, "--config", str(config)], capsys)
        assert by_flag == by_config
        assert by_flag[0] == 2 and len(by_flag[1]) == 1 and by_flag[1][0].startswith("usage error: ")

    @pytest.mark.parametrize("metrics", ["bogus", ",", "mean_cx,bogus", ""])
    def test_bad_trend_metrics_fail_before_ingest(self, tiny_corpus_files, capsys, monkeypatch, metrics):
        def no_ingest(*args, **kwargs):
            raise AssertionError("ingest ran")

        for name in INGEST:
            monkeypatch.setattr(cli, name, no_ingest)
        out = tiny_corpus_files["dir"] / "out"
        code, err = self.run(
            ["trend", *args_corpus(tiny_corpus_files), "--metrics", metrics, "--out-dir", str(out)],
            capsys,
        )
        assert code == 2
        assert len(err) == 1 and err[0].startswith("usage error: --metrics: expected one or more of ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("rank", {"group_by": "nation"}),
            ("rank", {"fmt": "xml"}),
            ("trend", {"unstable_floor": "x"}),
            ("demo-distortion", {"fmt": "xml"}),
            # A bool is not a number, though float(True) is 1.0.
            ("rank", {"fraction": True}),
            ("rank", {"min_weight": True}),
            ("trend", {"unstable_floor": False}),
            # A flag's value is a string, so a string option's config value must be one.
            ("rank", {"out": 5}),
            ("indicators", {"slice_spec": ["org", "year"]}),
        ],
    )
    def test_config_choice_fails_before_any_input(self, tiny_corpus_files, capsys, monkeypatch, command, config):
        def no_input(*args, **kwargs):
            raise AssertionError("input read")

        for name in INGEST:
            monkeypatch.setattr(cli, name, no_input)
        monkeypatch.setattr(cli, "distortion_demo", no_input)
        path = self.write(tiny_corpus_files, "run.json", json.dumps(config))
        files = args_corpus(tiny_corpus_files, "--rules", str(tiny_corpus_files["rules"]))
        argv = [command, *(files if command != "demo-distortion" else []), "--config", str(path)]
        code, err = self.run(argv, capsys)
        (key, value), = config.items()
        assert code == 2
        assert err == [f"usage error: invalid value for {key}: {value!r}"]

    def test_citation_count_beyond_float_precision(self, tiny_corpus_files, capsys):
        pubs = tiny_corpus_files["pubs"]
        lines = pubs.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace('"citations": 2', '"citations": ' + str(10**400))
        pubs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, err = self.run(["benchmark", *args_corpus(tiny_corpus_files),
                              "--out-dir", str(tiny_corpus_files["dir"] / "out")], capsys)
        assert code == 1
        assert err == ["publications line 2 (record p2): citations must be below 2**53",
                       "validation failed: 1 diagnostic(s)"]

    def test_non_finite_indicator_is_refused(self, tiny_corpus_files, capsys):
        # A mean of 5e-324 is finite, but p2's 2 citations over it are not. No
        # count table gives a mean of 2 counts below 1/2, so it is refused on read.
        xcr = self.write(tiny_corpus_files, "xcr.csv", "year,field_id,n,xcr\n2003,F1,2,5e-324\n")
        out = tiny_corpus_files["dir"] / "out"
        code, err = self.run(
            ["indicators", *args_corpus(tiny_corpus_files), "--xcr-csv", str(xcr), "--out-dir", str(out)],
            capsys,
        )
        assert code == 1
        assert err == ["error: benchmark CSV line 2: xcr must be 0 or at least 1/n (n = 2), got '5e-324'"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("rank", {"limit": 1.9}),
            ("rank", {"limit": True}),
            ("reconcile", {"threads": 2.5}),
            ("demo-distortion", {"seed": 0.5}),
        ],
    )
    def test_config_integer_not_integral(self, tiny_corpus_files, capsys, command, config):
        path = self.write(tiny_corpus_files, "run.json", json.dumps(config))
        files = args_corpus(tiny_corpus_files, "--rules", str(tiny_corpus_files["rules"]))
        argv = [command, *(files if command != "demo-distortion" else []), "--config", str(path),
                "--out-dir", str(tiny_corpus_files["dir"] / "out")]
        code, err = self.run(argv, capsys)
        (key, value), = config.items()
        assert code == 2
        assert err == [f"usage error: invalid value for {key}: {value!r}"]

    def test_config_integral_float_accepted(self, tiny_corpus_files, capsys):
        config = self.write(tiny_corpus_files, "run.json", json.dumps({"limit": 1.0}))
        code = dispatch(
            ["rank", *args_corpus(tiny_corpus_files), "--rules", str(tiny_corpus_files["rules"]),
             "--min-weight", "0", "--config", str(config), "--out", "-"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2  # header and one row

    def test_config_null_takes_the_default(self, tiny_corpus_files, capsys):
        argv = ["rank", *args_corpus(tiny_corpus_files), "--rules", str(tiny_corpus_files["rules"]),
                "--min-weight", "0", "--out", "-"]
        assert dispatch(argv) == 0
        plain = capsys.readouterr().out
        config = self.write(tiny_corpus_files, "run.json", json.dumps({"limit": None, "fmt": None}))
        assert dispatch([*argv, "--config", str(config)]) == 0
        assert capsys.readouterr().out == plain

    def test_config_min_weight_not_finite(self, tiny_corpus_files, capsys):
        config = self.write(tiny_corpus_files, "run.json", json.dumps({"min_weight": "nan"}))
        code, err = self.run(
            ["rank", *args_corpus(tiny_corpus_files), "--rules", str(tiny_corpus_files["rules"]),
             "--config", str(config), "--out", "-"],
            capsys,
        )
        assert code == 2
        assert err == ["usage error: invalid value for min_weight: 'nan'"]

    @pytest.mark.parametrize(
        "argv, config, code, message",
        [
            (["validate"], "[1, 2]", 2, "error: config file must hold a JSON object"),
            (["rank", "--discipline", "Physics", "--field", "F1", "--out", "-"], None, 2,
             "usage error: --discipline and --field are mutually exclusive"),
            (["trend", "--slice", "year"], None, 2, "usage error: --slice must not include 'year' (it is implicit)"),
            (["trend", "--slice", "discipline,year"], None, 2,
             "usage error: --slice must not include 'year' (it is implicit)"),
            (["validate"], '{"census_date": "2009-06-30"}', 2, "usage error: unknown config key(s): 'census_date'"),
        ],
    )
    def test_option_check_message_and_exit_code(self, tiny_corpus_files, capsys, argv, config, code, message):
        extra = ["--config", str(self.write(tiny_corpus_files, "run.json", config))] if config else []
        out = tiny_corpus_files["dir"] / "out"
        found, err = self.run([argv[0], *args_corpus(tiny_corpus_files), *argv[1:], *extra, "--out-dir", str(out)],
                              capsys)
        assert (found, err) == (code, [message])
        assert not out.exists()

    def test_repeated_slice_key_is_usage_error(self, tiny_corpus_files, capsys):
        code, err = self.run(
            ["indicators", *args_corpus(tiny_corpus_files), "--rules", str(tiny_corpus_files["rules"]),
             "--slice", "org,org", "--out-dir", str(tiny_corpus_files["dir"] / "out")],
            capsys,
        )
        assert code == 2
        assert err == ["usage error: --slice: slice_spec keys must be unique"]

    def test_fraction_one_accepted(self, tiny_corpus_files, tmp_path):
        out = tmp_path / "bm"
        code = dispatch(
            ["benchmark", *args_corpus(tiny_corpus_files), "--fraction", "1", "--out-dir", str(out)]
        )
        assert code == 0
        # Every journal of a field is top at fraction 1.
        assert (out / "top_journals.csv").read_text().splitlines()[1:] == [
            "F1,J1", "F1,J2", "F2,J2"
        ]

    @pytest.mark.parametrize("fraction", ["0", "1.5", "nan"])
    def test_fraction_out_of_range_is_usage_error(self, tiny_corpus_files, tmp_path, capsys, fraction):
        code, err = self.run(
            ["benchmark", *args_corpus(tiny_corpus_files), "--fraction", fraction,
             "--out-dir", str(tmp_path / "bm")],
            capsys,
        )
        assert code == 2
        assert len(err) == 1 and err[0].startswith("usage error:")
        assert not (tmp_path / "bm").exists()  # checked before any input is read

    def test_one_column_top_csv_row(self, tiny_corpus_files, capsys):
        top = self.write(tiny_corpus_files, "top.csv", "field_id,journal_id\nF1,J1\nF1\n")
        code, err = self.run(
            ["indicators", *args_corpus(tiny_corpus_files), "--top-csv", str(top),
             "--out-dir", str(tiny_corpus_files["dir"] / "out")],
            capsys,
        )
        assert code == 1
        assert err == ["error: top-journal CSV line 3: expected 2 columns, got 1"]

    def test_nan_impact_factor(self, tiny_corpus_files, capsys):
        journals = self.write(
            tiny_corpus_files, "j_nan.csv",
            "journal_id,name,impact_factor,fields\nJ1,Journal One,nan,F1\nJ2,Journal Two,1.0,F1;F2\n",
        )
        files = dict(tiny_corpus_files, journals=journals)
        code, err = self.run(["validate", *args_corpus(files)], capsys)
        assert code == 1
        assert err == [
            "journals line 2: impact_factor must be finite and non-negative, got 'nan'",
            "validation failed: 1 diagnostic(s)",
        ]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("2003,F1,2,nan\n", "xcr must be finite and non-negative, got 'nan'"),
            ("2003,F1,2,1.0\n2003,F1,1,3.0\n", "duplicate cell (2003, F1)"),
        ],
    )
    def test_bad_xcr_csv_cell(self, tiny_corpus_files, capsys, body, message):
        xcr = self.write(tiny_corpus_files, "xcr.csv", "year,field_id,n,xcr\n" + body)
        code, err = self.run(
            ["indicators", *args_corpus(tiny_corpus_files), "--xcr-csv", str(xcr),
             "--out-dir", str(tiny_corpus_files["dir"] / "out")],
            capsys,
        )
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: benchmark CSV line")
        assert err[0].endswith(message)

    def test_empty_indicator_table_keeps_its_slice_keys(self, tiny_corpus_files, capsys):
        """An xcr table with no cell for the corpus's years excludes every record."""
        xcr = self.write(tiny_corpus_files, "xcr.csv", "year,field_id,n,xcr\n1999,F1,2,1.0\n")
        out = tiny_corpus_files["dir"] / "out"
        code, _ = self.run(
            ["indicators", *args_corpus(tiny_corpus_files), "--slice", "discipline,year", "--xcr-csv", str(xcr),
             "--out-dir", str(out)],
            capsys,
        )
        assert code == 0
        assert (out / "indicators_discipline_year.csv").read_text() == (
            "discipline,year,weight,n_excluded,mean_cx,top_share_pct,mean_cjx\n"
        )

    def test_xcr_csv_wrong_header(self, tiny_corpus_files, capsys):
        xcr = self.write(tiny_corpus_files, "xcr.csv", "year,journal_id,n,jxcr\n2003,J1,2,1.0\n")
        code, err = self.run(
            ["indicators", *args_corpus(tiny_corpus_files), "--xcr-csv", str(xcr),
             "--out-dir", str(tiny_corpus_files["dir"] / "out")],
            capsys,
        )
        assert code == 1
        assert err == [
            "error: benchmark CSV: expected header 'year,field_id,n,xcr', got 'year,journal_id,n,jxcr'"
        ]

    @pytest.mark.parametrize("option", ["pubs", "journals", "orgs", "fields", "rules"])
    def test_non_utf8_corpus_file(self, tiny_corpus_files, capsys, option):
        path = tiny_corpus_files[option]
        path.write_bytes(path.read_bytes() + b"\xff\n")
        code, err = self.run(
            ["indicators", *args_corpus(tiny_corpus_files), "--rules", str(tiny_corpus_files["rules"]),
             "--slice", "org", "--out-dir", str(tiny_corpus_files["dir"] / "out")],
            capsys,
        )
        assert code == 1
        assert err == [f"error: {path}: not UTF-8 text (invalid start byte)"]

    @pytest.mark.parametrize(
        "option, header",
        [("--xcr-csv", "year,field_id,n,xcr"), ("--jxcr-csv", "year,journal_id,n,jxcr"),
         ("--top-csv", "field_id,journal_id")],
    )
    def test_non_utf8_benchmark_file(self, tiny_corpus_files, capsys, option, header):
        path = tiny_corpus_files["dir"] / "bench.csv"
        path.write_bytes(header.encode() + b"\n\xff\n")
        code, err = self.run(
            ["indicators", *args_corpus(tiny_corpus_files), option, str(path),
             "--out-dir", str(tiny_corpus_files["dir"] / "out")],
            capsys,
        )
        assert code == 1
        assert err == [f"error: {path}: not UTF-8 text (invalid start byte)"]

    @pytest.mark.parametrize(
        "body, reason",
        [(b'{"limit": "\xff"}', "'utf-8' codec can't decode"), (b"[" * 200000, "maximum recursion depth")],
    )
    def test_undecodable_config_is_usage_error(self, tiny_corpus_files, capsys, body, reason):
        config = tiny_corpus_files["dir"] / "run.json"
        config.write_bytes(body)
        code, err = self.run(["validate", *args_corpus(tiny_corpus_files), "--config", str(config)], capsys)
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: cannot read config {config}: {reason}")

    def test_non_utf8_or_malformed_synth_spec(self, tiny_corpus_files, capsys):
        spec = tiny_corpus_files["dir"] / "spec.json"
        for body in (b"\xff", b"{bad", b"[" * 200000):
            spec.write_bytes(body)
            code, err = self.run(["synth", "--spec", str(spec), "--out-dir", str(spec.parent)], capsys)
            assert code == 1
            assert len(err) == 1 and err[0].startswith(f"error: invalid synth spec {spec}: ")

    def test_deeply_nested_publications_line(self, tiny_corpus_files, capsys):
        pubs = tiny_corpus_files["pubs"]
        pubs.write_text(pubs.read_text(encoding="utf-8") + "[" * 200000 + "\n", encoding="utf-8")
        code, err = self.run(["validate", *args_corpus(tiny_corpus_files)], capsys)
        assert code == 1
        assert err == [
            "publications line 4: malformed JSON (nested too deeply)",
            "validation failed: 1 diagnostic(s)",
        ]
