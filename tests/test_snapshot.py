"""The column snapshots that `reconcile` writes: one next to its JSONL, and
one of the raw publications file in its output directory, named by the
sha256 of the bytes it parsed.

A command loads a snapshot only while its key matches the JSONL's bytes,
the format and the version, its seal matches its body, and the body holds
what `write_snapshot` writes; in every other case it parses the JSONL, and
its exit code, output and diagnostics are those of a run with no snapshot
at all. The registries, the sort and the reference
checks run on either path.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fieldimpact import corpus as corpus_module
from fieldimpact.cli import dispatch
from fieldimpact.columns import CODED, select
from fieldimpact.corpus import (_in_select_order, _input_snapshot_path, _load_snapshot, _read_columns,
                                _snapshot_columns, parse_corpus, snapshot_path, write_snapshot)

from conftest import assert_columns_equal

FIXTURE = Path(__file__).parent / "golden" / "fixture" / "input"


@pytest.fixture
def files(tmp_path):
    """The golden fixture's inputs, copied, its reconciled JSONL with a snapshot,
    and the raw JSONL's snapshot in the output directory."""
    inputs = tmp_path / "input"
    shutil.copytree(FIXTURE, inputs)
    out = tmp_path / "out"
    raw = inputs / "publications.jsonl"
    assert dispatch(["reconcile", *registries(inputs), "--pubs", str(raw),
                     "--rules", str(inputs / "rules.tsv"), "--out-dir", str(out)]) == 0
    pubs = out / "publications.reconciled.jsonl"
    assert _load_snapshot(pubs) is not None
    raw_snapshot = _input_snapshot_path(out, sha256(raw))
    assert _load_snapshot(raw, raw_snapshot) is not None
    return {"inputs": inputs, "pubs": pubs, "snapshot": snapshot_path(pubs), "tmp": tmp_path, "raw": raw,
            "raw_snapshot": raw_snapshot}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def registries(inputs: Path) -> list[str]:
    return ["--journals", str(inputs / "journals.csv"), "--orgs", str(inputs / "orgs.csv"),
            "--fields", str(inputs / "fields.csv")]


def outcome(files, capsys) -> tuple:
    """Exit code, stdout, stderr and output files of `indicators --slice org` on the reconciled JSONL."""
    results = files["tmp"] / "results"
    shutil.rmtree(results, ignore_errors=True)
    capsys.readouterr()
    code = dispatch(["indicators", *registries(files["inputs"]), "--pubs", str(files["pubs"]),
                     "--slice", "org", "--out-dir", str(results)])
    captured = capsys.readouterr()
    written = {p.name: p.read_bytes() for p in sorted(results.iterdir())} if results.exists() else {}
    return code, captured.out, captured.err.replace(str(results), "<results>"), written


def without_snapshot(files, capsys) -> tuple:
    saved = files["snapshot"].read_bytes()
    files["snapshot"].unlink()
    try:
        return outcome(files, capsys)
    finally:
        files["snapshot"].write_bytes(saved)


def assert_parses(files, capsys) -> tuple:
    """The snapshot in place is a miss, and the command gives what it gives with none."""
    assert _load_snapshot(files["pubs"]) is None
    found = outcome(files, capsys)
    assert found == without_snapshot(files, capsys)
    return found


def sealed(data: bytes) -> bytes:
    """`data` with its key line's seal rewritten to match the bytes after the
    line, so that only the checks on the body itself can reject them."""
    key, body = data.split(b"\n", 1)
    return key[:-64] + hashlib.sha256(body).hexdigest().encode() + b"\n" + body


def parts(data: bytes) -> tuple[bytes, list, list[bytes], bytes]:
    """A snapshot's key line, its counts, its JSON value lines and its arrays.
    The fixture is small, so each of its seven tuples takes one line."""
    key, counts, *lines, arrays = data.split(b"\n", 9)
    return key + b"\n", json.loads(counts), [line + b"\n" for line in lines], arrays


def assert_loads_parsed_columns(pubs: Path):
    assert_columns_equal(_load_snapshot(pubs)[0], _read_columns(pubs)[0])


def test_snapshot_hit_gives_the_parsed_outcome(files, capsys):
    assert sealed(files["snapshot"].read_bytes()) == files["snapshot"].read_bytes()
    assert_loads_parsed_columns(files["pubs"])
    found = outcome(files, capsys)
    assert found[0] == 0 and found == without_snapshot(files, capsys)


def test_values_over_many_lines_load(files, monkeypatch):
    monkeypatch.setattr(corpus_module, "_SNAPSHOT_LINE", 2)
    inputs = files["inputs"]
    corpus = parse_corpus(files["pubs"], inputs / "journals.csv", inputs / "orgs.csv", inputs / "fields.csv")
    write_snapshot(corpus, files["pubs"])
    assert files["snapshot"].read_bytes().count(b"\n[") > 7 * 2
    assert_loads_parsed_columns(files["pubs"])


@pytest.mark.parametrize("edit", ["citation", "invalid line"])
def test_changed_jsonl_byte_parses(files, capsys, edit):
    before = outcome(files, capsys)
    data = bytearray(files["pubs"].read_bytes())
    if edit == "citation":  # the first citation count's first digit, to another digit
        at = data.index(b'"citations": ') + len(b'"citations": ')
        data[at] = ord("7") if data[at] != ord("7") else ord("8")
    else:  # the second line's opening brace
        data[data.index(b"\n") + 1] = ord("[")
    files["pubs"].write_bytes(bytes(data))
    found = assert_parses(files, capsys)
    assert found != before
    if edit == "invalid line":
        assert found[0] == 1 and "publications line 2: " in found[2]


@pytest.mark.parametrize("keep", ["key line", "part of the header", "all but one byte", "all but the last citation"])
def test_truncated_snapshot_parses(files, capsys, keep):
    data = files["snapshot"].read_bytes()
    cut = {"key line": data.index(b"\n") + 1, "part of the header": data.index(b"\n") + 40,
           "all but one byte": len(data) - 1, "all but the last citation": len(data) - 8}[keep]
    files["snapshot"].write_bytes(sealed(data[:cut]))
    assert_parses(files, capsys)


@pytest.mark.parametrize("body", ["garbage", "bad JSON after the key", "wrong types after the key",
                                  "a count its lines do not hold"])
def test_garbage_snapshot_parses(files, capsys, body):
    key, counts, lines, arrays = parts(files["snapshot"].read_bytes())
    assert len(counts) == len(lines) == 7 and lines[1] == b"[2001, 2002, 2003]\n"
    edited = {
        "bad JSON after the key": key + b"[24, 3\n" + b"".join(lines) + arrays,
        "wrong types after the key": key + json.dumps(counts).encode() + b"\n" + lines[0]
        + b'["x", 2002, 2003]\n' + b"".join(lines[2:]) + arrays,
        "a count its lines do not hold": key + json.dumps([counts[0], counts[1] - 1, *counts[2:]]).encode()
        + b"\n" + b"".join(lines) + arrays,
    }
    files["snapshot"].write_bytes(b"\x00\xff not a snapshot \n" * 50 if body == "garbage" else sealed(edited[body]))
    assert_parses(files, capsys)


@pytest.mark.parametrize("code", [-1, "past the end"])
def test_out_of_range_code_parses(files, capsys, code):
    data = bytearray(files["snapshot"].read_bytes())
    n = parts(bytes(data))[1][0]
    loaded, _ = _load_snapshot(files["pubs"])
    index = [c for c, _ in CODED].index("attributions")
    value = len(loaded.attribution_tuples) if code == "past the end" else code
    at = len(data) - 32 * n + index * 4 * n + 4 * (n - 1)  # the last record's attribution code
    data[at:at + 4] = np.array([value], "<i4").tobytes()
    files["snapshot"].write_bytes(sealed(bytes(data)))
    assert_parses(files, capsys)


@pytest.mark.parametrize("change", ["one id fewer", "one row more"])
def test_id_count_that_differs_from_the_arrays_parses(files, capsys, change):
    data = files["snapshot"].read_bytes()
    if change == "one row more":  # zero codes and citations, all in range
        data += bytes(32)
    else:
        key, counts, lines, arrays = parts(data)
        ids = json.loads(lines[0])[:-1]
        data = (key + json.dumps([len(ids), *counts[1:]]).encode() + b"\n" + json.dumps(ids).encode() + b"\n"
                + b"".join(lines[1:]) + arrays)
    files["snapshot"].write_bytes(sealed(data))
    assert_parses(files, capsys)


@pytest.mark.parametrize("edit", ["repeated id", "empty id", "empty journal id", "a field list that is a string",
                                  "an address list that is a string"])
def test_value_that_ingest_refuses_parses(files, capsys, edit):
    """A snapshot whose key matches but whose values ingest would refuse is a
    miss: `parse_corpus` returns the JSONL's corpus."""
    key, counts, lines, arrays = parts(files["snapshot"].read_bytes())
    # The journals, field tuples or address lists line, or the ids line.
    at = {"empty journal id": 2, "a field list that is a string": 4, "an address list that is a string": 5}.get(edit, 0)
    values = json.loads(lines[at])
    if edit.endswith("that is a string"):
        values[0] = "".join(values[0])  # ["F1"] as "F1"
    else:
        values[1] = values[0] if edit == "repeated id" else ""
    lines[at] = json.dumps(values).encode() + b"\n"
    files["snapshot"].write_bytes(sealed(key + json.dumps(counts).encode() + b"\n" + b"".join(lines) + arrays))
    assert_parses(files, capsys)
    inputs = files["inputs"]
    registry_files = (inputs / "journals.csv", inputs / "orgs.csv", inputs / "fields.csv")
    loaded = parse_corpus(files["pubs"], *registry_files).columns
    files["snapshot"].unlink()
    assert_columns_equal(loaded, parse_corpus(files["pubs"], *registry_files).columns)


@pytest.mark.parametrize("edit, message", [
    ("a years line that is an object", "snapshot line holds no list"),
    ("an ids line that is a number", "snapshot line holds no list"),
    ("a citation count of 2**53", "snapshot citation count out of range"),
    ("a negative citation count", "snapshot citation count out of range"),
])
def test_rejected_body_names_its_fault_and_parses(files, capsys, edit, message):
    key, counts, lines, arrays = parts(files["snapshot"].read_bytes())
    if edit.startswith("a years line"):
        lines[1] = b'{"2001": 2002}\n'
    elif edit.startswith("an ids line"):
        lines[0] = b"7\n"
    else:  # the last record's citation count, the last array's last value
        arrays = arrays[:-8] + np.array([2**53 if "2**53" in edit else -1], "<i8").tobytes()
    data = key + json.dumps(counts).encode() + b"\n" + b"".join(lines) + arrays
    files["snapshot"].write_bytes(sealed(data))
    with open(files["snapshot"], "rb") as fh:
        fh.readline()
        with pytest.raises(ValueError) as exc:
            _snapshot_columns(fh)
    assert str(exc.value) == message
    assert assert_parses(files, capsys)[0] == 0


def test_flipped_body_bit_parses(files, capsys, monkeypatch):
    """The low bit of the last record's citation count, flipped: every value
    stays in range, so only the seal rejects the body, before decoding it."""
    before = outcome(files, capsys)
    data = bytearray(files["snapshot"].read_bytes())
    data[-8] ^= 1
    files["snapshot"].write_bytes(bytes(data))
    assert assert_parses(files, capsys) == before
    with monkeypatch.context() as patch:
        patch.setattr(corpus_module, "_snapshot_columns", lambda fh: pytest.fail("decoded an unsealed body"))
        assert _load_snapshot(files["pubs"]) is None
    files["snapshot"].write_bytes(sealed(bytes(data)))
    assert _load_snapshot(files["pubs"])[0].citations[-1] == _read_columns(files["pubs"])[0].citations[-1] ^ 1


def test_other_version_parses(files, capsys, monkeypatch):
    data = files["snapshot"].read_bytes()
    version = f" {corpus_module.__version__} ".encode()
    files["snapshot"].write_bytes(data.replace(version, b" 0.0.0+other ", 1))
    assert_parses(files, capsys)
    files["snapshot"].write_bytes(data)
    monkeypatch.setattr(corpus_module, "SNAPSHOT_FORMAT", corpus_module.SNAPSHOT_FORMAT + 1)
    assert_parses(files, capsys)


def test_dangling_reference_after_a_registry_edit(files, capsys):
    """The key covers the JSONL only; the reference checks run on the loaded columns."""
    orgs = files["inputs"] / "orgs.csv"
    lines = orgs.read_text(encoding="utf-8").splitlines(keepends=True)
    orgs.write_text("".join(line for line in lines if not line.startswith("B,")), encoding="utf-8")
    assert _load_snapshot(files["pubs"]) is not None
    found = outcome(files, capsys)
    assert found == without_snapshot(files, capsys)
    assert found[0] == 1 and "dangling organization reference(s): B" in found[2]


def test_reconcile_reads_and_overwrites_its_own_output(files, capsys):
    """Reconciling the reconciled JSONL in place, with one rule fewer, rewrites
    the JSONL and a snapshot that matches it, as a run from the raw file does."""
    rules = files["inputs"] / "rules.tsv"
    fewer = files["tmp"] / "fewer.tsv"
    fewer.write_text("".join(rules.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]), encoding="utf-8")
    out = files["pubs"].parent
    assert dispatch(["reconcile", *registries(files["inputs"]), "--pubs", str(files["pubs"]),
                     "--rules", str(fewer), "--out-dir", str(out)]) == 0
    fresh = files["tmp"] / "fresh"
    assert dispatch(["reconcile", *registries(files["inputs"]),
                     "--pubs", str(files["inputs"] / "publications.jsonl"),
                     "--rules", str(fewer), "--out-dir", str(fresh)]) == 0
    for name in ("publications.reconciled.jsonl", "publications.reconciled.jsonl.snapshot", "unmatched.csv"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
    assert (out / "publications.reconciled.jsonl").read_bytes() != (FIXTURE.parent / "expected" /
                                                                    "publications.reconciled.jsonl").read_bytes()
    assert _load_snapshot(files["pubs"]) is not None
    assert outcome(files, capsys) == without_snapshot(files, capsys)


# Each corpus command's options besides the corpus files and --out-dir.
RAW_COMMANDS = {
    "validate": [],
    "reconcile": ["--rules", "rules.tsv"],
    "benchmark": [],
    "indicators": ["--slice", "org", "--rules", "rules.tsv"],
    "rank": ["--rules", "rules.tsv", "--min-weight", "0", "--out", "-"],
    "trend": ["--slice", "discipline"],
}


def raw_argv(files, command: str) -> list[str]:
    """`command` on the raw JSONL, without --out-dir."""
    extra = [str(files["inputs"] / a) if a.endswith(".tsv") else a for a in RAW_COMMANDS[command]]
    return [command, *registries(files["inputs"]), "--pubs", str(files["raw"]), *extra]


def raw_outcome(files, capsys, command: str, cached: bytes | None = None) -> tuple:
    """Exit code, stdout, stderr and output files of `command` on the raw
    JSONL, into an output directory that holds `cached` under the raw
    JSONL's snapshot name, or nothing. The raw snapshot is left out of the
    files: only `reconcile` writes it."""
    results = files["tmp"] / "raw-results"
    shutil.rmtree(results, ignore_errors=True)
    results.mkdir()
    if cached is not None:
        _input_snapshot_path(results, sha256(files["raw"])).write_bytes(cached)
    capsys.readouterr()
    code = dispatch([*raw_argv(files, command), "--out-dir", str(results)])
    captured = capsys.readouterr()
    written = {p.name: p.read_bytes() for p in sorted(results.iterdir()) if not p.name.startswith("input-")}
    return code, captured.out, captured.err.replace(str(results), "<results>"), written


def sorted_columns(pubs: Path):
    """`_read_columns` plus the sort by id that ingest applies."""
    cols = _read_columns(pubs)[0]
    return select(cols, np.array(sorted(range(len(cols.ids)), key=cols.ids.__getitem__), np.intp))


@pytest.mark.parametrize("command", sorted(RAW_COMMANDS))
def test_raw_snapshot_hit_gives_the_parsed_outcome(files, capsys, monkeypatch, command):
    """Every corpus command loads the raw JSONL's columns from its output
    directory, without decoding the JSON, and gives what it gives with no
    snapshot there."""
    assert_columns_equal(_load_snapshot(files["raw"], files["raw_snapshot"])[0], sorted_columns(files["raw"]))
    parsed = raw_outcome(files, capsys, command)
    with monkeypatch.context() as patch:
        patch.setattr(corpus_module, "_read_columns", lambda *args: pytest.fail("decoded the JSON"))
        cached = raw_outcome(files, capsys, command, files["raw_snapshot"].read_bytes())
    assert cached[0] == 0 and cached == parsed


@pytest.mark.parametrize("command", sorted(RAW_COMMANDS))
@pytest.mark.parametrize("cached", [True, False], ids=["hit", "miss"])
def test_each_command_reads_its_input_once_to_hash_it(files, capsys, monkeypatch, command, cached):
    """One digest names and keys both lookups. Only `reconcile`'s JSON parse
    after a miss also hashes the bytes it decodes, which name what it stores."""
    hashed, original = [], corpus_module._digest
    monkeypatch.setattr(corpus_module, "_digest", lambda path: hashed.append(Path(path)) or original(path))
    decoded, reader = [], corpus_module._HashingReader
    monkeypatch.setattr(corpus_module, "_HashingReader", lambda path, sha: decoded.append(path) or reader(path, sha))
    assert raw_outcome(files, capsys, command, files["raw_snapshot"].read_bytes() if cached else None)[0] == 0
    assert hashed.count(files["raw"]) == 1
    assert decoded == ([files["raw"]] if command == "reconcile" and not cached else [])


def test_library_parse_without_a_directory_does_not_hash(files, monkeypatch):
    inputs = files["inputs"]
    monkeypatch.setattr(corpus_module, "_digest", lambda path: pytest.fail("hashed the JSONL"))
    corpus = parse_corpus(files["raw"], inputs / "journals.csv", inputs / "orgs.csv", inputs / "fields.csv")
    assert_columns_equal(corpus.columns, sorted_columns(files["raw"]))


def raw_miss(files, miss: str) -> bytes:
    """The raw snapshot's bytes with one fault; an edited JSONL is edited in place."""
    data = files["raw_snapshot"].read_bytes()
    if miss == "edited JSONL":  # the first citation count's first digit, to another digit
        text = bytearray(files["raw"].read_bytes())
        at = text.index(b'"citations": ') + len(b'"citations": ')
        text[at] = ord("7") if text[at] != ord("7") else ord("8")
        files["raw"].write_bytes(bytes(text))
        return data  # stored under the edited file's name, so only its key is wrong
    if miss == "truncated body":
        return sealed(data[:len(data) - 8])
    if miss == "flipped citation bit":
        return data[:-8] + bytes([data[-8] ^ 1]) + data[-7:]
    if miss == "other version":
        return data.replace(f" {corpus_module.__version__} ".encode(), b" 0.0.0+other ", 1)
    return b"\x00\xff not a snapshot \n" * 50


@pytest.mark.parametrize("command", sorted(RAW_COMMANDS))
@pytest.mark.parametrize("miss", ["edited JSONL", "truncated body", "flipped citation bit", "other version",
                                  "garbage"])
def test_raw_snapshot_miss_parses(files, capsys, command, miss):
    cached = raw_miss(files, miss)
    target = files["tmp"] / "probe.snapshot"
    target.write_bytes(cached)
    assert _load_snapshot(files["raw"], target) is None
    assert raw_outcome(files, capsys, command, cached) == raw_outcome(files, capsys, command)


def test_two_inputs_in_one_output_directory_both_hit(files, monkeypatch):
    """A second raw file reconciled into the same directory gets its own
    snapshot; the first one's still loads."""
    inputs, out = files["inputs"], files["pubs"].parent
    other = files["tmp"] / "other.jsonl"
    other.write_bytes(b"".join(files["raw"].read_bytes().splitlines(keepends=True)[1:]))
    assert dispatch(["reconcile", *registries(inputs), "--pubs", str(other), "--rules", str(inputs / "rules.tsv"),
                     "--out-dir", str(out)]) == 0
    snapshots = sorted(p.name for p in out.glob("input-*.snapshot"))
    assert snapshots == sorted(f"input-{sha256(p)}.snapshot" for p in (files["raw"], other))
    registry_files = (inputs / "journals.csv", inputs / "orgs.csv", inputs / "fields.csv")
    parsed = {p: parse_corpus(p, *registry_files).columns for p in (files["raw"], other)}
    monkeypatch.setattr(corpus_module, "_read_columns", lambda *args: pytest.fail("decoded the JSON"))
    for pubs, expected in parsed.items():
        assert_columns_equal(parse_corpus(pubs, *registry_files, snapshot_dir=out).columns, expected)
    assert len(parsed[other].ids) == len(parsed[files["raw"]].ids) - 1


def test_raw_file_changed_after_lookup_is_stored_under_the_parsed_bytes(files, monkeypatch):
    """A raw file that changes between the lookup's hash and the parse is
    stored under the sha256 of the bytes parsed, so its old bytes still miss."""
    inputs, out = files["inputs"], files["tmp"] / "changed"
    registry_files = (inputs / "journals.csv", inputs / "orgs.csv", inputs / "fields.csv")
    old = files["raw"].read_bytes()
    new = b"".join(old.splitlines(keepends=True)[1:])
    find = corpus_module._find_snapshot

    def find_then_edit(publications, snapshot_dir):
        found = find(publications, snapshot_dir)
        files["raw"].write_bytes(new)
        return found

    with monkeypatch.context() as patch:
        patch.setattr(corpus_module, "_find_snapshot", find_then_edit)
        assert dispatch(["reconcile", *registries(inputs), "--pubs", str(files["raw"]),
                         "--rules", str(inputs / "rules.tsv"), "--out-dir", str(out)]) == 0
    assert [p.name for p in out.glob("input-*.snapshot")] == [f"input-{sha256(files['raw'])}.snapshot"]
    expected = {}
    for data in (new, old):
        files["raw"].write_bytes(data)
        expected[data] = parse_corpus(files["raw"], *registry_files).columns
    decoded, read = [], corpus_module._read_columns
    monkeypatch.setattr(corpus_module, "_read_columns", lambda *args: decoded.append(args[0]) or read(*args))
    for data in (new, old):
        files["raw"].write_bytes(data)
        assert_columns_equal(parse_corpus(files["raw"], *registry_files, snapshot_dir=out).columns, expected[data])
    assert decoded == [files["raw"]]  # the old bytes only


@pytest.mark.parametrize("fault, diagnostic", [("an invalid line", "publications line 2: malformed JSON"),
                                               ("a dangling journal", "dangling journal reference(s): NO_SUCH_")])
def test_raw_jsonl_with_diagnostics_leaves_no_snapshot(files, capsys, fault, diagnostic):
    inputs, results = files["inputs"], files["tmp"] / "failed"
    lines = files["raw"].read_bytes().splitlines(keepends=True)
    if fault == "an invalid line":
        lines[1] = b"[" + lines[1][1:]
    else:
        lines[1] = lines[1].replace(b'"journal": "', b'"journal": "NO_SUCH_', 1)
    files["raw"].write_bytes(b"".join(lines))
    results.mkdir()
    capsys.readouterr()
    assert dispatch(["reconcile", *registries(inputs), "--pubs", str(files["raw"]),
                     "--rules", str(inputs / "rules.tsv"), "--out-dir", str(results)]) == 1
    assert diagnostic in capsys.readouterr().err
    assert not any(results.iterdir())


def test_lookup_does_not_create_the_output_directory(files, capsys, monkeypatch):
    missing = files["tmp"] / "missing" / "deeper"
    monkeypatch.setenv("FIELDIMPACT_OUT_DIR", str(missing))
    for command in ("validate", "rank"):
        assert dispatch(raw_argv(files, command)) == 0
    assert not missing.parent.exists()


def reordered(cols, order: str):
    """`cols` with their rows reversed, or one code column numbered in
    reverse, or one value that no row uses appended: still the same records."""
    if order == "ids out of order":
        return select(cols, np.arange(len(cols.ids) - 1, -1, -1, dtype=np.intp))
    if order == "codes out of first-appearance order":
        return cols._replace(journal=np.int32(len(cols.journals) - 1) - cols.journal, journals=cols.journals[::-1])
    return cols._replace(years=cols.years + (1999,))


@pytest.mark.parametrize("order", ["ids out of order", "codes out of first-appearance order", "an unused value"])
def test_snapshot_not_in_select_order_is_sorted(files, order):
    """A sealed snapshot that `write_snapshot` did not write from a parsed
    corpus loads the corpus that parsing the JSONL gives."""
    inputs = files["inputs"]
    registry_files = (inputs / "journals.csv", inputs / "orgs.csv", inputs / "fields.csv")
    corpus = parse_corpus(files["pubs"], *registry_files)
    assert _in_select_order(*_load_snapshot(files["pubs"]))
    write_snapshot(replace(corpus, columns=reordered(corpus.columns, order)), files["pubs"])
    assert not _in_select_order(*_load_snapshot(files["pubs"]))
    loaded = parse_corpus(files["pubs"], *registry_files).columns
    files["snapshot"].unlink()
    assert_columns_equal(loaded, parse_corpus(files["pubs"], *registry_files).columns)
