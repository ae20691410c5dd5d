"""The column snapshot that `reconcile` writes next to its JSONL.

A command loads the snapshot only while its key matches the JSONL's bytes,
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
from pathlib import Path

import numpy as np
import pytest

from fieldimpact import corpus as corpus_module
from fieldimpact.cli import dispatch
from fieldimpact.columns import CODED
from fieldimpact.corpus import (_load_snapshot, _read_columns, _snapshot_columns, parse_corpus, snapshot_path,
                                write_snapshot)

from conftest import assert_columns_equal

FIXTURE = Path(__file__).parent / "golden" / "fixture" / "input"


@pytest.fixture
def files(tmp_path):
    """The golden fixture's inputs, copied, and its reconciled JSONL with a snapshot."""
    inputs = tmp_path / "input"
    shutil.copytree(FIXTURE, inputs)
    out = tmp_path / "out"
    assert dispatch(["reconcile", *registries(inputs), "--pubs", str(inputs / "publications.jsonl"),
                     "--rules", str(inputs / "rules.tsv"), "--out-dir", str(out)]) == 0
    pubs = out / "publications.reconciled.jsonl"
    assert _load_snapshot(pubs) is not None
    return {"inputs": inputs, "pubs": pubs, "snapshot": snapshot_path(pubs), "tmp": tmp_path}


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


@pytest.mark.parametrize("edit", ["repeated id", "empty id", "empty journal id"])
def test_value_that_ingest_refuses_parses(files, capsys, edit):
    """A snapshot whose key matches but whose ids ingest would refuse is a miss:
    `parse_corpus` returns the JSONL's corpus."""
    key, counts, lines, arrays = parts(files["snapshot"].read_bytes())
    at = 2 if edit == "empty journal id" else 0  # the journals line, or the ids line
    values = json.loads(lines[at])
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
