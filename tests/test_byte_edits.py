"""No traceback from a damaged input: one byte-level edit, six commands.

Each example copies the golden fixture's inputs, writes a config, and
reconciles the clean inputs once. It then makes one edit (a truncation, a
flipped bit, a deleted or doubled line, or inserted invalid UTF-8) to one
input, the config, the reconciled JSONL's column snapshot or the raw
publications file's (`input-<sha256>.snapshot`), and runs six commands
in-process through `dispatch`. Every command must return 0, 1 or 2
without raising, print a diagnostic when it fails, and give the same
bytes when an exit-0 run is repeated. With an edited snapshot, each
command that reads its JSONL must give exactly what it gives with no
snapshot: the reconciled JSONL's is deleted, and the raw file's, which a
command looks for in its output directory, is copied there before the
command runs.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldimpact.cli import dispatch
from fieldimpact.corpus import _input_snapshot_path, snapshot_path

FIXTURE = Path(__file__).parent / "golden" / "fixture" / "input"
INPUTS = ("publications.jsonl", "journals.csv", "orgs.csv", "fields.csv", "rules.tsv", "xcr_partial.csv")
CONFIG = {"fraction": 0.1, "min_weight": 0, "limit": 10, "metrics": "mean_cx,weight"}
SNAPSHOT = "snapshot"
RAW_SNAPSHOT = "raw snapshot"
EDITS = ("truncate", "flip", "delete line", "double line", "invalid utf-8")
INVALID_UTF8 = (b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80")


def edited(data: bytes, kind: str, at: int, bit: int) -> bytes:
    """`data` with one edit at byte `at` (or line `at`), taken modulo its length."""
    if kind in ("delete line", "double line"):
        lines = data.splitlines(keepends=True)
        if not lines:
            return data
        i = at % len(lines)
        return b"".join(lines[:i] + lines[i:i + 1] * (2 if kind == "double line" else 0) + lines[i + 1:])
    if not data:
        return data
    i = at % len(data)
    if kind == "truncate":
        return data[:i]
    if kind == "flip":
        return data[:i] + bytes([data[i] ^ 1 << bit]) + data[i + 1:]
    return data[:i] + INVALID_UTF8[bit % len(INVALID_UTF8)] + data[i:]


def run(argv: list[str], out: Path, seed: Path | None = None) -> tuple:
    """Exit code, stdout, stderr and the files in `out` after the command,
    which starts empty but for a copy of `seed`, if given."""
    shutil.rmtree(out, ignore_errors=True)
    if seed is not None:
        out.mkdir()
        shutil.copy(seed, out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = dispatch(argv)
    written = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return code, stdout.getvalue(), stderr.getvalue(), written


def registries(inputs: Path) -> list[str]:
    return ["--journals", str(inputs / "journals.csv"), "--orgs", str(inputs / "orgs.csv"),
            "--fields", str(inputs / "fields.csv"), "--config", str(inputs / "config.json")]


def reconcile(inputs: Path, out: Path) -> list[str]:
    return ["reconcile", "--pubs", str(inputs / "publications.jsonl"), *registries(inputs),
            "--rules", str(inputs / "rules.tsv"), "--out-dir", str(out)]


def commands(root: Path) -> list[tuple[list[str], str]]:
    """Each command's argv, and whose snapshot it reads: the reconciled JSONL's or the raw file's."""
    inputs, results = root / "input", root / "results"
    raw = ["--pubs", str(inputs / "publications.jsonl"), *registries(inputs)]
    reconciled = ["--pubs", str(root / "base" / "publications.reconciled.jsonl"), *registries(inputs)]
    return [
        (["validate", *reconciled], SNAPSHOT),
        (reconcile(inputs, results), RAW_SNAPSHOT),
        (["benchmark", *raw, "--out-dir", str(results)], RAW_SNAPSHOT),
        (["indicators", *reconciled, "--slice", "org", "--xcr-csv", str(inputs / "xcr_partial.csv"),
          "--out-dir", str(results)], SNAPSHOT),
        (["rank", *reconciled, "--out", "-", "--out-dir", str(results)], SNAPSHOT),
        (["trend", *reconciled, "--slice", "discipline", "--out-dir", str(results)], SNAPSHOT),
    ]


@settings(max_examples=60, deadline=None)
@given(target=st.sampled_from((*INPUTS, "config.json", SNAPSHOT, RAW_SNAPSHOT)), kind=st.sampled_from(EDITS),
       at=st.integers(-(2**16), 2**16), bit=st.integers(0, 7))
@example(target=SNAPSHOT, kind="flip", at=-8, bit=0)  # the last citation count's low bit
@example(target=RAW_SNAPSHOT, kind="flip", at=-8, bit=0)  # the same byte of the raw file's snapshot
def test_one_byte_edit_ends_as_a_diagnostic(target, kind, at, bit):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs = root / "input"
        shutil.copytree(FIXTURE, inputs)
        (inputs / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
        base = root / "base"
        assert run(reconcile(inputs, base), base)[0] == 0
        snapshot = snapshot_path(base / "publications.reconciled.jsonl")
        digest = hashlib.sha256((inputs / "publications.jsonl").read_bytes()).hexdigest()
        raw_snapshot = _input_snapshot_path(base, digest)
        path = {SNAPSHOT: snapshot, RAW_SNAPSHOT: raw_snapshot}.get(target, inputs / target)
        path.write_bytes(edited(path.read_bytes(), kind, at, bit))

        results = root / "results"
        for argv, reads in commands(root):
            found = run(argv, results)
            code, _, err, _ = found
            assert code in (0, 1, 2), argv
            assert code == 0 or err.strip(), argv
            if code == 0:
                assert run(argv, results) == found, argv
            if target == reads == SNAPSHOT:
                kept = snapshot.read_bytes()
                snapshot.unlink()
                try:
                    assert run(argv, results) == found, argv
                finally:
                    snapshot.write_bytes(kept)
            if target == reads == RAW_SNAPSHOT:  # `found` had no snapshot in `results`
                # A command that writes no snapshot, or loads the copy, leaves it as it is.
                code, out, err, written = found
                seeded = code, out, err, {raw_snapshot.name: raw_snapshot.read_bytes(), **written}
                assert run(argv, results, seed=raw_snapshot) == seeded, argv
