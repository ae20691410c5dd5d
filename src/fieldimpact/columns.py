"""Integer-coded record columns and the array primitives over them.

`record_columns` turns a corpus's records into numpy columns once and
keeps them on the corpus, which is immutable, so they cannot go stale.
Each code column indexes a tuple of the distinct values it stands for.
Benchmark tables and `aggregate` run over these columns; their per-value
work (benchmark lookups, labels, weights) runs once per distinct value,
never once per record.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .corpus import Attribution, Corpus, DocType


class RecordColumns(NamedTuple):
    """One int32 code per record into each distinct-value tuple, plus int64 citations."""

    year: np.ndarray
    journal: np.ndarray
    doc_type: np.ndarray
    fields: np.ndarray
    attributions: np.ndarray
    citations: np.ndarray
    years: tuple[int, ...]
    journals: tuple[str, ...]
    doc_types: tuple[DocType, ...]
    field_tuples: tuple[tuple[str, ...], ...]
    attribution_tuples: tuple[tuple[Attribution, ...], ...]


def encode(values, n: int = -1) -> tuple[np.ndarray, tuple]:
    """int32 codes in order of first appearance, and the distinct values they index."""
    index: dict = {}
    codes = np.fromiter((index.setdefault(v, len(index)) for v in values), np.int32, n)
    return codes, tuple(index)


def record_columns(corpus: Corpus) -> RecordColumns:
    """The corpus's records as columns, built on first use and kept on the corpus."""
    if corpus._columns is None:
        records = corpus.records
        n = len(records)
        year, years = encode((r.year for r in records), n)
        journal, journals = encode((r.journal_id for r in records), n)
        doc_type, doc_types = encode((r.doc_type for r in records), n)
        fields, field_tuples = encode((r.field_ids for r in records), n)
        # Ingest and reconcile share one tuple per distinct list, so identity
        # narrows the tuples cheaply; hashing them all would hash every weight.
        by_id, ids = encode((id(r.attributions) for r in records), n)
        tuple_of = {id(r.attributions): r.attributions for r in records}
        by_value, attribution_tuples = encode((tuple_of[i] for i in ids), len(ids))
        columns = RecordColumns(
            year, journal, doc_type, fields, by_value[by_id],
            np.fromiter((r.citations for r in records), np.int64, n),
            years, journals, doc_types, field_tuples, attribution_tuples,
        )
        object.__setattr__(corpus, "_columns", columns)
    return corpus._columns


def expand(codes: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Repeat each row once per item of the list its code names.

    `lengths[c]` is the length of list `c`; the lists lie end to end. Returns
    the source row of every output row and the flat index of its item, in
    row-major order, both int32.
    """
    lengths = np.asarray(lengths, np.int64)
    counts = lengths[codes]
    rows = np.repeat(np.arange(len(codes), dtype=np.int32), counts)
    # Flat index of each row's first item, less the row's first output position.
    shift = np.cumsum(counts)
    shift -= counts
    del counts
    np.subtract((np.cumsum(lengths) - lengths)[codes], shift, out=shift)
    items = np.arange(len(rows), dtype=np.int32)
    items += shift.astype(np.int32)[rows]
    return rows, items


def segments(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable order that groups equal codes, and the start of each group in it.

    Stability keeps each group's rows in their original order.
    """
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    new = np.ones(len(codes), bool)
    new[1:] = ranked[1:] != ranked[:-1]
    return order, np.flatnonzero(new)


def exact_dtype(bound: int):
    """int64 when every exact sum stays below `bound` < 2**63; Python ints otherwise."""
    return np.int64 if bound < 2**63 else object


def per_pair(a: np.ndarray, b: np.ndarray, n_b: int, value, dtype) -> np.ndarray:
    """`value(i, j)` once per distinct code pair (a[k], b[k]), spread back over the rows."""
    pairs = a.astype(np.int64)
    pairs *= n_b
    pairs += b
    order, starts = segments(pairs)
    values = np.array([value(*divmod(p, n_b)) for p in pairs[order[starts]].tolist()], dtype)
    del pairs
    out = np.empty(len(order), dtype)
    out[order] = np.repeat(values, np.diff(np.append(starts, len(order))))
    return out
