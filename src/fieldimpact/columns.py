"""Integer-coded record columns and the array primitives over them.

A corpus stores its records only as these columns. Ingest decodes each
publication line straight into them, and reconciliation replaces the
attribution column; `PublicationRecord`s are views built from them on
demand. Each code column indexes a tuple of the distinct values it
stands for, numbered in order of first appearance, and every distinct
value is used by some record. Benchmark tables, `aggregate`,
reconciliation and the writer run over these columns; their per-value
work (labels, weights, address matching, encoding) runs once per
distinct value, never once per record. Looked-up values live in small
arrays indexed by the codes themselves, such as `aggregate`'s
[year x journal] journal rates, so a record's value is one fancy index
away: `table[cols.year, cols.journal]`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .corpus import Attribution, DocType


class RecordColumns(NamedTuple):
    """The ids, one int32 code per record into each distinct-value tuple, and int64 citations."""

    ids: tuple[str, ...]
    year: np.ndarray
    journal: np.ndarray
    doc_type: np.ndarray
    fields: np.ndarray
    addresses: np.ndarray
    attributions: np.ndarray
    citations: np.ndarray
    years: tuple[int, ...]
    journals: tuple[str, ...]
    doc_types: tuple[DocType, ...]
    field_tuples: tuple[tuple[str, ...], ...]
    address_lists: tuple[tuple[str, ...], ...]
    attribution_tuples: tuple[tuple[Attribution, ...], ...]


# Each code column and the tuple of distinct values it indexes.
CODED = (("year", "years"), ("journal", "journals"), ("doc_type", "doc_types"), ("fields", "field_tuples"),
         ("addresses", "address_lists"), ("attributions", "attribution_tuples"))


def encode(values, n: int = -1) -> tuple[np.ndarray, tuple]:
    """int32 codes in order of first appearance, and the distinct values they index."""
    index: dict = {}
    codes = np.fromiter((index.setdefault(v, len(index)) for v in values), np.int32, n)
    return codes, tuple(index)


def renumber(codes: np.ndarray, values: tuple) -> tuple[np.ndarray, tuple]:
    """`codes` renumbered in order of first appearance, and the values they
    then index; values that no code names drop out."""
    used = list(dict.fromkeys(codes.tolist()))
    lookup = np.zeros(len(values), np.int32)
    lookup[used] = np.arange(len(used), dtype=np.int32)
    return lookup[codes], tuple(values[c] for c in used)


def select(cols: RecordColumns, rows: np.ndarray) -> RecordColumns:
    """The columns of `rows`, in that order, with every code renumbered."""
    picked = {"ids": tuple(map(cols.ids.__getitem__, rows.tolist())), "citations": cols.citations[rows]}
    for code, values in CODED:
        picked[code], picked[values] = renumber(getattr(cols, code)[rows], getattr(cols, values))
    return RecordColumns(**picked)


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

    Codes must be non-negative. The order is an LSD radix sort on 16-bit
    digits, one stable argsort of uint16 keys (a counting sort in numpy)
    per digit that the largest code needs. A stable order is unique, so it
    is `np.argsort(codes, kind="stable")`, and each group keeps its rows in
    their original order.
    """
    top = int(codes.max(initial=0))
    # The uint16 cast keeps a code's low 16 bits.
    order = np.argsort(codes.astype(np.uint16), kind="stable")
    shift = 16
    while top >> shift:
        order = order[np.argsort((codes[order] >> shift).astype(np.uint16), kind="stable")]
        shift += 16
    ranked = codes[order]
    new = np.ones(len(codes), bool)
    new[1:] = ranked[1:] != ranked[:-1]
    return order, np.flatnonzero(new)


def exact_dtype(bound: int):
    """int64 when every exact sum stays below `bound` < 2**63; Python ints otherwise."""
    return np.int64 if bound < 2**63 else object

