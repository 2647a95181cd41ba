"""Per-video tf-idf rows over classification-code fragments.

Every video gets a sparse row whose dimensions are the corpus-global
vocabulary of code fragments, in (level, prefix) order.  A fragment's
weight is ``tf * idf``:

- ``tf`` is its occurrence count over the video's (tag, code) pairs: one
  ``np.unique`` over the (video, fragment) cell of every occurrence;
- ``df`` is the number of videos with the fragment, one ``np.bincount``
  over those distinct cells, and ``n_docs`` counts every video, those
  without codes too;
- ``idf`` is the unsmoothed ``math.log(n_docs / df)``, taken in Python
  once per fragment: ``np.log`` may differ from it in the last bit, and
  the weights are pinned to it.

A fragment in every video gets idf 0 and is left out of the rows, but
keeps its dimension.  Deep fragments are rare across the corpus, so they
dominate the cosine similarity between two rows, which is the point of
fragmenting the hierarchy in the first place.
"""

from __future__ import annotations

import io
import math
from operator import attrgetter
from pathlib import Path

import numpy as np

from .authority import EnrichedVideo
from .ddc import DEFAULT_MODE, Fragment, fragment_code
from .errors import LodrecError


def fragment_rows(enriched: list[EnrichedVideo], mode: str = DEFAULT_MODE):
    """The vocabulary and tf-idf rows of ``enriched``, one row per video in
    order: ``(fragments, offsets, dims, weights)``, the fragments sorted
    by (level, prefix) and the rows as the CSR of ``DDC_VECTORS_FILES``.
    Each distinct code is fragmented once, and each distinct fragment
    numbered once, in order of first appearance."""
    numbers: dict[Fragment, int] = {}
    by_code: dict[str, list[int]] = {}  # by the code's digits
    cells: list[int] = []  # the fragment numbers of every (tag, code) pair
    ends = [0]  # where each video's cells end, after a leading 0
    for video in enriched:
        for resolved in video.resolved:
            for code in resolved.ddc_codes:
                frags = by_code.get(code.digits)
                if frags is None:
                    frags = by_code[code.digits] = [
                        numbers.setdefault(f, len(numbers))
                        for f in fragment_code(code, mode)]
                cells += frags
        ends.append(len(cells))
    # The dataclass order, (level, prefix), compared in C.
    fragments = sorted(numbers, key=attrgetter("level", "prefix"))
    n_docs, size = len(enriched), len(fragments)
    dim_of = np.empty(size, dtype=np.int64)
    dim_of[[numbers[f] for f in fragments]] = np.arange(size)
    video = np.repeat(np.arange(n_docs), np.diff(ends))
    cell_keys, tf = np.unique(
        video * size + dim_of[np.array(cells, dtype=np.int64)],
        return_counts=True)
    rows, dims = np.divmod(cell_keys, size)
    df = np.bincount(dims, minlength=size)
    idf = np.array([math.log(n_docs / d) for d in df.tolist()])
    keep = df[dims] < n_docs
    rows, dims = rows[keep], dims[keep]
    return (fragments, np.searchsorted(rows, np.arange(n_docs + 1)), dims,
            tf[keep] * idf[dims])


# ---------------------------------------------------------------------------
# Serialization

# The fragment rows on disk: the CSR arrays that ``CorpusIndex`` takes,
# one plain ``.npy`` file each, by name with its dtype.  Row ``r``'s
# dimensions, strictly ascending, are ``dims[offsets[r]:offsets[r + 1]]``,
# with their weights at the same places; row ``r`` is the video on row
# ``r`` of the doc vectors.
DDC_VECTORS_FILES = {"ddc_offsets.npy": np.int64, "ddc_dims.npy": np.int64,
                     "ddc_weights.npy": np.float64}


def save_vocabulary(fragments: list[Fragment]) -> bytes:
    """The vocabulary file: a ``level<TAB>prefix`` line per fragment."""
    return "".join(f"{f.level}\t{f.prefix}\n" for f in fragments).encode()


def save_ddc_vectors(offsets, dims, weights):
    """Yield each of the ``DDC_VECTORS_FILES`` as (name, chunks): one
    chunk, the bytes that ``np.save`` writes for its array."""
    for (name, dtype), array in zip(DDC_VECTORS_FILES.items(),
                                    (offsets, dims, weights)):
        out = io.BytesIO()
        np.lib.format.write_array(out, np.asarray(array, dtype=dtype),
                                  allow_pickle=False)
        yield name, [out.getvalue()]


def _parse_npy(path: Path, data: bytes) -> np.ndarray:
    """The 1-D array in ``data``, the bytes of a plain ``.npy`` file."""
    f = io.BytesIO(data)
    try:
        if not data.startswith(np.lib.format.MAGIC_PREFIX):
            raise ValueError("no .npy magic string")
        array = np.load(f, allow_pickle=False)
        if f.tell() != len(data):
            raise ValueError("bytes after the array")
    except (ValueError, EOFError) as e:
        raise LodrecError(f"{path}: not a plain .npy array ({e})") from None
    dtype = np.dtype(DDC_VECTORS_FILES[path.name])
    if array.dtype != dtype or array.ndim != 1:
        raise LodrecError(f"{path}: a {array.ndim}-D {array.dtype} array, "
                          f"not a 1-D {dtype} one")
    return array


def load_ddc_vectors(directory, data: dict[str, bytes], rows: int,
                     size: int):
    """Parse ``data``, the bytes of the ``DDC_VECTORS_FILES`` in
    ``directory`` by name, as the CSR ``(offsets, dims, weights)`` of
    ``rows`` rows over a vocabulary of ``size`` fragments."""
    # A refusal names the file, and the row (from 1) at fault.
    paths = [Path(directory) / name for name in DDC_VECTORS_FILES]
    offsets, dims, weights = (_parse_npy(p, data[p.name]) for p in paths)
    steps = np.diff(offsets)
    if not (len(offsets) == rows + 1 and offsets[0] == 0 and
            (steps >= 0).all() and offsets[-1] == len(dims) == len(weights)):
        raise LodrecError(f"{paths[0]}: not {rows + 1} offsets (one per "
                          f"video, and the end) rising from 0 to the "
                          f"{len(dims)} dimensions and {len(weights)} weights")
    # A row's first dimension must exceed -1, and every other one the one
    # before it.
    floor = np.concatenate([[-1], dims[:-1]])[:len(dims)]
    floor[offsets[:-1][steps > 0]] = -1
    for path, values, bad, what in (
            (paths[2], weights, ~np.isfinite(weights), "non-finite weight"),
            (paths[1], dims, dims <= floor, "dimension negative, or not "
             "above the one before it in its row:"),
            (paths[1], dims, dims >= size, f"dimension past the {size} "
             "fragments of the vocabulary:")):
        if bad.any():
            i = np.argmax(bad)
            row = np.searchsorted(offsets, i, side="right")
            raise LodrecError(f"{path}: row {row}: {what} {values[i]}")
    return offsets, dims, weights


__all__ = [
    "fragment_rows", "save_vocabulary", "save_ddc_vectors",
    "load_ddc_vectors", "DDC_VECTORS_FILES",
]
