"""Combined similarity scoring and top-k recommendation.

Two branches feed the combined score: the mean-word-vector cosine (text
branch, usable on its own as the baseline method) and the
classification-fragment tf-idf cosine.  When both are defined the
combined score is their weighted average; when exactly one is defined
the score falls back to that branch.  A missing branch says "no
evidence", not "dissimilar", so it is never coerced to 0.

Scoring is exhaustive over all candidate pairs.  At the corpus sizes
this engine targets (low thousands) exactness is cheap and keeps every
ranking auditable; there is no approximate nearest-neighbor index.

All scores come from one kernel with two entry points, chosen by how
many rows the caller scores.  ``_score_row`` scores one query row
against every video of a ``CorpusIndex``, for ``recommend`` and
``combined_similarity``.  ``_score_block`` scores the rows s .. e - 1
against the videos from s on, for the matrix.  Both read the arrays
that the index derives once, at construction, and holds in place of
the vectors it was given:

- the doc vectors as an L2-normalised N x D array, with a mask of the
  rows that are defined (tokens found, non-zero norm); a row that is
  not holds NaN, so its text cosine with any row comes out NaN;
- the fragment vectors L2-normalised, both as CSR rows and as postings
  (per dimension, the rows that carry it, ascending), with a mask of
  the videos that have codes and the list of those that have none;
- per CSR entry, its dimension's posting count ``row_df``, and the
  offset ``take_ptr`` of those postings in a gather of all entries' and
  their start in the postings less it, ``take_shift``: ``_gather`` takes
  a row's or a block's postings with one ``np.repeat`` and one ``arange``;
- the rank of each id in sorted order, for tie-breaks.

Each cell depends only on its two vectors.  The text cosine is
``np.vecdot(U, U[q])`` over the unit rows ``U`` (``U[s:]`` in a block):
one BLAS ``ddot`` per cell, on two rows of length D at the same
addresses in both entry points, so its summation order is fixed by D
alone, whatever the number of rows or their order.  Never a BLAS
mat-vec or mat-mat (``@``, ``np.dot`` on a matrix, ``einsum`` with
``optimize``): those pick their summation order by the batch shape, so
a row's bits would change with the size of the index.  OpenBLAS
splits a ``ddot`` longer than 10,000 across its threads, which would
make the bits depend on the process's BLAS thread count, so an index
refuses doc vectors longer than ``MAX_TEXT_DIM``.
The fragment cosine adds the products of the shared dimensions in
ascending dimension order: one ``bincount`` over the query's postings,
or over all of a block's, keyed by cell.  The combined score and its
fallback are one elementwise step, ``_combine``, shared by both entry
points.  So a ``matrix_blocks`` cell equals the ``recommend`` score of
its pair bit for bit, the matrix is exactly symmetric, and
``combined_similarity``, one cell of a kernel row, agrees with both.
NaN marks an undefined score inside the kernel only; scores
leave it as ``None``.

``recommend`` turns the scores into one order key (minus the score, or
+inf where undefined), finds the k-th key with ``np.partition``, and
sorts only the rows at or below it, every row tied with it included, by
(key, id).  The result is the full sort's top k.

An index is not changed once built, so ``recommend``'s answer is a
function of the index and the call, and the index keeps a memo of them:
for each (row, method), the ranked list of the largest k asked so far.
A call whose k is within the stored list returns its first k, and runs
no kernel and no numpy call; any other call selects as above and
replaces the stored list.  The order key is total, so the first k of a
longer top list are the top k, with the same bits.

Until the memo has answered a call, a miss scores only its own row, so
a caller that asks one query per process pays what it would without
the memo.  Once it has, the index serves a caller that repeats queries,
and a miss also fills, for the same method and k, every row of the
``MATRIX_BLOCK_ROWS`` block around its row whose stored list is
shorter.  A caller that goes on to ask most videos then meets about
N / 64 misses of up to 64 kernel rows each, not N misses of one row:
the same kernel work, but slow calls stay rare, so a stream's tail
latency no longer depends on how many distinct videos it has asked so
far.  A caller that asks few of them pays for rows it never asks.  The
memo holds at most 2 x N lists, none longer than the largest k asked of
the index, and is freed with the index.  ``combined_similarity`` and the
matrix always run the kernel.  Each answer gets a list of its own, of
immutable pairs, so a caller that changes its answer changes no other.
Two threads that miss on one row both score it and store lists that
agree on their common prefix, so the memo needs no lock.

The matrix is produced as blocks of ``MATRIX_BLOCK_ROWS`` rows
(``matrix_blocks``), each scored in one ``_score_block`` pass from its
diagonal on: the block of rows s .. e - 1 holds their cells at columns
s .. N - 1, about half the cells of full rows.  ``write_matrix_tsv``
formats and writes each block as it comes.  A float ``repr`` (about
0.7 us on a 2-CPU Xeon) costs more than the kernel's share of a cell,
and the matrix is exactly symmetric, bit for bit, so the writer calls
``repr`` once per unordered pair.  Row r formats its cells from column
r on.  Its cells left of column r are the cells that the rows above it
formatted at column r: the writer keeps them as one tab-joined string
per block of rows, and drops them once row r is written.  An undefined
cell formats as ``nan``; in the block rows that hold one, the writer
empties it before it keeps the text.  Between blocks the writer holds
the text of at most ceil(N/2) * floor(N/2) cells, plus, while it
formats a block, that block's: a tracemalloc peak of 33.7 MiB at N = 2,000 (README
states the bound), against 7.5 MiB when each row formatted all its
cells.  It never holds the whole matrix or TSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateIdError, UnknownIdError

WITH_LOD = "with_lod"
WITHOUT_LOD = "without_lod"
METHODS = (WITH_LOD, WITHOUT_LOD)

DEFAULT_WEIGHTS = (0.5, 0.5)

MATRIX_BLOCK_ROWS = 64  # kernel rows per block of the streamed matrix

# The longest doc vector an index takes: OpenBLAS splits a longer
# ``ddot`` across its threads (seen at 10,001 and not at 10,000).
MAX_TEXT_DIM = 10_000


@dataclass
class SimilarityScore:
    pair: tuple[str, str]
    s_text: float | None
    s_ddc: float | None
    s_lod: float | None
    fallback_applied: bool

    def for_method(self, method: str) -> float | None:
        if method == WITH_LOD:
            return self.s_lod
        if method == WITHOUT_LOD:
            return self.s_text
        raise ValueError(f"unknown method: {method!r}")


@dataclass
class Recommendation:
    query_id: str
    ranked: list[tuple[str, float | None]]
    method: str
    k: int

    def to_json_obj(self) -> dict:
        return {
            "query": self.query_id,
            "method": self.method,
            "k": self.k,
            "results": [{"id": vid, "score": score}
                        for vid, score in self.ranked],
        }


class CorpusIndex:
    """Immutable scoring state: the kernel's arrays, in corpus order.

    Built from ``ids``, the raw doc vectors ``text`` (N x D) with each
    row's ``tokens_used``, and the fragment vectors as CSR: row ``r``'s
    dimensions ``code_dims[code_ptr[r]:code_ptr[r + 1]]``, strictly
    ascending, with their ``code_weights``.  Each vector is held once,
    L2-normalised (see the module docstring); an index is not to be
    changed afterwards.  ``recommend`` memoizes its answers on it (see
    the module docstring).
    """

    def __init__(self, ids: list[str], text: np.ndarray,
                 tokens_used: np.ndarray, code_ptr: np.ndarray,
                 code_dims: np.ndarray, code_weights: np.ndarray,
                 weights: tuple[float, float] = DEFAULT_WEIGHTS) -> None:
        self.weights = check_weights(weights)
        n = len(ids)
        if not (len(text) == len(tokens_used) == len(code_ptr) - 1 == n
                and code_ptr[-1] == len(code_dims) == len(code_weights)):
            raise ValueError("index arrays disagree on the number of rows")
        self.ids = ids
        self._position = {vid: r for r, vid in enumerate(ids)}
        if len(self._position) != n:
            raise DuplicateIdError("index ids are not unique")
        self.id_rank = np.empty(n, dtype=np.intp)  # rank in sorted order
        self.id_rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)

        check_text_dim(text.shape[1])
        # The unit rows start on a 64-byte boundary.  On a 2-CPU Xeon
        # (AVX-512) host, rows 16 bytes off it scored about 8% slower at
        # D = 300, so the heap layout that earlier work left would set the
        # query speed.
        buf = np.empty(text.size + 8)
        skip = -buf.ctypes.data % 64 // 8
        unit_text = buf[skip:skip + text.size].reshape(text.shape)
        unit_text[...] = text
        if not np.isfinite(unit_text).all():
            raise ValueError("non-finite value in a document vector")
        norms = np.sqrt((unit_text * unit_text).sum(axis=1))
        has_text = (np.asarray(tokens_used) > 0) & (norms > 0)
        # A row without text is NaN, so each ddot with it is NaN.
        unit_text[~has_text] = np.nan
        np.divide(unit_text, norms[:, None], out=unit_text,
                  where=has_text[:, None])
        self.unit_text, self.has_text = unit_text, has_text

        row = np.repeat(np.arange(n), np.diff(code_ptr))
        dim = np.asarray(code_dims, dtype=np.intp)
        weight = np.asarray(code_weights, dtype=np.float64)
        if not np.isfinite(weight).all():
            raise ValueError("non-finite value in a fragment vector")
        if (dim < 0).any() or ((np.diff(dim) <= 0)
                                & (np.diff(row) == 0)).any():
            raise ValueError("a row's fragment dimensions must be "
                             "non-negative and strictly ascending")
        # bincount adds each row's squares in ascending dimension order.
        norms = np.sqrt(np.bincount(row, weights=weight * weight,
                                    minlength=n))
        self.has_codes = norms > 0
        self.no_codes = np.flatnonzero(~self.has_codes)
        keep = self.has_codes[row]
        row, dim = row[keep], dim[keep]
        weight = weight[keep] / norms[row]
        # The unit fragment vectors as CSR rows and as postings (per
        # dimension, the rows that carry it, ascending).
        self.row_ptr, self.row_dim, self.row_weight = (
            _offsets(row, n), dim, weight)
        order = np.lexsort((row, dim))
        self.dim_ptr = _offsets(dim, int(dim.max()) + 1 if len(dim) else 0)
        self.post_row, self.post_weight = row[order], weight[order]
        # Per CSR entry, where its dimension's postings go in a gather
        # (see the module docstring and ``_gather``).
        self.row_df = np.diff(self.dim_ptr)[dim]
        self.take_ptr = np.concatenate(([0], np.cumsum(self.row_df)))
        self.take_shift = self.dim_ptr[dim] - self.take_ptr[:-1]

        self._top: dict[tuple[int, str], list[tuple[str, float | None]]] = {}
        self._repeated = False  # the memo has answered a call

    def __len__(self) -> int:
        return len(self.ids)

    def position(self, video_id: str) -> int:
        try:
            return self._position[video_id]
        except KeyError:
            raise UnknownIdError(f"unknown video id: {video_id!r}") from None


def _offsets(keys: np.ndarray, n: int) -> np.ndarray:
    """Start offsets of each key's run in ``keys`` sorted ascending."""
    return np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n))))


def check_weights(weights: tuple[float, float]) -> tuple[float, float]:
    """``weights`` if both are finite and non-negative with a positive
    sum; ValueError otherwise."""
    w_text, w_ddc = weights
    if not (math.isfinite(w_text) and math.isfinite(w_ddc)) \
            or w_text < 0 or w_ddc < 0 or w_text + w_ddc <= 0:
        raise ValueError(
            "weights must be finite and non-negative with positive sum")
    return w_text, w_ddc


def check_text_dim(dim: int) -> None:
    """ValueError if doc vectors of dimension ``dim`` are too long for
    their text scores to keep their bits."""
    if dim > MAX_TEXT_DIM:
        raise ValueError(
            f"word vectors have dimension {dim}, above the limit of "
            f"{MAX_TEXT_DIM}: OpenBLAS splits a longer dot product across "
            "its threads, so the text scores would depend on the BLAS "
            "thread count")


def _score_row(index: CorpusIndex, q: int, method: str = WITH_LOD):
    """Scores of row ``q`` against every row: ``s_text``, ``s_ddc`` and
    ``s_lod`` as arrays, NaN where undefined; for ``without_lod`` only
    ``s_text``, the other two None.

    Fallback rule: if exactly one branch is undefined the combined score
    equals the defined branch; if both are undefined it is undefined.
    """
    n = len(index.has_text)
    if index.has_text[q]:
        s_text = np.vecdot(index.unit_text, index.unit_text[q])
    else:
        s_text = np.full(n, np.nan)
    if method == WITHOUT_LOD:
        return s_text, None, None

    if index.has_codes[q]:
        # bincount adds the terms to each row dimension by dimension.
        rows, terms = _gather(index, index.row_ptr[q], index.row_ptr[q + 1])
        s_ddc = np.bincount(rows, weights=terms, minlength=n)
        s_ddc[index.no_codes] = np.nan
    else:
        s_ddc = np.full(n, np.nan)

    return s_text, s_ddc, _combine(index.weights, s_text, s_ddc)


def _gather(index: CorpusIndex, lo: int, hi: int) -> tuple:
    """The code-route terms of CSR entries ``lo`` .. ``hi - 1``: for each
    posting of each entry's dimension, entry by entry, its row and the
    product of the two weights."""
    take = (np.repeat(index.take_shift[lo:hi], index.row_df[lo:hi])
            + np.arange(index.take_ptr[lo], index.take_ptr[hi]))
    return index.post_row[take], index.post_weight[take] * np.repeat(
        index.row_weight[lo:hi], index.row_df[lo:hi])


def _combine(weights: tuple[float, float], s_text: np.ndarray,
             s_ddc: np.ndarray) -> np.ndarray:
    """The combined scores of two same-shaped route arrays, cell by cell:
    the weighted mean where both are defined, else the defined one."""
    w_text, w_ddc = weights
    s_lod = (w_text * s_text + w_ddc * s_ddc) / (w_text + w_ddc)
    np.copyto(s_lod, s_text, where=np.isnan(s_ddc))
    np.copyto(s_lod, s_ddc, where=np.isnan(s_text))
    return s_lod


def _method_scores(index: CorpusIndex, q: int, method: str) -> np.ndarray:
    s_text, _, s_lod = _score_row(index, q, method)
    return s_lod if method == WITH_LOD else s_text


def _value(x) -> float | None:
    return None if math.isnan(x) else float(x)


def combined_similarity(index: CorpusIndex, i: str, j: str
                        ) -> SimilarityScore:
    """Score one pair: both branches plus their combination.

    This is the kernel's row for ``i`` read at column ``j``, so it gives
    the very bits that ``recommend`` and ``matrix_blocks`` do.
    """
    s_text, s_ddc, s_lod = _score_row(index, index.position(i))
    c = index.position(j)
    return SimilarityScore(
        pair=(i, j), s_text=_value(s_text[c]), s_ddc=_value(s_ddc[c]),
        s_lod=_value(s_lod[c]),
        fallback_applied=math.isnan(s_text[c]) != math.isnan(s_ddc[c]))


def recommend(query_id: str, index: CorpusIndex, k: int,
              method: str = WITH_LOD) -> Recommendation:
    """Top-k videos for a query under the deterministic order key.

    Candidates are every other video; undefined scores rank below all
    defined ones; ties break by ascending id.  A repeated query is
    answered from the index's memo (see the module docstring).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    q = index.position(query_id)
    n_candidates = len(index.ids) - 1
    if not 1 <= k <= n_candidates:
        raise ValueError(f"k={k} out of range 1..{n_candidates}")

    top = index._top.get((q, method))
    if top is not None and len(top) >= k:
        index._repeated = True
    else:
        rows = [q]
        if index._repeated:
            start = q - q % MATRIX_BLOCK_ROWS
            rows += [r for r in range(start, min(start + MATRIX_BLOCK_ROWS,
                                                 len(index.ids)))
                     if r != q and len(index._top.get((r, method), ())) < k]
        for r in rows:
            index._top[r, method] = _top_k(index, r, k, method)
        top = index._top[q, method]
    return Recommendation(query_id=query_id, ranked=top[:k],
                          method=method, k=k)


def _top_k(index: CorpusIndex, q: int, k: int, method: str
           ) -> list[tuple[str, float | None]]:
    """Row ``q``'s top ``k`` as (id, score) pairs, best first."""
    scores = _method_scores(index, q, method)
    key = -scores
    key[np.isnan(scores)] = np.inf
    key[q] = np.nan  # partition puts NaN last, and NaN <= kth is False
    kth = np.partition(key, k - 1)[k - 1]
    top = np.flatnonzero(key <= kth)
    top = top[np.lexsort((index.id_rank[top], key[top]))][:k]
    return [(index.ids[c], None if math.isnan(s) else s)
            for c, s in zip(top.tolist(), scores[top].tolist())]


def _score_block(index: CorpusIndex, start: int, stop: int, method: str
                 ) -> np.ndarray:
    """The ``method`` scores of rows ``start`` .. ``stop - 1`` at columns
    ``start`` .. N - 1, as a (stop - start) x (N - start) array, NaN
    where undefined.  Each cell takes the operations that ``_score_row``
    gives it, so it has the same bits."""
    unit, has_text = index.unit_text, index.has_text
    s_text = np.empty((stop - start, len(has_text) - start))
    for i, r in enumerate(range(start, stop)):
        if has_text[r]:
            np.vecdot(unit[start:], unit[r], out=s_text[i])
        else:
            s_text[i] = np.nan
    if method == WITHOUT_LOD:
        return s_text

    # The terms of the block's rows, row by row and dimension by
    # dimension, keyed by their cell, less those left of the block's
    # first column; bincount adds them to each cell in ascending
    # dimension order.
    rows, terms = _gather(index, index.row_ptr[start], index.row_ptr[stop])
    column = rows - start
    q_rows = np.repeat(np.arange(stop - start), np.diff(
        index.take_ptr[index.row_ptr[start:stop + 1]]))
    cell = q_rows * s_text.shape[1] + column
    kept = column >= 0
    # Without keys bincount returns int64 zeros, which NaN cannot mark.
    s_ddc = np.bincount(cell[kept], weights=terms[kept],
                        minlength=s_text.size
                        ).astype(np.float64, copy=False).reshape(s_text.shape)
    s_ddc[~index.has_codes[start:stop]] = np.nan
    s_ddc[:, ~index.has_codes[start:]] = np.nan
    return _combine(index.weights, s_text, s_ddc)


def matrix_blocks(index: CorpusIndex, method: str = WITH_LOD):
    """The pairwise score matrix as consecutive blocks of at most
    ``MATRIX_BLOCK_ROWS`` rows, top to bottom, each from its diagonal
    on: the block of rows s .. e - 1 holds their cells at columns
    s .. N - 1.  NaN marks undefined cells.

    Each cell has the bits of the ``recommend`` score of its pair, and
    the matrix is exactly symmetric, so the cells left of a block are
    those that the blocks above it hold in its columns.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    n, rows = len(index.ids), MATRIX_BLOCK_ROWS
    return (_score_block(index, start, min(start + rows, n), method)
            for start in range(0, n, rows))


def write_matrix_tsv(index: CorpusIndex, out, method: str = WITH_LOD) -> None:
    """Write the matrix to ``out`` as TSV, one block at a time: an id
    header row and column, each cell its float ``repr``, undefined cells
    empty.  Each unordered pair is formatted once (see the module
    docstring).  An unknown ``method`` is refused before anything is
    written."""
    ids = index.ids
    blocks = matrix_blocks(index, method)
    out.write("\t" + "\t".join(ids) + "\n")
    # left[r]: row r's text at the columns left of column r, one
    # tab-joined string per block that holds them; dropped once row r is
    # written.
    left: list[list[str] | None] = [[] for _ in ids]
    start = 0
    for block in blocks:
        width = len(block)
        # Row start + i formats its cells from column start + i on; an
        # undefined cell's ``nan`` is emptied before its text is kept.
        cells = [list(map(repr, row[i:].tolist()))
                 for i, row in enumerate(block)]
        undefined = np.isnan(block)
        for i in np.flatnonzero(undefined.any(axis=1)).tolist():
            for c in np.flatnonzero(undefined[i, i:]).tolist():
                cells[i][c] = ""
        for j in range(1, width):  # columns of the block: the rows above
            left[start + j].append(
                "\t".join([cells[i][j - i] for i in range(j)]))
        for c, column in enumerate(zip(*[row[width - i:] for i, row
                                         in enumerate(cells)]),
                                   start + width):
            left[c].append("\t".join(column))
        lines = []
        for r, row in enumerate(cells, start):
            lines.append(ids[r] + "\t" + "\t".join(left[r] + row) + "\n")
            left[r] = None
        out.write("".join(lines))
        start += width


__all__ = [
    "METHODS", "WITH_LOD", "WITHOUT_LOD", "DEFAULT_WEIGHTS",
    "MATRIX_BLOCK_ROWS", "MAX_TEXT_DIM", "CorpusIndex", "Recommendation",
    "SimilarityScore", "check_text_dim", "check_weights",
    "combined_similarity", "matrix_blocks", "recommend", "write_matrix_tsv",
]
