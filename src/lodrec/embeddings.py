"""Word-vector tables and mean-of-words video representations.

The table is loaded from the standard published text layout: an optional
``<count> <dim>`` header line, then one ``token v1 ... v_dim`` row per
word.  A video is represented as the arithmetic mean of the vectors of
all token occurrences in title, tag surfaces, and abstract.  Tokens
missing from the table are skipped and counted; subword inference for
out-of-vocabulary words is not attempted (it would require the binary
model format), so the miss counter is the way to judge coverage on a
given corpus.
"""

from __future__ import annotations

import io
import itertools
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import VideoRecord
from .errors import ParseError

# Maximal runs of alphanumeric characters; underscore is a boundary.
_TOKEN_RE = re.compile(r"[^\W_]+")


def _normalize_token(token: str) -> str:
    return unicodedata.normalize("NFC", token).casefold()


def tokenize(text: str) -> list[str]:
    """Case-folded alphanumeric tokens, length >= 2, digits-only dropped.

    NFC runs over the whole text before boundary detection: a decomposed
    combining mark is not a word character and would split its token.
    """
    tokens = []
    for raw in _TOKEN_RE.findall(unicodedata.normalize("NFC", text)):
        tok = raw.casefold()
        if len(tok) < 2 or tok.isdigit():
            continue
        tokens.append(tok)
    return tokens


@dataclass
class EmbeddingTable:
    """Token -> vector map with a fixed dimensionality.

    Keys are stored lookup-normalized (NFC + casefold, matching
    tokenize); on a collision the first row wins and the rest are
    counted in ``duplicates_skipped``.  ``rows_read`` counts the data
    rows read, whether parsed and stored or not.
    """

    dim: int
    vectors: dict[str, np.ndarray]
    duplicates_skipped: int = field(default=0, compare=False)
    rows_read: int = field(default=0, compare=False)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


# Rows parsed per numpy call.  Bigger blocks parse no faster and hold
# more transient memory: loadtxt copies the block's text.
_BLOCK_LINES = 1024


def _loadtxt(cells: list[str], delimiter: str | None) -> np.ndarray:
    return np.loadtxt(cells, dtype=np.float64, delimiter=delimiter,
                      comments=None, ndmin=2)


def _parse_rows(path, line_nos: list[int], cells: list[str], dim: int,
                delimiter: str | None = None) -> np.ndarray:
    """Parse ``dim`` numbers per cell with one numpy call.

    If numpy refuses the block, or it holds a wrong count or a non-finite
    value, the cells are parsed one at a time to name the first bad line.
    """
    try:
        if all(cells):  # numpy would skip an empty row
            matrix = _loadtxt(cells, delimiter)
            if matrix.shape == (len(cells), dim) and np.isfinite(matrix).all():
                return matrix
    except ValueError:
        pass
    rows = []
    for line_no, cell in zip(line_nos, cells):
        got = len(cell.split(delimiter))
        if got != dim:
            raise ParseError(path, line_no,
                             f"expected {dim} components, got {got}")
        try:
            row = _loadtxt([cell], delimiter)
        except ValueError:
            raise ParseError(path, line_no,
                             "non-numeric vector component") from None
        if not np.isfinite(row).all():
            raise ParseError(path, line_no, "non-finite vector component")
        rows.append(row)
    return np.vstack(rows)


def _header_dim(line: str) -> int | None:
    """``dim`` of a ``<count> <dim>`` header line; None for a data row
    (a two-field data row is a row of a dim-1 table)."""
    fields = line.split()
    if len(fields) != 2:
        return None
    try:
        int(fields[0])
        return int(fields[1])
    except ValueError:
        return None


def load_embeddings(path, limit: int | None = None,
                    keep: set[str] | None = None) -> EmbeddingTable:
    """Load a text-format vector table: its first ``limit`` distinct tokens.

    The dimension comes from the header if present, otherwise from the
    first data row.  Every row up to the limit is read and its token
    counted, but only the first row of each normalized token in ``keep``
    (all, if None) is parsed, checked and stored: a row that no lookup
    can reach cannot change a vector.  Components are parsed by numpy in
    blocks of rows, so ``1_0`` and non-ASCII digits, which Python's
    ``float`` takes, are refused, with the first bad line named.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    seen: set[str] = set()
    duplicates = 0
    dim: int | None = None
    # The block to parse: line numbers, component text, token to store.
    line_nos: list[int] = []
    cells: list[str] = []
    tokens: list[str] = []

    def flush():
        for token, vec in zip(tokens, _parse_rows(path, line_nos, cells, dim)):
            vectors[token] = vec.copy()  # a view would pin its neighbours
        line_nos.clear()
        cells.clear()
        tokens.clear()

    with open(path, encoding="utf-8") as f:
        first = f.readline()
        if not first:
            raise ParseError(path, 1, "empty embeddings file")
        lines = enumerate(f, start=2)
        dim = _header_dim(first)
        if dim is None:
            lines = itertools.chain([(1, first)], lines)
        elif dim < 1:
            raise ParseError(path, 1, f"header dimension {dim} is not >= 1")

        for line_no, line in lines:
            if limit is not None and len(seen) >= limit:
                break
            fields = line.split(None, 1)
            if not fields:
                continue
            cell = fields[1] if len(fields) == 2 else ""
            if dim is None:
                dim = len(cell.split())
                if not dim:
                    raise ParseError(path, line_no, "row has no components")
            token = _normalize_token(fields[0])
            if token in seen:
                duplicates += 1
                continue
            seen.add(token)
            if keep is None or token in keep:
                line_nos.append(line_no)
                cells.append(cell)
                tokens.append(token)
                if len(cells) >= _BLOCK_LINES:
                    flush()
        if cells:
            flush()

    if not seen:
        raise ParseError(path, 1, "embeddings file contains no vectors")
    return EmbeddingTable(dim=dim, vectors=vectors,
                          duplicates_skipped=duplicates,
                          rows_read=len(seen) + duplicates)


def load_stoplist(path) -> set[str]:
    """One token per line, normalized like tokenize; # comments allowed."""
    stop = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            word = line.strip()
            if word and not word.startswith("#"):
                stop.add(_normalize_token(word))
    return stop


def video_tokens(video: VideoRecord,
                 stopwords: set[str] | None = None) -> list[str]:
    """Token occurrences of title, tag surfaces and abstract, stopwords out:
    the words ``doc_vectors`` looks up in the table.  One ``tokenize`` call
    takes the fields joined by a line feed, which is no word character
    and composes with nothing under NFC, so no token spans two fields."""
    tokens = tokenize("\n".join(
        [video.title, *(t.surface for t in video.tags), video.abstract]))
    if stopwords:
        tokens = [tok for tok in tokens if tok not in stopwords]
    return tokens


def doc_vectors(tokens: list[list[str]], table: EmbeddingTable
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each video's mean word vector, from its token occurrences
    ``tokens[r]``, as ``(used, missed, vectors)``: two (N,) int arrays,
    the tokens found in the table and not, and the (N, D) matrix.

    Title, tag surfaces, and abstract contribute equally; duplicated
    tokens count with multiplicity.  Found tokens are added in sorted
    order, so the mean is bit-for-bit invariant under permutations of
    the input words.  A video with no token found has the zero vector
    and ``used`` 0; its text similarity is undefined rather than zero.
    """
    rows = table.vectors
    used = np.zeros(len(tokens), dtype=np.int64)
    missed = np.zeros(len(tokens), dtype=np.int64)
    vectors = np.zeros((len(tokens), table.dim))
    for r, toks in enumerate(tokens):
        found = sorted(filter(rows.__contains__, toks))
        used[r], missed[r] = len(found), len(toks) - len(found)
        if found:
            # One row per occurrence; the sum adds them in this order.
            vectors[r] = np.array([rows[tok] for tok in found]
                                  ).sum(axis=0) / len(found)
    return used, missed, vectors


# ---------------------------------------------------------------------------
# Cache file: video_id<TAB>tokens_used<TAB>tokens_missed<TAB>v1,...,v_dim

def save_doc_vectors(ids: list[str], used: np.ndarray, missed: np.ndarray,
                     vectors: np.ndarray):
    """Yield the cache one UTF-8 row at a time, each component as the
    ``repr`` of its float64 value, so the text reads back to the same bits;
    ``tolist`` of one row and ``map`` keep the loop in C without holding
    every component as a Python float at once."""
    for vid, u, m, row in zip(ids, used.tolist(), missed.tolist(), vectors):
        cells = ",".join(map(repr, row.tolist()))
        yield f"{vid}\t{u}\t{m}\t{cells}\n".encode()


def load_doc_vectors(path, data) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse ``data``, the bytes the caller read of the cache at ``path``,
    as ``(ids, tokens_used, vectors)``: the ids in file order, an (N,)
    int array and the (N, D) matrix, which one numpy call parses."""
    ids: list[str] = []
    used: list[int] = []
    line_nos: list[int] = []
    cells: list[str] = []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ParseError(path, line_no,
                                 "expected id<TAB>used<TAB>missed<TAB>components")
            try:
                used.append(int(fields[1]))
                int(fields[2])  # tokens_missed: checked, not scored
            except ValueError:
                raise ParseError(path, line_no, "malformed cache row") from None
            if not fields[3].strip():  # numpy would skip the empty row
                raise ParseError(path, line_no, "malformed cache row")
            ids.append(fields[0])
            line_nos.append(line_no)
            cells.append(fields[3])
    if not ids:
        return [], np.empty(0, dtype=np.int64), np.empty((0, 0))
    matrix = _parse_rows(path, line_nos, cells, cells[0].count(",") + 1,
                         delimiter=",")
    return ids, np.array(used, dtype=np.int64), matrix


__all__ = [
    "EmbeddingTable",
    "doc_vectors", "load_doc_vectors", "load_embeddings", "load_stoplist",
    "save_doc_vectors", "tokenize", "video_tokens",
]
