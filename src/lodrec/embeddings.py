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

import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import VideoRecord
from .ddc_vectors import cosine
from .errors import DimensionMismatchError, ParseError

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
    counted in ``duplicates_skipped``.
    """

    dim: int
    vectors: dict[str, np.ndarray]
    duplicates_skipped: int = field(default=0, compare=False)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


def load_embeddings(path, limit: int | None = None) -> EmbeddingTable:
    """Load a text-format vector table, at most ``limit`` rows.

    The dimension comes from the header if present, otherwise from the
    first data row; every row is checked against it.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    duplicates = 0
    dim: int | None = None
    with open(path, encoding="utf-8") as f:
        first = f.readline()
        if not first:
            raise ParseError(path, 1, "empty embeddings file")
        header_fields = first.split()
        if len(header_fields) == 2:
            try:
                int(header_fields[0])
                dim = int(header_fields[1])
                first = None  # consumed as header
            except ValueError:
                pass  # two-field data row (dim-1 table); treat as data

        def parse_row(line: str, line_no: int):
            nonlocal dim, duplicates
            fields = line.split()
            if not fields:
                return
            token = _normalize_token(fields[0])
            values = fields[1:]
            if dim is None:
                if not values:
                    raise ParseError(path, line_no, "row has no components")
                dim = len(values)
            if len(values) != dim:
                raise ParseError(
                    path, line_no,
                    f"expected {dim} components, got {len(values)}")
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise ParseError(path, line_no,
                                 "non-numeric vector component") from None
            if not np.all(np.isfinite(vec)):
                raise ParseError(path, line_no, "non-finite vector component")
            if token in vectors:
                duplicates += 1
                return
            vectors[token] = vec

        if first is not None:
            parse_row(first, 1)
        for line_no, line in enumerate(f, start=2):
            if limit is not None and len(vectors) >= limit:
                break
            if line.strip():
                parse_row(line, line_no)

    if dim is None or not vectors:
        raise ParseError(path, 1, "embeddings file contains no vectors")
    return EmbeddingTable(dim=dim, vectors=vectors,
                          duplicates_skipped=duplicates)


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write the text layout back out, preserving full float precision."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{len(table.vectors)} {table.dim}\n")
        for token, vec in table.vectors.items():
            f.write(token + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def load_stoplist(path) -> set[str]:
    """One token per line, normalized like tokenize; # comments allowed."""
    stop = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            word = line.strip()
            if word and not word.startswith("#"):
                stop.add(_normalize_token(word))
    return stop


@dataclass
class DocVector:
    """Mean word vector for one video.

    A video whose tokens are all out-of-vocabulary has the zero vector
    and is flagged degenerate; its text similarity is undefined rather
    than zero.
    """

    video_id: str
    vector: np.ndarray
    tokens_used: int
    tokens_missed: int

    @property
    def degenerate(self) -> bool:
        return self.tokens_used == 0

    @property
    def dim(self) -> int:
        return int(self.vector.shape[0])


def embed_video(video: VideoRecord, table: EmbeddingTable,
                stopwords: set[str] | None = None) -> DocVector:
    """Mean of the table vectors over all token occurrences.

    Title, tag surfaces, and abstract contribute equally; duplicated
    tokens count with multiplicity.  Found tokens are accumulated in
    sorted order so the mean is bit-for-bit invariant under permutations
    of the input words.
    """
    texts = [video.title, *(t.surface for t in video.tags), video.abstract]
    tokens = [tok for text in texts for tok in tokenize(text)]
    if stopwords:
        tokens = [tok for tok in tokens if tok not in stopwords]

    found = sorted(tok for tok in tokens if tok in table)
    missed = len(tokens) - len(found)
    if not found:
        return DocVector(video_id=video.id,
                         vector=np.zeros(table.dim, dtype=np.float64),
                         tokens_used=0, tokens_missed=missed)
    stacked = np.stack([table.vectors[tok] for tok in found])
    mean = stacked.sum(axis=0) / len(found)
    return DocVector(video_id=video.id, vector=mean,
                     tokens_used=len(found), tokens_missed=missed)


def text_similarity(a: DocVector, b: DocVector) -> float | None:
    """Cosine of two mean vectors; None if either is degenerate."""
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"document vectors differ in dimension: {a.dim} vs {b.dim}")
    if a.degenerate or b.degenerate:
        return None
    return cosine(a.vector, b.vector)


# ---------------------------------------------------------------------------
# Cache file: video_id<TAB>tokens_used<TAB>tokens_missed<TAB>v1,...,v_dim

def save_doc_vectors(vectors: list[DocVector], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for v in vectors:
            cells = ",".join(repr(float(x)) for x in v.vector)
            f.write(f"{v.video_id}\t{v.tokens_used}\t{v.tokens_missed}\t{cells}\n")


def _parse_components(cells: list[str]) -> np.ndarray:
    """One row per comma-separated cell, parsed by numpy."""
    return np.loadtxt(cells, dtype=np.float64, delimiter=",", comments=None,
                      ndmin=2)


def load_doc_vectors(path) -> list[DocVector]:
    """Read the cache; one numpy call parses all components."""
    rows: list[tuple[int, str, int, int]] = []
    cells: list[str] = []
    dim: int | None = None
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ParseError(path, line_no,
                                 "expected id<TAB>used<TAB>missed<TAB>components")
            try:
                used, missed = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(path, line_no, "malformed cache row") from None
            if not fields[3].strip():  # numpy would skip the empty row
                raise ParseError(path, line_no, "malformed cache row")
            n_components = fields[3].count(",") + 1
            if dim is None:
                dim = n_components
            elif n_components != dim:
                raise ParseError(path, line_no,
                                 f"expected {dim} components, got {n_components}")
            rows.append((line_no, fields[0], used, missed))
            cells.append(fields[3])
    if not rows:
        return []
    try:
        matrix = _parse_components(cells)
    except ValueError:
        # Name the first line numpy cannot parse on its own.
        for (line_no, *_), cell in zip(rows, cells):
            try:
                _parse_components([cell])
            except ValueError:
                raise ParseError(path, line_no, "malformed cache row") from None
        raise
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ParseError(path, rows[int(np.argmin(finite))][0],
                         "non-finite vector component")
    return [DocVector(video_id=vid, vector=vec, tokens_used=used,
                      tokens_missed=missed)
            for (_, vid, used, missed), vec in zip(rows, matrix)]


__all__ = [
    "DocVector", "EmbeddingTable",
    "embed_video", "load_doc_vectors", "load_embeddings", "load_stoplist",
    "save_doc_vectors", "save_embeddings", "text_similarity", "tokenize",
]
