"""Per-video tf-idf vectors over classification-code fragments.

Every video gets a sparse vector whose dimensions are the corpus-global
set of code fragments.  A fragment's weight is ``tf * ln(n_docs / df)``:
raw occurrence count over the video's (tag, code) pairs times unsmoothed
inverse document frequency.  Deep fragments are rare across the corpus,
so they dominate the cosine similarity between two vectors, which is the
point of fragmenting the hierarchy in the first place.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from .authority import EnrichedVideo
from .ddc import DEFAULT_MODE, Fragment, fragment_code
from .errors import LodrecError


@dataclass
class FragmentVocabulary:
    """Corpus-global ordered fragment set defining the vector dimensions.

    ``fragments`` is sorted by (level, prefix) so serialized indices are
    portable across runs and machines.  ``df`` counts documents (videos)
    containing each fragment at least once; ``n_docs`` is the corpus size
    including videos without any resolved codes.
    """

    fragments: list[Fragment]
    index: dict[Fragment, int]
    df: dict[Fragment, int]
    n_docs: int
    mode: str = DEFAULT_MODE

    def __len__(self) -> int:
        return len(self.fragments)

    def serialize(self) -> str:
        """One fragment per line, ``level<TAB>prefix``, vocabulary order."""
        return "".join(f"{f.level}\t{f.prefix}\n" for f in self.fragments)

    def idf(self, fragment: Fragment) -> float:
        return math.log(self.n_docs / self.df[fragment])


@dataclass
class DdcVector:
    """Sparse tf-idf weights for one video, keyed by vocabulary dimension.

    Zeros are absent from the map, so an empty ``weights`` dict means the
    video has no usable classification evidence.
    """

    video_id: str
    weights: dict[int, float]
    unknown_fragments: int = field(default=0, compare=False)


def fragment_counts(enriched: list[EnrichedVideo],
                    mode: str = DEFAULT_MODE) -> list[Counter]:
    """Each video's fragment multiplicities over its (tag, code) pairs.

    Each distinct code is fragmented once per call, and equal fragments
    are one object, so the counts hash and compare them cheaply.  The
    memo lives only as long as the call.
    """
    fragments: dict[str, tuple[Fragment, ...]] = {}  # by the code's digits
    shared: dict[Fragment, Fragment] = {}
    out = []
    for video in enriched:
        counts: Counter = Counter()
        for resolved in video.resolved:
            for code in resolved.ddc_codes:
                frags = fragments.get(code.digits)
                if frags is None:
                    frags = fragments[code.digits] = tuple(
                        shared.setdefault(f, f)
                        for f in fragment_code(code, mode))
                counts.update(frags)
        out.append(counts)
    return out


def build_vocabulary(enriched: list[EnrichedVideo],
                     mode: str = DEFAULT_MODE, *,
                     counts: list[Counter] | None = None,
                     ) -> FragmentVocabulary:
    """Collect the distinct fragments of all resolved codes of all videos.

    A caller that already holds ``fragment_counts(enriched, mode)``
    passes it as ``counts``.
    """
    if counts is None:
        counts = fragment_counts(enriched, mode)
    df: Counter = Counter()
    for video_counts in counts:
        df.update(video_counts.keys())
    # The dataclass order, (level, prefix), compared in C.
    fragments = sorted(df, key=attrgetter("level", "prefix"))
    return FragmentVocabulary(
        fragments=fragments,
        index={f: i for i, f in enumerate(fragments)},
        df=dict(df),
        n_docs=len(enriched),
        mode=mode,
    )


def vectorize(video: EnrichedVideo, vocab: FragmentVocabulary, *,
              counts: Counter | None = None) -> DdcVector:
    """tf-idf weights for every vocabulary fragment the video contains.

    Fragments outside the vocabulary are skipped and counted (this only
    happens when a video was not part of the vocabulary build).
    Fragments occurring in every document get idf 0 and are left out.
    A caller that already holds the video's entry of ``fragment_counts``
    (in ``vocab.mode``) passes it as ``counts``.
    """
    if counts is None:
        counts = fragment_counts([video], vocab.mode)[0]
    entries: list[tuple[int, float]] = []
    unknown = 0
    for fragment, tf in counts.items():
        dim = vocab.index.get(fragment)
        if dim is None:
            unknown += 1
            continue
        if vocab.df[fragment] >= vocab.n_docs:
            continue
        entries.append((dim, tf * vocab.idf(fragment)))
    # Ascending dimension is ascending fragment: the vocabulary's order.
    return DdcVector(video_id=video.video.id, weights=dict(sorted(entries)),
                     unknown_fragments=unknown)


# ---------------------------------------------------------------------------
# Serialization

# The fragment rows on disk: the CSR arrays that ``CorpusIndex`` takes,
# one plain ``.npy`` file each, by name with its dtype.  Row ``r``'s
# dimensions, strictly ascending, are ``dims[offsets[r]:offsets[r + 1]]``,
# with their weights at the same places; row ``r`` is the video on row
# ``r`` of the doc vectors.
DDC_VECTORS_FILES = {"ddc_offsets.npy": np.int64, "ddc_dims.npy": np.int64,
                     "ddc_weights.npy": np.float64}


def save_ddc_vectors(vectors: list[DdcVector]):
    """Yield each of the ``DDC_VECTORS_FILES`` as (name, chunks): one
    chunk, the bytes that ``np.save`` writes for its array."""
    cells = [cell for v in vectors for cell in sorted(v.weights.items())]
    arrays = (np.cumsum([0] + [len(v.weights) for v in vectors]),
              [d for d, _ in cells], [w for _, w in cells])
    for (name, dtype), array in zip(DDC_VECTORS_FILES.items(), arrays):
        out = io.BytesIO()
        np.lib.format.write_array(out, np.array(array, dtype=dtype),
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
    "DdcVector", "FragmentVocabulary",
    "build_vocabulary", "fragment_counts", "vectorize", "save_ddc_vectors",
    "load_ddc_vectors", "DDC_VECTORS_FILES",
]
