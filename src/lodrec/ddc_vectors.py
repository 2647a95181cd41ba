"""Per-video tf-idf vectors over classification-code fragments.

Every video gets a sparse vector whose dimensions are the corpus-global
set of code fragments.  A fragment's weight is ``tf * ln(n_docs / df)``:
raw occurrence count over the video's (tag, code) pairs times unsmoothed
inverse document frequency.  Deep fragments are rare across the corpus,
so they dominate the cosine similarity between two vectors, which is the
point of fragmenting the hierarchy in the first place.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .authority import EnrichedVideo
from .ddc import DEFAULT_MODE, Fragment, fragment_code
from .errors import ParseError


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

def save_vocabulary(vocab: FragmentVocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(vocab.serialize())


def save_ddc_vectors(vectors: list[DdcVector], path) -> None:
    """One ``video_id<TAB>dim:weight,...`` line per video."""
    with open(path, "w", encoding="utf-8") as f:
        for v in vectors:
            cells = ",".join(f"{d}:{w!r}" for d, w in sorted(v.weights.items()))
            f.write(f"{v.video_id}\t{cells}\n")


def load_ddc_vectors(path) -> tuple[list[str], np.ndarray, np.ndarray,
                                    np.ndarray]:
    """Read the rows as CSR, ``(ids, ptr, dims, weights)``: row ``r``'s
    dimensions are ``dims[ptr[r]:ptr[r + 1]]``, strictly ascending, and
    their weights ``weights[ptr[r]:ptr[r + 1]]``."""
    ids: list[str] = []
    ptr = [0]
    dims: list[int] = []
    weights: list[float] = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(path, line_no, "expected id<TAB>weights")
            video_id, cells = fields
            last = -1
            for cell in cells.split(",") if cells else ():
                try:
                    dim_s, w_s = cell.split(":")
                    dim, weight = int(dim_s), float(w_s)
                except ValueError:
                    raise ParseError(path, line_no,
                                     f"bad weight cell {cell!r}") from None
                if not math.isfinite(weight):
                    raise ParseError(path, line_no,
                                     f"non-finite weight {cell!r}")
                if dim <= last:
                    raise ParseError(
                        path, line_no, f"dimension out of order in "
                        f"{cell!r}: a row's dimensions must be "
                        "non-negative and strictly ascending")
                last = dim
                dims.append(dim)
                weights.append(weight)
            ids.append(video_id)
            ptr.append(len(dims))
    return (ids, np.array(ptr, dtype=np.intp), np.array(dims, dtype=np.intp),
            np.array(weights, dtype=np.float64))


__all__ = [
    "DdcVector", "FragmentVocabulary",
    "build_vocabulary", "fragment_counts", "vectorize", "save_vocabulary",
    "save_ddc_vectors", "load_ddc_vectors",
]
