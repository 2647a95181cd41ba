"""Dense numpy oracle for lodrec's scores, built from the generator's truth.

It shares no code with lodrec.  It restates the scoring rules from the
documentation and computes them in a different way: whole matrices
instead of one pair at a time.

- Text route: the mean of the table vectors of a video's tokens (stopwords
  left out, unknown tokens skipped), compared by cosine.  A video with no
  known token has no text vector.
- Code route: tf-idf over the level prefixes of every resolved code, with
  leading zeros stripped (the default fragmentation), ``tf * ln(N / df)``
  and fragments that occur in every video left out; compared by cosine.
  A video with no non-zero weight has no code vector.
- Combined: the weighted mean where both routes are defined, the defined
  route where one is, undefined where neither is.
- Ranking key: undefined last, then descending score, then ascending id.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from workloads import Truth

TOLERANCE = 1e-9
WITH_LOD, WITHOUT_LOD = "with_lod", "without_lod"
W_TEXT = W_DDC = 0.5  # lodrec's default weights; no generated config sets them


class CheckFailed(AssertionError):
    """lodrec's output disagrees with the oracle or breaks a property."""


def fragments(code: str) -> list[str]:
    """Level prefixes of a Dewey notation; a prefix's level is its length."""
    digits = code.replace(".", "").lstrip("0") or "0"
    return [digits[:level] for level in range(1, len(digits) + 1)]


def _cosines(vectors: np.ndarray, defined: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1)
    defined = defined & (norms > 0)
    unit = np.zeros_like(vectors)
    unit[defined] = vectors[defined] / norms[defined, None]
    cos = unit @ unit.T
    cos[~(defined[:, None] & defined[None, :])] = np.nan
    return cos


class Oracle:
    def __init__(self, truth: Truth):
        videos = truth.videos
        self.ids = [v.id for v in videos]
        self.position = {vid: i for i, vid in enumerate(self.ids)}
        n = len(videos)

        self.text = np.zeros((n, truth.dim))
        self.tokens_used = np.zeros(n, dtype=int)
        self.tokens_missed = np.zeros(n, dtype=int)
        for i, v in enumerate(videos):
            kept = [t for t in v.tokens if t not in truth.stopwords]
            found = [t for t in kept if t in truth.vectors]
            self.tokens_used[i] = len(found)
            self.tokens_missed[i] = len(kept) - len(found)
            if found:
                self.text[i] = np.mean([truth.vectors[t] for t in found],
                                       axis=0)

        counts = [Counter(f for c in v.codes for f in fragments(c))
                  for v in videos]
        df = Counter(f for c in counts for f in c)
        vocabulary = sorted(df)
        column = {f: j for j, f in enumerate(vocabulary)}
        self.tfidf = np.zeros((n, len(vocabulary)))
        for i, c in enumerate(counts):
            for f, tf in c.items():
                if df[f] < n:
                    self.tfidf[i, column[f]] = tf * math.log(n / df[f])

        self.s_text = _cosines(self.text, self.tokens_used > 0)
        self.s_ddc = _cosines(self.tfidf, np.ones(n, dtype=bool))
        both = (W_TEXT * self.s_text + W_DDC * self.s_ddc) / (W_TEXT + W_DDC)
        self.s_lod = np.where(np.isnan(self.s_text), self.s_ddc,
                              np.where(np.isnan(self.s_ddc), self.s_text, both))
        self.summary = {
            "videos": n,
            "resolved_tags": sum(v.resolved for v in videos),
            "unresolved_tags": sum(v.unresolved for v in videos),
            "vocabulary_size": len(vocabulary),
            "degenerate_doc_vectors": int(np.sum(self.tokens_used == 0)),
            "videos_without_codes": int(np.sum(~self.tfidf.any(axis=1))),
        }

    def scores(self, method: str) -> np.ndarray:
        return self.s_lod if method == WITH_LOD else self.s_text

    # -- checks ------------------------------------------------------------

    def check_summary(self, summary: dict) -> None:
        for key, expected in self.summary.items():
            if summary.get(key) != expected:
                raise CheckFailed(f"index summary {key}: lodrec "
                                  f"{summary.get(key)!r}, oracle {expected}")

    def check_doc_vectors(self, path, sample: list[str]) -> None:
        """Compare sampled rows of the ``doc_vectors.tsv`` artifact."""
        wanted = set(sample)
        seen = set()
        with open(path, encoding="utf-8") as f:
            for line in f:
                vid, used, missed, cells = line.rstrip("\n").split("\t")
                if vid not in wanted:
                    continue
                seen.add(vid)
                i = self.position[vid]
                vec = np.array([float(x) for x in cells.split(",")])
                if (int(used), int(missed)) != (self.tokens_used[i],
                                                self.tokens_missed[i]):
                    raise CheckFailed(
                        f"doc vector {vid}: tokens used/missed {used}/{missed},"
                        f" oracle {self.tokens_used[i]}/{self.tokens_missed[i]}")
                err = np.max(np.abs(vec - self.text[i]))
                if not err <= TOLERANCE:
                    raise CheckFailed(f"doc vector {vid}: off by {err:.3g}")
        if seen != wanted:
            raise CheckFailed(f"doc vectors missing: {sorted(wanted - seen)[:3]}")

    def check_ranking(self, query: str, ranked, method: str, k: int) -> None:
        """A top-k answer against the oracle; near-ties compare as sets."""
        check_properties(query, ranked, k)
        q = self.position[query]
        row = self.scores(method)[q]
        candidates = [j for j in range(len(self.ids)) if j != q]
        order = sorted(candidates, key=lambda j: (
            np.isnan(row[j]), -row[j] if not np.isnan(row[j]) else 0.0,
            self.ids[j]))

        def differs(score, expected) -> bool:
            if np.isnan(expected):
                return score is not None
            return score is None or not abs(score - expected) <= TOLERANCE

        for rank, (vid, score) in enumerate(ranked):
            if vid not in self.position or vid == query:
                raise CheckFailed(f"{method} {query}: bad candidate {vid!r}")
            if differs(score, row[self.position[vid]]):
                raise CheckFailed(
                    f"{method} {query}: score of {vid} is {score!r}, "
                    f"oracle {row[self.position[vid]]!r}")
            if differs(score, row[order[rank]]):
                raise CheckFailed(
                    f"{method} {query}: rank {rank} scores {score!r}, "
                    f"oracle {row[order[rank]]!r}")
        returned = {vid for vid, _ in ranked}
        boundary = row[order[k - 1]]
        for j in order[:k]:
            clear = (not np.isnan(row[j]) and
                     (np.isnan(boundary) or row[j] > boundary + TOLERANCE))
            exact_undefined = np.isnan(boundary) and np.isnan(row[j])
            if (clear or exact_undefined) and self.ids[j] not in returned:
                raise CheckFailed(
                    f"{method} {query}: {self.ids[j]} (oracle "
                    f"{row[j]!r}) missing from the top {k}")

    def check_matrix(self, path) -> np.ndarray:
        """The ``lodrec matrix`` TSV (``with_lod``): shape, symmetry, empty
        cells, values."""
        with open(path, encoding="utf-8") as f:
            header = f.readline().rstrip("\n").split("\t")
            if header != [""] + self.ids:
                raise CheckFailed("matrix header is not the corpus ids in order")
            rows = []
            for r, line in enumerate(f):
                cells = line.rstrip("\n").split("\t")
                if r >= len(self.ids) or cells[0] != self.ids[r]:
                    raise CheckFailed(f"matrix row {r} is not {self.ids[r:r+1]}")
                if len(cells) != len(self.ids) + 1:
                    raise CheckFailed(f"matrix row {r} has {len(cells) - 1} cells")
                rows.append([float(c) if c else math.nan for c in cells[1:]])
        matrix = np.array(rows)
        if matrix.shape != (len(self.ids), len(self.ids)):
            raise CheckFailed(f"matrix shape {matrix.shape}")
        if not np.array_equal(matrix, matrix.T, equal_nan=True):
            raise CheckFailed("matrix is not exactly symmetric")
        expected = self.s_lod
        empty, undefined = np.isnan(matrix), np.isnan(expected)
        if not np.array_equal(empty, undefined):
            r, c = np.argwhere(empty != undefined)[0]
            raise CheckFailed(f"matrix cell {self.ids[r]},{self.ids[c]} is "
                              f"{matrix[r, c]!r}, oracle {expected[r, c]!r}")
        err = np.max(np.abs(matrix[~empty] - expected[~empty]), initial=0.0)
        if not err <= TOLERANCE:
            raise CheckFailed(f"matrix values off the oracle by {err:.3g}")
        return matrix


def check_properties(query: str, ranked, k: int) -> None:
    """k distinct results, the query not among them, and the key order."""
    if len(ranked) != k:
        raise CheckFailed(f"{query}: {len(ranked)} results, expected {k}")
    ids = [vid for vid, _ in ranked]
    if query in ids or len(set(ids)) != k:
        raise CheckFailed(f"{query}: query or duplicate among results")
    for (a, sa), (b, sb) in zip(ranked, ranked[1:]):
        if sa is None:
            in_order = sb is None and a < b
        else:
            in_order = sb is None or sa > sb or (sa == sb and a < b)
        if not in_order:
            raise CheckFailed(f"{query}: ({a}, {sa!r}) ranked before "
                              f"({b}, {sb!r})")
