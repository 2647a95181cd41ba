"""Shared fixtures: shipped data paths, corpus builders, random generators."""

from __future__ import annotations

import math
import os
import random
import shutil
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from lodrec import (
    CorpusIndex,
    combined_similarity,
    engine,
    load_corpus,
    load_snapshot,
)
from lodrec.authority import EnrichedVideo, ResolvedTag
from lodrec.corpus import Tag, VideoRecord
from lodrec.ddc import Fragment, fragment_code, parse_code
from lodrec.ddc_vectors import (
    DDC_VECTORS_FILES,
    fragment_rows,
    load_ddc_vectors,
)
from lodrec.embeddings import EmbeddingTable, doc_vectors, video_tokens
from lodrec.engine import DEFAULT_WEIGHTS

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"
TOY = DATA / "toy"
RATINGS_CSV = DATA / "ratings_user_study.csv"


def checkout_env():
    """Subprocess environment that imports lodrec from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def toy_corpus():
    return load_corpus(TOY / "corpus.jsonl")


@pytest.fixture(scope="session")
def toy_snapshot():
    return load_snapshot(TOY / "authority.tsv")


@pytest.fixture
def toy_run(tmp_path):
    """Writable copy of the toy data directory for pipeline/CLI tests."""
    run_dir = tmp_path / "toy"
    shutil.copytree(TOY, run_dir)
    return run_dir


def read_csr(directory: Path, rows: int, size: int):
    """``load_ddc_vectors`` on the fragment files in ``directory``, for a
    vocabulary of ``size`` fragments."""
    return load_ddc_vectors(directory, {
        name: (directory / name).read_bytes() for name in DDC_VECTORS_FILES},
        rows, size)


def write_toy_config(tmp_path: Path, **overrides) -> Path:
    """Config pointing at the shipped toy inputs, index under tmp.

    An override of None drops the key from the file entirely.
    """
    values = {
        "corpus_path": str(TOY / "corpus.jsonl"),
        "snapshot_path": str(TOY / "authority.tsv"),
        "embeddings_path": str(TOY / "embeddings.txt"),
        "stoplist_path": str(TOY / "stoplist.txt"),
        "index_dir": "index",
        "language": "de",
        "k": "3",
    }
    values.update(overrides)
    lines = ["# generated by the test suite"]
    lines += [f"{k} = {v}" for k, v in values.items() if v is not None]
    path = tmp_path / "config.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def wide_toy_table(path: Path, dim: int) -> Path:
    """The toy table, headerless, with every row padded by zeros to
    ``dim`` components."""
    _, *rows = (TOY / "embeddings.txt").read_text(
        encoding="utf-8").splitlines()
    pad = dim - len(rows[0].split()) + 1
    path.write_text("".join(row + " 0" * pad + "\n" for row in rows),
                    encoding="utf-8")
    return path


def make_enriched(video_codes: dict[str, list[list[str]]],
                  language: str = "de") -> list[EnrichedVideo]:
    """Enriched videos built directly: one resolved tag per inner code list."""
    out = []
    for vid, tag_code_lists in video_codes.items():
        tags = tuple(Tag(surface=f"t{i}", provenance="manual")
                     for i in range(len(tag_code_lists)))
        record = VideoRecord(id=vid, language=language, title="",
                             abstract="", tags=tags)
        resolved = [
            ResolvedTag(tag_index=i, gnd_id=f"gnd:{vid}-{i}",
                        ddc_codes=tuple(parse_code(c) for c in codes))
            for i, codes in enumerate(tag_code_lists)
        ]
        out.append(EnrichedVideo(video=record, resolved=resolved,
                                 unresolved_count=0))
    return out


def code_maps(enriched: list[EnrichedVideo]) -> dict[str, dict[int, float]]:
    """Each video's row of ``fragment_rows`` as a ``{dim: weight}`` map."""
    _, ptr, dims, weights = fragment_rows(enriched)
    return {e.video.id: dict(zip(dims[a:b].tolist(), weights[a:b].tolist()))
            for e, a, b in zip(enriched, ptr.tolist(), ptr[1:].tolist())}


def random_code(rng: random.Random) -> str:
    """A grammar-valid classification code, leading zeros allowed."""
    integer = "".join(rng.choices("0123456789", k=rng.randint(1, 3)))
    if rng.random() < 0.6:
        decimal = "".join(rng.choices("0123456789", k=rng.randint(1, 3)))
        return f"{integer}.{decimal}"
    return integer


_TOKEN_POOL = ["".join(p) for p in
               zip(string.ascii_lowercase, string.ascii_lowercase[1:])]


def random_embedding_table(rng: random.Random, dim: int = 8,
                           n_tokens: int = 20) -> EmbeddingTable:
    tokens = rng.sample(_TOKEN_POOL, n_tokens)
    vectors = {
        t: np.array([rng.uniform(-1, 1) for _ in range(dim)])
        for t in tokens
    }
    return EmbeddingTable(dim=dim, vectors=vectors)


def embedded(records: list[VideoRecord], table: EmbeddingTable
             ) -> dict[str, tuple[np.ndarray, int]]:
    """Each record's ``(doc vector, tokens_used)`` from ``doc_vectors``."""
    used, _, vectors = doc_vectors([video_tokens(r) for r in records], table)
    return {r.id: (v, u) for r, v, u in zip(records, vectors, used.tolist())}


@dataclass
class Vectors:
    """A test corpus as each video's ``(doc vector, tokens_used)`` and
    ``{dim: weight}`` fragment map, in corpus order: the oracles read
    them, and ``index()`` stacks them into the arrays ``CorpusIndex`` is
    built from.  A video absent from ``codes`` has no codes."""

    ids: list[str]
    docs: dict[str, tuple[np.ndarray, int]]
    codes: dict[str, dict[int, float]] = field(default_factory=dict)
    weights: tuple[float, float] = DEFAULT_WEIGHTS

    def index(self) -> CorpusIndex:
        rows = [sorted(self.codes[vid].items())
                if vid in self.codes else [] for vid in self.ids]
        text = (np.stack([self.docs[vid][0] for vid in self.ids])
                if self.ids else np.empty((0, 0)))
        return CorpusIndex(
            self.ids, text,
            np.array([self.docs[vid][1] for vid in self.ids]),
            np.cumsum([0] + [len(r) for r in rows]),
            np.array([d for r in rows for d, _ in r], dtype=np.intp),
            np.array([w for r in rows for _, w in r], dtype=np.float64),
            weights=self.weights)


def random_micro_corpus(rng: random.Random) -> Vectors:
    """Small random corpus with both vector kinds, degenerate cases included.

    Bounds: at most 6 videos, 4 tags per video, 3 codes per tag.  Some
    videos get no resolvable codes and some get no in-table tokens, so
    both undefined branches occur.
    """
    table = random_embedding_table(rng)
    known_tokens = list(table.vectors)
    n_videos = rng.randint(2, 6)

    video_codes: dict[str, list[list[str]]] = {}
    records = []
    for v in range(n_videos):
        vid = f"v{v}"
        n_tags = rng.randint(0, 4)
        video_codes[vid] = [
            [random_code(rng) for _ in range(rng.randint(0, 3))]
            for _ in range(n_tags)
        ]
        if rng.random() < 0.2:
            words = ["zzzunknown"]  # out of table: degenerate doc vector
        else:
            words = rng.choices(known_tokens, k=rng.randint(1, 6))
        records.append(VideoRecord(
            id=vid, language="de", title=" ".join(words), abstract="",
            tags=tuple(Tag(surface=f"t{i}", provenance="manual")
                       for i in range(n_tags)),
        ))

    return Vectors(ids=[r.id for r in records],
                   docs=embedded(records, table),
                   codes=code_maps(make_enriched(video_codes)))


def hierarchy_corpus() -> Vectors:
    """Four videos with identical text and tiered code overlap.

    Pair (a1, a2) carries the same deep code, so its fragment vectors
    agree down to level 4.  Pair (b1, b2) shares only the level-1 class,
    which occurs in every video and therefore has idf 0.  Text metadata
    is identical everywhere, so only the fragment branch separates the
    pairs.
    """
    video_codes = {
        "a1": [["005.133"]],
        "a2": [["005.133"]],
        "b1": [["005.74"]],
        "b2": [["560"]],
    }
    codes = code_maps(make_enriched(video_codes))

    dim = 4
    table = EmbeddingTable(dim=dim, vectors={
        "wissenschaft": np.array([0.5, 0.1, -0.3, 0.2]),
        "video": np.array([0.1, 0.4, 0.2, -0.1]),
    })
    docs = embedded([VideoRecord(id=vid, language="de",
                                 title="Wissenschaft Video", abstract="",
                                 tags=()) for vid in video_codes], table)
    return Vectors(ids=sorted(video_codes), docs=docs, codes=codes)


def kernel_matrix(index: CorpusIndex, method: str) -> np.ndarray:
    """The kernel's rows stacked one by one, without ``matrix_blocks``."""
    return np.stack([engine._method_scores(index, r, method)
                     for r in range(len(index))])


def cell_by_cell_tsv(ids: list[str], matrix: np.ndarray) -> str:
    """The TSV of a dense score matrix as the former whole-string writer
    made it: an id header row and column, each cell its float ``repr``,
    undefined cells empty."""
    lines = ["\t" + "\t".join(ids)]
    for vid, row in zip(ids, matrix):
        lines.append(vid + "\t" + "\t".join(
            "" if x != x else repr(x) for x in row.tolist()))
    return "\n".join(lines) + "\n"


def former_glue(cols: CorpusIndex, q: int, weights: tuple[float, float],
                text_dots: np.ndarray) -> tuple:
    """The kernel's per-query glue as it was first written, for a check
    that the trimmed glue keeps every bit: each route starts from
    ``np.full(n, nan)`` and copies its dots in ``where`` the row is
    defined, and the routes combine through a nested ``np.where``.
    ``text_dots`` is the raw text product row of query ``q``, so both
    sides start from the same text scores.  Returns ``(s_text, s_ddc,
    s_lod, fallback)``."""
    n = len(cols.has_text)
    s_text = np.full(n, np.nan)
    if cols.has_text[q]:
        np.copyto(s_text, text_dots, where=cols.has_text)
    s_ddc = np.full(n, np.nan)
    if cols.has_codes[q]:
        lo, hi = cols.row_ptr[q], cols.row_ptr[q + 1]
        q_dims, q_weights = cols.row_dim[lo:hi], cols.row_weight[lo:hi]
        starts = cols.dim_ptr[q_dims]
        counts = cols.dim_ptr[q_dims + 1] - starts
        take = (np.repeat(starts - np.cumsum(counts) + counts, counts)
                + np.arange(counts.sum()))
        dots = np.bincount(cols.post_row[take],
                           weights=cols.post_weight[take]
                           * np.repeat(q_weights, counts), minlength=n)
        np.copyto(s_ddc, dots, where=cols.has_codes)
    w_text, w_ddc = weights
    text_ok, ddc_ok = ~np.isnan(s_text), ~np.isnan(s_ddc)
    combined = (w_text * s_text + w_ddc * s_ddc) / (w_text + w_ddc)
    s_lod = np.where(text_ok & ddc_ok, combined,
                     np.where(text_ok, s_text, s_ddc))
    return s_text, s_ddc, s_lod, text_ok ^ ddc_ok


def former_top_k(scores: np.ndarray, q: int, ids: list[str], id_rank,
                 k: int) -> list:
    """``recommend``'s selection as it was first written: the order key
    from ``np.where``, then partition and a (key, id) sort of the rows at
    or below the k-th key."""
    key = np.where(np.isnan(scores), np.inf, -scores)
    key[q] = np.nan
    kth = np.partition(key, k - 1)[k - 1]
    top = np.flatnonzero(key <= kth)
    top = top[np.lexsort((id_rank[top], key[top]))][:k]
    return [(ids[c], None if math.isnan(scores[c]) else float(scores[c]))
            for c in top.tolist()]


def former_save_doc_vectors(ids: list[str], used, missed, vectors,
                            path) -> None:
    """The doc-vector writer as it was first written: a Python generator
    that takes each component as a numpy scalar, makes it a ``float``
    and calls ``repr`` on it."""
    with open(path, "w", encoding="utf-8") as f:
        for vid, u, m, vector in zip(ids, used, missed, vectors):
            cells = ",".join(repr(float(x)) for x in vector)
            f.write(f"{vid}\t{u}\t{m}\t{cells}\n")


def _former_fragment_counts(video: EnrichedVideo, mode: str) -> dict:
    counts: dict = {}
    for resolved in video.resolved:
        for code in resolved.ddc_codes:
            for fragment in fragment_code(code, mode):
                counts[fragment] = counts.get(fragment, 0) + 1
    return counts


def former_build_vocabulary(enriched: list[EnrichedVideo], mode: str
                            ) -> tuple[list[Fragment], dict[Fragment, int]]:
    """The vocabulary build as it was first written: each video fragments
    every one of its codes afresh, and ``df`` counts the set of them.
    Returns the fragments in vocabulary order, and each one's ``df``."""
    df: dict = {}
    for video in enriched:
        for fragment in set(_former_fragment_counts(video, mode)):
            df[fragment] = df.get(fragment, 0) + 1
    return sorted(df), df


def former_vectorize(video: EnrichedVideo, fragments: list[Fragment],
                     df: dict[Fragment, int], n_docs: int,
                     mode: str) -> dict[int, float]:
    """A video's tf-idf weights by dimension, as ``vectorize`` was first
    written: the video's own fragment counts, walked in fragment order,
    each weight ``tf * ln(n_docs / df)``; a fragment in every video is
    left out."""
    index = {f: i for i, f in enumerate(fragments)}
    return {index[f]: tf * math.log(n_docs / df[f])
            for f, tf in sorted(_former_fragment_counts(video, mode).items())
            if df[f] < n_docs}


# -- reference cosines, the oracles for the kernel, and the kernel on raw
# -- vectors; the package has no scalar cosine of its own

def sparse_cosine(a: dict[int, float], b: dict[int, float]) -> float | None:
    """Cosine of two sparse vectors with exactly rounded sums (``fsum``)
    over ascending dimensions; None if either has zero norm."""
    norm_a = math.sqrt(math.fsum(a[d] * a[d] for d in sorted(a)))
    norm_b = math.sqrt(math.fsum(b[d] * b[d] for d in sorted(b)))
    if norm_a == 0.0 or norm_b == 0.0:
        return None
    dot = math.fsum(a[d] * b[d] for d in sorted(set(a) & set(b)))
    return dot / (norm_a * norm_b)


def dense_cosine(a, b) -> float | None:
    """Cosine of two dense vectors of equal length; None if either has
    zero norm."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    norm_a, norm_b = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return None
    return float(np.dot(a, b)) / (norm_a * norm_b)


def kernel_cosines(text=None, codes=None) -> tuple:
    """The kernel's ``(s_text, s_ddc)`` for two videos made from raw
    vectors: ``text`` a pair of dense doc vectors, ``codes`` a pair of
    sparse ``{dim: weight}`` maps of one vocabulary.  A route not given
    has no evidence."""
    text = text if text is not None else (np.zeros(1), np.zeros(1))
    docs = {vid: (np.asarray(v, dtype=float), 1) for vid, v in zip("ij", text)}
    ddc = {vid: dict(w) for vid, w in zip("ij", codes or ())}
    s = combined_similarity(Vectors(["i", "j"], docs, ddc).index(), "i", "j")
    return s.s_text, s.s_ddc
