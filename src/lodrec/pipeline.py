"""Pipeline wiring: config file, index build, and index loading.

The config is a plain ``key = value`` text file (``#`` comments allowed);
relative paths are resolved against the config file's directory so a
committed config keeps working from any working directory.  ``index``
writes three artifacts into ``index_dir``:

    corpus.jsonl     normalized corpus (written by ingest)
    vocabulary.tsv   fragment per line, ``level<TAB>prefix``
    ddc_vectors.tsv  sparse tf-idf rows under a fingerprint header
    doc_vectors.tsv  mean word-vector cache

Artifact writes are deterministic: identical inputs give byte-identical
files, and the vocabulary fingerprint ties vector files to the
vocabulary they were built against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from . import ddc
from .authority import load_snapshot, enrich
from .corpus import Corpus, load_corpus, save_corpus
from .ddc_vectors import (
    build_vocabulary,
    load_ddc_vectors,
    load_vocabulary_fingerprint,
    save_ddc_vectors,
    save_vocabulary,
    vectorize,
)
from .embeddings import (
    embed_video,
    load_doc_vectors,
    load_embeddings,
    load_stoplist,
    save_doc_vectors,
    video_tokens,
)
from .engine import DEFAULT_WEIGHTS, CorpusIndex, check_weights
from .errors import LodrecError, VocabularyMismatchError

CORPUS_FILE = "corpus.jsonl"
VOCABULARY_FILE = "vocabulary.tsv"
DDC_VECTORS_FILE = "ddc_vectors.tsv"
DOC_VECTORS_FILE = "doc_vectors.tsv"


class ConfigError(LodrecError):
    """The config file is missing, malformed, or violates an invariant."""


@dataclass
class PipelineConfig:
    corpus_path: Path
    snapshot_path: Path
    embeddings_path: Path
    index_dir: Path = Path("index")
    corpus_format: str = "jsonl"
    language: str | None = None
    fragmentation_mode: str = ddc.DEFAULT_MODE
    w_text: float = DEFAULT_WEIGHTS[0]
    w_ddc: float = DEFAULT_WEIGHTS[1]
    k: int = 10
    limit_embeddings: int | None = None
    stoplist_path: Path | None = None

    def validate(self) -> None:
        try:
            check_weights(self.weights)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.limit_embeddings is not None and self.limit_embeddings < 1:
            raise ConfigError("limit_embeddings must be >= 1")
        if self.fragmentation_mode not in ddc.MODES:
            raise ConfigError(
                f"fragmentation_mode must be one of {', '.join(ddc.MODES)}")
        if self.corpus_format not in ("jsonl", "ntriples"):
            raise ConfigError("corpus_format must be jsonl or ntriples")

    @property
    def weights(self) -> tuple[float, float]:
        return (self.w_text, self.w_ddc)


_PATH_KEYS = {"corpus_path", "snapshot_path", "embeddings_path",
              "index_dir", "stoplist_path"}
_NUMBER_KEYS = {"w_text": float, "w_ddc": float,
                "k": int, "limit_embeddings": int}
_REQUIRED_KEYS = ("corpus_path", "snapshot_path", "embeddings_path")


def load_config(path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    base = path.resolve().parent
    raw: dict[str, tuple[int, str]] = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in raw:
                raise ConfigError(
                    f"{path}:{line_no}: {key} is set twice, "
                    f"first on line {raw[key][0]}")
            raw[key] = (line_no, value.strip())

    for key in _REQUIRED_KEYS:
        if key not in raw or not raw[key][1]:
            raise ConfigError(f"{path}: missing required key {key!r}")

    kwargs: dict = {}
    for key, (line_no, value) in raw.items():
        if key in _PATH_KEYS:
            kwargs[key] = (base / value).resolve() if value else None
        elif key in _NUMBER_KEYS:
            kind = _NUMBER_KEYS[key]
            try:
                kwargs[key] = kind(value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{line_no}: {key}: expected "
                    f"{'an integer' if kind is int else 'a number'}, "
                    f"got {value!r}") from None
        elif key in ("language", "fragmentation_mode", "corpus_format"):
            kwargs[key] = value
        else:
            raise ConfigError(
                f"{path}:{line_no}: unknown config key {key!r}")
    config = PipelineConfig(**kwargs)
    config.validate()
    return config


def override_config(config: PipelineConfig, **overrides) -> PipelineConfig:
    """Copy with CLI-flag overrides applied (flags win over the file)."""
    changed = {k: v for k, v in overrides.items() if v is not None}
    updated = replace(config, **changed)
    updated.validate()
    return updated


def run_ingest(config: PipelineConfig) -> dict:
    """Load, validate, filter, and persist the normalized corpus."""
    corpus = load_corpus(config.corpus_path, format=config.corpus_format,
                         language_filter=config.language)
    config.index_dir.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, config.index_dir / CORPUS_FILE)
    return {
        "read": len(corpus) + corpus.dropped_count,
        "retained": len(corpus),
        "dropped_language": corpus.dropped_count,
        "language_filter": config.language,
        "corpus_file": str(config.index_dir / CORPUS_FILE),
    }


def _load_normalized_corpus(config: PipelineConfig) -> Corpus:
    corpus_file = config.index_dir / CORPUS_FILE
    if not corpus_file.exists():
        raise LodrecError(
            f"normalized corpus not found at {corpus_file}; run ingest first")
    return load_corpus(corpus_file, format="jsonl",
                       language_filter=config.language)


def run_index(config: PipelineConfig) -> dict:
    """Build and write all index artifacts; reruns are byte-identical."""
    corpus = _load_normalized_corpus(config)
    snapshot = load_snapshot(config.snapshot_path)
    enriched = enrich(corpus, snapshot)

    vocab = build_vocabulary(enriched, mode=config.fragmentation_mode)
    fingerprint = vocab.fingerprint()
    ddc_vectors = [vectorize(v, vocab, fingerprint) for v in enriched]

    stopwords = (load_stoplist(config.stoplist_path)
                 if config.stoplist_path else None)
    # Each video's tokens, held through the table load as references to
    # one string per distinct token.
    used: dict[str, str] = {}
    tokens = [[used.setdefault(tok, tok) for tok in video_tokens(r, stopwords)]
              for r in corpus.records]
    table = load_embeddings(config.embeddings_path,
                            limit=config.limit_embeddings, keep=set(used))
    doc_vectors = [embed_video(r, table, tokens=toks)
                   for r, toks in zip(corpus.records, tokens)]

    config.index_dir.mkdir(parents=True, exist_ok=True)
    save_vocabulary(vocab, config.index_dir / VOCABULARY_FILE)
    save_ddc_vectors(ddc_vectors, fingerprint,
                     config.index_dir / DDC_VECTORS_FILE)
    save_doc_vectors(doc_vectors, config.index_dir / DOC_VECTORS_FILE)

    resolved = sum(len(v.resolved) for v in enriched)
    unresolved = sum(v.unresolved_count for v in enriched)
    return {
        "videos": len(corpus),
        "vocabulary_size": len(vocab),
        "fingerprint": fingerprint,
        "resolved_tags": resolved,
        "unresolved_tags": unresolved,
        "videos_without_codes": sum(1 for v in ddc_vectors if not v.weights),
        "degenerate_doc_vectors": sum(1 for v in doc_vectors if v.degenerate),
        "embedding_dim": table.dim,
        "embedding_rows_read": table.rows_read,
        "index_dir": str(config.index_dir),
    }


def _check_ids(expected: list[str], path: Path, found: list[str]) -> None:
    """Reject a vector file whose ids are not the corpus ids in order."""
    if found == expected:
        return
    at = next((n for n, (a, b) in enumerate(zip(expected, found)) if a != b),
              min(len(expected), len(found)))
    want = repr(expected[at]) if at < len(expected) else "none"
    got = repr(found[at]) if at < len(found) else "none"
    raise LodrecError(
        f"{path}: ids differ from {CORPUS_FILE} at position {at + 1}: "
        f"{CORPUS_FILE} has {want}, this file has {got}; the index is "
        "stale, run index again")


def load_index(config: PipelineConfig) -> CorpusIndex:
    """Load artifacts back into a scoring index, checking fingerprints
    and that the vector files hold the corpus ids in corpus order."""
    corpus = _load_normalized_corpus(config)
    vocab_file = config.index_dir / VOCABULARY_FILE
    if not vocab_file.exists():
        raise LodrecError(f"index artifact missing: {vocab_file}; "
                          "run index first")
    vocab_fp = load_vocabulary_fingerprint(vocab_file)
    vector_fp, ddc_vectors = load_ddc_vectors(
        config.index_dir / DDC_VECTORS_FILE)
    if vector_fp != vocab_fp:
        raise VocabularyMismatchError(
            f"vector file fingerprint {vector_fp} does not match "
            f"vocabulary file fingerprint {vocab_fp}; artifacts are from "
            "different runs")
    doc_vectors = load_doc_vectors(config.index_dir / DOC_VECTORS_FILE)
    ids = corpus.ids()
    _check_ids(ids, config.index_dir / DOC_VECTORS_FILE,
               [v.video_id for v in doc_vectors])
    _check_ids(ids, config.index_dir / DDC_VECTORS_FILE,
               [v.video_id for v in ddc_vectors])
    return CorpusIndex(
        ids=ids,
        doc_vectors={v.video_id: v for v in doc_vectors},
        ddc_vectors={v.video_id: v for v in ddc_vectors},
        weights=config.weights,
    )


__all__ = [
    "CORPUS_FILE", "DDC_VECTORS_FILE", "DOC_VECTORS_FILE", "VOCABULARY_FILE",
    "ConfigError", "PipelineConfig",
    "load_config", "load_index", "override_config", "run_index", "run_ingest",
]
