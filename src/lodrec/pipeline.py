"""Pipeline wiring: config file, index build, and index loading.

The config is a plain ``key = value`` text file (``#`` comments allowed);
relative paths are resolved against the config file's directory so a
committed config keeps working from any working directory.  An index is
six artifacts in ``index_dir`` and the manifest ``index`` writes last:

    corpus.jsonl     normalized corpus (written by ingest)
    vocabulary.tsv   fragment per line, ``level<TAB>prefix``
    ddc_*.npy        sparse tf-idf rows as CSR: offsets, dims, weights
    doc_vectors.tsv  mean word-vector cache
    manifest.json    SHA-256 digest of each file above

Artifact writes are deterministic: identical inputs give byte-identical
files.  Every file reaches ``index_dir`` through ``_write``: under a
temporary name, renamed into place, so a failed or interrupted ``ingest``
or ``index`` leaves each one old or new, never part written (durability
against power loss, ``fsync``, is out of scope).  The format modules
only produce the bytes.  ``load_index`` parses only bytes it read once
and hashed, and refuses any file the manifest does not vouch for.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

from . import ddc
from .authority import load_snapshot, enrich
from .corpus import load_corpus, save_corpus
from .ddc_vectors import (
    DDC_VECTORS_FILES,
    fragment_rows,
    load_ddc_vectors,
    save_ddc_vectors,
    save_vocabulary,
)
from .embeddings import (
    doc_vectors,
    load_doc_vectors,
    load_embeddings,
    load_stoplist,
    save_doc_vectors,
    video_tokens,
)
from .engine import (
    DEFAULT_WEIGHTS,
    CorpusIndex,
    check_text_dim,
    check_weights,
)
from .errors import LodrecError

CORPUS_FILE = "corpus.jsonl"
VOCABULARY_FILE = "vocabulary.tsv"
DOC_VECTORS_FILE = "doc_vectors.tsv"
MANIFEST_FILE = "manifest.json"
ARTIFACTS = (CORPUS_FILE, VOCABULARY_FILE, *DDC_VECTORS_FILES,
             DOC_VECTORS_FILE)


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
        invalid = self._invalid()
        if invalid:
            raise ConfigError(invalid[1])

    def _invalid(self) -> tuple[str, str] | None:
        """The first invalid setting, as (key, message), or None."""
        try:
            check_weights(self.weights)
        except ValueError as e:
            w_text_ok = math.isfinite(self.w_text) and self.w_text >= 0
            return ("w_ddc" if w_text_ok else "w_text"), str(e)
        if self.k < 1:
            return "k", "k must be >= 1"
        if self.limit_embeddings is not None and self.limit_embeddings < 1:
            return "limit_embeddings", "limit_embeddings must be >= 1"
        if self.fragmentation_mode not in ddc.MODES:
            return ("fragmentation_mode", "fragmentation_mode must be one "
                    f"of {', '.join(ddc.MODES)}")
        if self.corpus_format not in ("jsonl", "ntriples"):
            return "corpus_format", "corpus_format must be jsonl or ntriples"
        return None

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
    invalid = config._invalid()
    if invalid:
        # Defaults are valid, so the key that fails was set in the file.
        key, message = invalid
        raise ConfigError(f"{path}:{raw[key][0]}: {message}")
    return config


def override_config(config: PipelineConfig, **overrides) -> PipelineConfig:
    """Copy with CLI-flag overrides applied (flags win over the file).

    A path override is resolved against the working directory.
    """
    changed = {k: Path(v).resolve() if k in _PATH_KEYS else v
               for k, v in overrides.items() if v is not None}
    updated = replace(config, **changed)
    updated.validate()
    return updated


def run_ingest(config: PipelineConfig) -> dict:
    """Load, validate, filter, and persist the normalized corpus."""
    corpus = load_corpus(config.corpus_path, format=config.corpus_format,
                         language_filter=config.language)
    config.index_dir.mkdir(parents=True, exist_ok=True)
    _write(config.index_dir / CORPUS_FILE, save_corpus(corpus))
    return {
        "read": len(corpus) + corpus.dropped_count,
        "retained": len(corpus),
        "dropped_language": corpus.dropped_count,
        "language_filter": config.language,
        "corpus_file": str(config.index_dir / CORPUS_FILE),
    }


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path: Path, chunks) -> str:
    """Write the byte ``chunks`` to ``path`` whole or not at all, through a
    temporary name in the same directory; return their ``_digest``."""
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    digest = hashlib.sha256()
    try:
        with open(temp, "wb") as f:
            for chunk in chunks:
                digest.update(chunk)
                f.write(chunk)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)  # still there only if the write failed
    return digest.hexdigest()


def run_index(config: PipelineConfig) -> dict:
    """Build and write all index artifacts, then the manifest that vouches
    for them; reruns are byte-identical.  The corpus is read once: the
    manifest vouches for the bytes the build parsed."""
    corpus_file = config.index_dir / CORPUS_FILE
    try:
        corpus_data = corpus_file.read_bytes()
    except FileNotFoundError:
        raise LodrecError(f"normalized corpus not found at {corpus_file}; "
                          "run ingest first") from None
    corpus = load_corpus(corpus_file, language_filter=config.language,
                         data=corpus_data)
    snapshot = load_snapshot(config.snapshot_path)
    enriched = enrich(corpus, snapshot)
    fragments, code_ptr, code_dims, code_weights = fragment_rows(
        enriched, config.fragmentation_mode)

    stopwords = (load_stoplist(config.stoplist_path)
                 if config.stoplist_path else None)
    # Each video's tokens, held through the table load as references to
    # one string per distinct token.
    used: dict[str, str] = {}
    tokens = [[used.setdefault(tok, tok) for tok in video_tokens(r, stopwords)]
              for r in corpus.records]
    table = load_embeddings(config.embeddings_path,
                            limit=config.limit_embeddings, keep=set(used))
    try:
        check_text_dim(table.dim)
    except ValueError as e:
        raise LodrecError(f"{config.embeddings_path}: {e}") from None
    tokens_used, tokens_missed, text = doc_vectors(tokens, table)

    out = config.index_dir
    digests = {CORPUS_FILE: _digest(corpus_data)}
    for name, chunks in [(VOCABULARY_FILE, [save_vocabulary(fragments)]),
                         *save_ddc_vectors(code_ptr, code_dims, code_weights),
                         (DOC_VECTORS_FILE, save_doc_vectors(
                             [r.id for r in corpus.records], tokens_used,
                             tokens_missed, text))]:
        digests[name] = _write(out / name, chunks)
    # Written last: until it is, a rebuild's files do not match the old
    # manifest, so a build that stops halfway cannot be loaded.
    manifest = json.dumps(digests, indent=2) + "\n"
    fingerprint = _write(out / MANIFEST_FILE, [manifest.encode()])

    resolved = sum(len(v.resolved) for v in enriched)
    unresolved = sum(v.unresolved_count for v in enriched)
    return {
        "videos": len(corpus),
        "vocabulary_size": len(fragments),
        "fingerprint": fingerprint[:16],
        "resolved_tags": resolved,
        "unresolved_tags": unresolved,
        "videos_without_codes": int((code_ptr[1:] == code_ptr[:-1]).sum()),
        "degenerate_doc_vectors": int((tokens_used == 0).sum()),
        "embedding_dim": table.dim,
        "embedding_rows_read": table.rows_read,
        "index_dir": str(config.index_dir),
    }


def _read_vouched(index_dir: Path) -> dict[str, bytes]:
    """Each artifact's bytes, read once and checked against the manifest."""
    path = index_dir / MANIFEST_FILE
    if not path.exists():
        raise LodrecError(f"{path}: index manifest not found; run index")
    try:
        digests = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(digests, dict):
            raise ValueError("not a JSON object")
    except ValueError as e:  # also bad UTF-8 and bad JSON
        raise LodrecError(f"{path}: unreadable index manifest ({e}); the "
                          "build did not finish, run index again") from None
    wrong = [f"no digest of {n}" for n in ARTIFACTS if n not in digests] + [
        f"unknown file {n}" for n in digests if n not in ARTIFACTS]
    if wrong:
        raise LodrecError(f"{path}: {', '.join(wrong)}; run index again")
    data = {}
    for name in ARTIFACTS:
        artifact = index_dir / name
        try:
            data[name] = artifact.read_bytes()
        except FileNotFoundError:
            raise LodrecError(f"{artifact}: index artifact missing; "
                              "run index again") from None
        if _digest(data[name]) != digests[name]:
            why = ("ingest ran again after the last index"
                   if name == CORPUS_FILE else "the file changed after the "
                   "build, or the build did not finish")
            raise LodrecError(f"{artifact}: differs from its digest in "
                              f"{MANIFEST_FILE}: {why}; run index again")
    return data


def load_index(config: PipelineConfig) -> CorpusIndex:
    """Load the index that ``run_index`` wrote, from the bytes its manifest
    vouches for; the ids come, in order, from the doc vectors, and the
    fragment rows must be as many."""
    data = _read_vouched(config.index_dir)
    ids, tokens_used, text = load_doc_vectors(
        config.index_dir / DOC_VECTORS_FILE, data[DOC_VECTORS_FILE])
    code_ptr, code_dims, code_weights = load_ddc_vectors(
        config.index_dir, data, len(ids), data[VOCABULARY_FILE].count(b"\n"))
    return CorpusIndex(ids, text, tokens_used, code_ptr, code_dims,
                       code_weights, weights=config.weights)


__all__ = [
    "ARTIFACTS", "CORPUS_FILE", "DOC_VECTORS_FILE",
    "MANIFEST_FILE", "VOCABULARY_FILE",
    "ConfigError", "PipelineConfig",
    "load_config", "load_index", "override_config", "run_index", "run_ingest",
]
