"""Spans and counts around lodrec's public functions, from outside lodrec.

``Tracer.install`` replaces each traced function at the module attribute
where its caller looks it up (``lodrec.pipeline.vectorize`` is what
``run_index`` calls) with a wrapper that records a span: name, start, end,
parent span, thread.  ``uninstall`` puts the originals back.  Spans and
counts are kept per thread, so no update is lost when two threads record
at once, and are written out at the end.

A span opened in a worker thread with no open span of its own takes as
parent the innermost span open on the thread that installed the tracer:
``similarity_matrix`` scores rows on a thread pool.  Self time is a span's
duration minus the union of its children's intervals, so children that
overlap on two threads are not subtracted twice.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter


def _count_enrich(counts, args, result):
    counts["authority.tags_resolved"] += sum(len(v.resolved) for v in result)
    counts["authority.tags_unresolved"] += sum(v.unresolved_count
                                               for v in result)


def _count_embed(counts, args, result):
    counts["embeddings.tokens_used"] += result.tokens_used
    counts["embeddings.tokens_missed"] += result.tokens_missed


def _count_pair(counts, args, result):
    counts["engine.fallback_pairs"] += bool(result.fallback_applied)
    counts["engine.undefined_pairs"] += result.s_lod is None


def _count_table(counts, args, result):
    counts["embeddings.rows_parsed"] += len(result) + result.duplicates_skipped


# (module, attribute, span name, counter of calls, hook on the result)
HOOKS = [
    ("lodrec.cli", "main", "cli.main", None, None),
    ("lodrec.cli", "run_ingest", "pipeline.run_ingest", None, None),
    ("lodrec.cli", "run_index", "pipeline.run_index", None, None),
    ("lodrec.cli", "load_index", "pipeline.load_index", None, None),
    ("lodrec.pipeline", "load_index", "pipeline.load_index", None, None),
    ("lodrec.pipeline", "load_corpus", "corpus.load_corpus", None,
     lambda c, a, r: c.update({"corpus.records": len(r)})),
    ("lodrec.pipeline", "save_corpus", "corpus.save_corpus", None, None),
    ("lodrec.ntriples", "read_ntriples", "ntriples.read", None, None),
    ("lodrec.pipeline", "load_snapshot", "authority.load_snapshot", None, None),
    ("lodrec.pipeline", "enrich", "authority.enrich", None, _count_enrich),
    ("lodrec.ddc_vectors", "fragment_code", "ddc.fragment_code",
     "ddc.fragment_code_calls", None),
    ("lodrec.pipeline", "build_vocabulary", "ddc_vectors.build_vocabulary",
     None, lambda c, a, r: c.update({"ddc_vectors.vocabulary_size": len(r)})),
    ("lodrec.pipeline", "vectorize", "ddc_vectors.vectorize", None, None),
    ("lodrec.ddc_vectors.FragmentVocabulary", "fingerprint",
     "ddc_vectors.fingerprint", "ddc_vectors.fingerprint_calls", None),
    ("lodrec.pipeline", "save_vocabulary", "ddc_vectors.save", None, None),
    ("lodrec.pipeline", "save_ddc_vectors", "ddc_vectors.save", None, None),
    ("lodrec.pipeline", "load_vocabulary_fingerprint", "ddc_vectors.load",
     None, None),
    ("lodrec.pipeline", "load_ddc_vectors", "ddc_vectors.load", None, None),
    ("lodrec.engine", "ddc_similarity", "ddc_vectors.similarity",
     "ddc_vectors.similarity_calls", None),
    ("lodrec.pipeline", "load_embeddings", "embeddings.load_embeddings", None,
     _count_table),
    ("lodrec.pipeline", "embed_video", "embeddings.embed_video", None,
     _count_embed),
    ("lodrec.pipeline", "save_doc_vectors", "embeddings.save_doc_vectors",
     None, None),
    ("lodrec.pipeline", "load_doc_vectors", "embeddings.load_doc_vectors",
     None, None),
    ("lodrec.engine", "text_similarity", "embeddings.text_similarity",
     "embeddings.text_similarity_calls", None),
    ("lodrec.engine", "recommend", "engine.recommend", None, None),
    ("lodrec.engine", "combined_similarity", "engine.combined_similarity",
     "engine.pairs_scored", _count_pair),
    ("lodrec.cli", "similarity_matrix", "engine.similarity_matrix", None, None),
    ("lodrec.cli", "matrix_to_tsv", "engine.matrix_to_tsv", None, None),
]

# Per-layer time metrics: the summed self time of these spans.
SELF_TIMES = {
    "cli.self_s": ["cli.main"],
    "pipeline.run_ingest_s": ["pipeline.run_ingest"],
    "pipeline.run_index_s": ["pipeline.run_index"],
    "pipeline.load_index_s": ["pipeline.load_index"],
    "corpus.load_corpus_s": ["corpus.load_corpus"],
    "corpus.save_corpus_s": ["corpus.save_corpus"],
    "ntriples.read_s": ["ntriples.read"],
    "authority.load_snapshot_s": ["authority.load_snapshot"],
    "authority.enrich_s": ["authority.enrich"],
    "ddc.fragment_code_s": ["ddc.fragment_code"],
    "ddc_vectors.vectorize_s": ["ddc_vectors.vectorize",
                                "ddc_vectors.fingerprint"],
    "ddc_vectors.build_vocabulary_s": ["ddc_vectors.build_vocabulary"],
    "ddc_vectors.save_s": ["ddc_vectors.save"],
    "ddc_vectors.load_s": ["ddc_vectors.load"],
    "ddc_vectors.similarity_s": ["ddc_vectors.similarity"],
    "embeddings.load_embeddings_s": ["embeddings.load_embeddings"],
    "embeddings.embed_video_s": ["embeddings.embed_video"],
    "embeddings.save_doc_vectors_s": ["embeddings.save_doc_vectors"],
    "embeddings.load_doc_vectors_s": ["embeddings.load_doc_vectors"],
    "embeddings.text_similarity_s": ["embeddings.text_similarity"],
    # Pair scoring counts towards the entry point that asked for it.
    "engine.recommend_s": ["engine.recommend",
                           "engine.combined_similarity<engine.recommend"],
    "engine.similarity_matrix_s": [
        "engine.similarity_matrix",
        "engine.combined_similarity<engine.similarity_matrix"],
    "engine.matrix_to_tsv_s": ["engine.matrix_to_tsv"],
}

COUNTS = [
    "corpus.records", "authority.tags_resolved", "authority.tags_unresolved",
    "ddc.fragment_code_calls", "ddc_vectors.fingerprint_calls",
    "ddc_vectors.vocabulary_size", "ddc_vectors.similarity_calls",
    "embeddings.rows_parsed", "embeddings.rows_used", "embeddings.tokens_used",
    "embeddings.tokens_missed", "embeddings.text_similarity_calls",
    "engine.pairs_scored", "engine.fallback_pairs", "engine.undefined_pairs",
]


class _Buffer:
    """One thread's finished spans, as parallel arrays."""

    def __init__(self):
        self.ident = threading.get_ident()
        self.span = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self.origin = perf_counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._main = self._buffer()
        self._installed: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, original, name: str, counter, hook):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        main = self._main

        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            parent = stack[-1] if stack else (main.stack[-1] if main.stack
                                              else -1)
            span = next(self._ids)
            stack.append(span)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buf.span.append(span)
                buf.name.append(name_id)
                buf.start.append(start)
                buf.end.append(end)
                buf.parent.append(parent)
            if counter:
                buf.counts[counter] += 1
            if hook:
                hook(buf.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counter, hook in HOOKS:
            owner = _resolve(module)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter, hook))
        if self.missing:
            print("trace: not found, not traced: " + ", ".join(self.missing),
                  file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def spans(self) -> dict[str, list]:
        """Every span, columnar: ``name`` and ``thread`` index ``names`` and
        ``threads``; times are microseconds since the tracer began."""
        cols = {"names": self.names, "threads": [], "span": [], "name": [],
                "start_us": [], "end_us": [], "parent": [], "thread": []}
        for t, buf in enumerate(self._buffers):
            cols["threads"].append(buf.ident)
            cols["span"] += buf.span.tolist()
            cols["name"] += buf.name.tolist()
            cols["start_us"] += [round((x - self.origin) * 1e6)
                                 for x in buf.start]
            cols["end_us"] += [round((x - self.origin) * 1e6) for x in buf.end]
            cols["parent"] += buf.parent.tolist()
            cols["thread"] += [t] * len(buf.span)
        return cols

    def counts(self) -> Counter:
        total: Counter = Counter()
        for buf in self._buffers:
            total.update(buf.counts)
        return total

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, and per ``name<parent name``."""
        children = defaultdict(list)
        duration, name_of, parent_of = {}, {}, {}
        for buf in self._buffers:
            for span, name, start, end, parent in zip(
                    buf.span, buf.name, buf.start, buf.end, buf.parent):
                duration[span] = end - start
                name_of[span] = self.names[name]
                parent_of[span] = parent
                if parent >= 0:
                    children[parent].append((start, end))
        totals: Counter = Counter()
        for span, d in duration.items():
            covered, reach = 0.0, -1.0
            for start, end in sorted(children.get(span, ())):
                if end > reach:
                    covered += end - max(start, reach)
                    reach = end
            name = name_of[span]
            totals[name] += d - covered
            if parent_of[span] in name_of:
                totals[f"{name}<{name_of[parent_of[span]]}"] += d - covered
        return dict(totals)

    def metrics(self, stdout_bytes: int, rows_used: int) -> dict[str, dict]:
        """Per-layer metrics; ``rows_used`` is the table rows the corpus uses."""
        own, counts = self.self_times(), self.counts()
        counts["embeddings.rows_used"] = rows_used
        out = {"cli.stdout_mb": {"value": stdout_bytes / 2**20, "unit": "MiB"}}
        for metric, names in SELF_TIMES.items():
            out[metric] = {"value": sum(own.get(n, 0.0) for n in names),
                           "unit": "s"}
        for metric in COUNTS:
            out[metric] = {"value": int(counts[metric]), "unit": "count"}
        return out

    def write(self, path, extra: dict) -> int:
        """Write ``extra`` and every span as gzipped JSON; return the count."""
        spans = self.spans()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            json.dump({**extra, "spans": spans}, f)
        return len(spans["span"])


def _resolve(dotted: str):
    """The module, or the class inside a module, named by ``dotted``."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, cls = dotted.rpartition(".")
        return getattr(importlib.import_module(module), cls, None)
