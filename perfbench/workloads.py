"""Seeded synthetic inputs for the lodrec benchmark, with their ground truth.

``generate(name, seed, out_dir)`` writes one workload's inputs (corpus,
authority snapshot, embedding table, stoplist, config) and returns a
``Truth``: what the generator planted, in the form the oracle needs.  The
same seed gives byte-identical files and the same truth.

The truth is stated in the input formats' own terms, never by calling
lodrec: each video's text is composed from known word tokens (lowercase
ASCII, two letters or more), digits-only words and punctuation that a
tokenizer drops, and tags chosen either from the snapshot or from phrases
known to be absent from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
STOPWORDS = ("der", "die", "das", "und", "mit", "the", "of", "and", "for")
DIGIT_WORDS = ("2016", "2017", "2018", "19", "3")  # never tokens
VALUE_SCALE = 10000  # table values are written with four decimals


@dataclass(frozen=True)
class Spec:
    """The make-up of one workload's inputs."""

    videos: int
    corpus_format: str          # "ntriples" or "jsonl"
    topics: int
    words_per_topic: int
    tags_per_topic: int         # snapshot entries per topic
    extra_snapshot_entries: int  # entries the corpus never uses
    filler_rows: int            # table rows no corpus token uses
    dim: int
    resolve_share: float        # share of tags that resolve
    max_decimals: int           # code depth after the 3-digit class
    codes_per_entry: tuple[int, int]
    tags_per_video: tuple[int, int]
    oov_share: float            # share of text words missing from the table
    no_text_share: float        # videos with codes but no known token
    no_code_share: float        # videos with known tokens but no code
    neither_share: float        # videos with no known token and no code
    dup_groups: int             # groups of 3 identical re-uploads
    provenance: tuple[float, float, float, float]  # manual, transcript, ocr, visual
    query_skew: float           # 0 = uniform without repeats, else Zipf exponent


WORKLOADS = {
    "rdf_catalog": Spec(
        videos=400, corpus_format="ntriples", topics=40, words_per_topic=50,
        tags_per_topic=75, extra_snapshot_entries=0, filler_rows=28000,
        dim=300, resolve_share=0.9, max_decimals=4, codes_per_entry=(1, 3),
        tags_per_video=(2, 6), oov_share=0.04, no_text_share=0.01,
        no_code_share=0.02, neither_share=0.0,
        dup_groups=4, provenance=(0.6, 0.3, 0.05, 0.05), query_skew=0.0),
    "auto_tags": Spec(
        videos=500, corpus_format="jsonl", topics=30, words_per_topic=40,
        tags_per_topic=40, extra_snapshot_entries=300, filler_rows=0,
        dim=300, resolve_share=0.3, max_decimals=1, codes_per_entry=(1, 1),
        tags_per_video=(3, 8), oov_share=0.2, no_text_share=0.01,
        no_code_share=0.0, neither_share=0.03,
        dup_groups=6, provenance=(0.05, 0.15, 0.4, 0.4), query_skew=0.8),
}

# Tiny variants for the benchmark's own tests: same shape, seconds to run.
TINY = {
    name: replace(spec, videos=40, topics=6, words_per_topic=12,
                  tags_per_topic=10, extra_snapshot_entries=5,
                  filler_rows=min(spec.filler_rows, 200), dim=16, dup_groups=2)
    for name, spec in WORKLOADS.items()
}

PROVENANCES = ("manual", "transcript", "ocr", "visual")
TAG_PREDICATE = {p: f"http://example.org/scivideo#{p}Tag" for p in PROVENANCES}
DCT = "http://purl.org/dc/terms/"


@dataclass
class Video:
    id: str
    title: str
    abstract: str
    tags: list[tuple[str, str]]          # (surface as written, provenance)
    tokens: list[str]                    # every token, stopwords included
    codes: list[str]                     # resolved codes, with multiplicity
    resolved: int
    unresolved: int


@dataclass
class Truth:
    """Ground truth of one generated workload."""

    videos: list[Video]                  # corpus order
    vectors: dict[str, np.ndarray]       # table rows of corpus tokens
    stopwords: frozenset[str]
    dim: int
    queries: np.ndarray = field(repr=False)  # stream of query positions


SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]


def _words(rng, n: int, taken: set[str]) -> list[str]:
    """``n`` new pronounceable lowercase words, none in ``taken``."""
    out: list[str] = []
    while len(out) < n:
        batch = n - len(out)
        lengths = rng.integers(2, 5, size=batch)
        syllables = rng.integers(len(SYLLABLES), size=(batch, 4))
        tails = rng.integers(2 * len(CONSONANTS), size=batch)
        for k, row, tail in zip(lengths, syllables, tails):
            w = "".join([SYLLABLES[i] for i in row[:k]])
            if tail < len(CONSONANTS):
                w += CONSONANTS[tail]
            if w not in taken:
                taken.add(w)
                out.append(w)
    return out


def _code(rng, main_class: int, max_decimals: int) -> str:
    raw = f"{main_class:03d}"
    decimals = rng.integers(0, max_decimals + 1)
    if decimals:
        raw += "." + "".join(str(rng.integers(10)) for _ in range(decimals))
    return raw


def _pick(rng, seq):
    return seq[rng.integers(len(seq))]


def _surface_variant(rng, phrase: str) -> str:
    """The phrase as a tagger might write it: case and spacing vary."""
    r = rng.random()
    if r < 0.3:
        return phrase.title()
    if r < 0.4:
        return phrase.upper()
    if r < 0.5:
        return phrase.replace(" ", "  ")
    return phrase


def generate(name: str, seed: int, out_dir, spec: Spec | None = None) -> Truth:
    """Write the inputs of workload ``name`` for ``seed`` into ``out_dir``."""
    spec = spec or WORKLOADS[name]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    taken = set(STOPWORDS)
    topic_words = [_words(rng, spec.words_per_topic, taken)
                   for _ in range(spec.topics)]
    general = _words(rng, 60, taken)
    oov_pool = _words(rng, 400, taken)            # OCR noise, never in the table
    main_classes = rng.choice(1000, size=spec.topics, replace=False)
    # Four classes below 100 so that zero-stripping changes their fragments.
    main_classes[:4] = rng.choice(100, size=4, replace=False)

    # Snapshot: per topic, phrases over the topic's words, each with codes.
    snapshot: dict[str, tuple[str, list[str]]] = {}
    topic_tags: list[list[str]] = []

    def add_entry(phrase: str, topic: int) -> None:
        n_codes = rng.integers(spec.codes_per_entry[0],
                               spec.codes_per_entry[1] + 1)
        if rng.random() < 0.05:
            n_codes = 0  # known to the authority file, but unclassified
        cls = int(main_classes[topic])
        codes = [_code(rng, cls if rng.random() < 0.8
                       else int(_pick(rng, main_classes)), spec.max_decimals)
                 for _ in range(n_codes)]
        snapshot[phrase] = (f"gnd:{rng.integers(10**6, 10**7)}-{rng.integers(10)}",
                            codes)

    for t in range(spec.topics):
        tags = []
        while len(tags) < spec.tags_per_topic:
            words = [_pick(rng, topic_words[t])
                     for _ in range(rng.integers(1, 3))]
            phrase = " ".join(words)
            if phrase not in snapshot:
                add_entry(phrase, t)
                tags.append(phrase)
        topic_tags.append(tags)
    # Names (people, places) are in the authority file but not in the table.
    name_tags = [[str(w) for w in row] for row in
                 rng.choice(oov_pool, size=(spec.topics, 3), replace=False)]
    for t, names in enumerate(name_tags):
        for w in names:
            add_entry(w, t)
    for _ in range(spec.extra_snapshot_entries):
        t = rng.integers(spec.topics)
        phrase = " ".join(_pick(rng, topic_words[t]) for _ in range(3))
        if phrase not in snapshot:
            add_entry(phrase, t)

    kinds = ([(False, False)] * math.ceil(spec.videos * spec.neither_share)
             + [(False, True)] * math.ceil(spec.videos * spec.no_text_share)
             + [(True, False)] * math.ceil(spec.videos * spec.no_code_share))
    n_unique = spec.videos - 2 * spec.dup_groups
    topic_weight = 1.0 / np.arange(1, spec.topics + 1) ** 0.7
    topic_weight /= topic_weight.sum()

    def compose(text: bool, coded: bool) -> tuple:
        """One video; ``text``/``coded`` False means no known token/code."""
        t1 = rng.choice(spec.topics, p=topic_weight)
        topics = [t1] + ([rng.integers(spec.topics)]
                         if rng.random() < 0.3 else [])
        pools = [topic_words[t] for t in topics]

        def word() -> str:
            if not text or rng.random() < spec.oov_share:
                return _pick(rng, oov_pool)
            r = rng.random()
            if r < 0.7:
                return _pick(rng, pools[rng.integers(len(pools))])
            if r < 0.85:
                return _pick(rng, general)
            return _pick(rng, STOPWORDS)

        title_words = [word() for _ in range(rng.integers(3, 7))]
        title = " ".join(w.capitalize() for w in title_words)
        abstract_parts, tokens = [], list(title_words)
        for _ in range(rng.integers(20, 45)):
            r = rng.random()
            if r < 0.04:
                abstract_parts.append(_pick(rng, DIGIT_WORDS))
            elif r < 0.07:
                a, b = word(), word()
                abstract_parts.append(f"{a}-{b}")
                tokens += [a, b]
            else:
                w = word()
                abstract_parts.append(w)
                tokens.append(w)
            if rng.random() < 0.05:
                abstract_parts[-1] += ","
        if rng.random() < 0.3:
            w = word()
            abstract_parts.append(f"„{w}“ – \"{w}\".")
            tokens += [w, w]
        abstract = " ".join(abstract_parts)

        tags, codes, resolved, unresolved = [], [], 0, 0
        for n in range(rng.integers(spec.tags_per_video[0],
                                    spec.tags_per_video[1] + 1)):
            prov = PROVENANCES[rng.choice(4, p=spec.provenance)]
            if coded and (rng.random() < spec.resolve_share
                          or (not text and n == 0)):
                phrase = _pick(rng, (topic_tags if text else name_tags)[
                    _pick(rng, topics)])
                resolved += 1
                codes += snapshot[phrase][1]
            else:
                while True:
                    phrase = " ".join(word() for _ in range(rng.integers(1, 3)))
                    if phrase not in snapshot:
                        break
                unresolved += 1
            tags.append((_surface_variant(rng, phrase), prov))
            tokens += phrase.split()
        return title, abstract, tags, tokens, codes, resolved, unresolved

    kinds += [(True, True)] * (n_unique - len(kinds))
    bodies = [compose(text, coded) for text, coded in kinds]
    for g in range(spec.dup_groups):  # two re-uploads of one video each
        bodies += [bodies[-1 - g]] * 2
    order = rng.permutation(len(bodies))
    ids = [f"v{i:05d}" for i in rng.choice(10 * spec.videos,
                                          size=spec.videos, replace=False)]
    if spec.corpus_format == "ntriples":
        ids = [f"http://av.example.org/video/{i}" for i in ids]
    videos = []
    for pos, b in enumerate(order):
        title, abstract, tags, tokens, codes, resolved, unresolved = bodies[b]
        videos.append(Video(ids[pos], title, abstract, tags, tokens, codes,
                            resolved, unresolved))

    # Embedding table: corpus words except the OOV pool, plus filler rows.
    corpus_words = sorted({w for ws in topic_words for w in ws}
                          | set(general) | set(STOPWORDS))
    filler = _words(rng, spec.filler_rows, taken)
    centers = rng.normal(size=(spec.topics + 1, spec.dim))
    home = {w: t for t, ws in enumerate(topic_words) for w in ws}
    rows = corpus_words + filler
    row_order = rng.permutation(len(rows))
    known = set(corpus_words)
    vectors: dict[str, np.ndarray] = {}
    with open(out_dir / "embeddings.txt", "wb") as f:
        f.write(f"{len(rows)} {spec.dim}\n".encode())
        for start in range(0, len(rows), 4096):
            chunk = [rows[i] for i in row_order[start:start + 4096]]
            ints = rng.integers(-VALUE_SCALE // 2, VALUE_SCALE // 2,
                                size=(len(chunk), spec.dim))
            for r, w in enumerate(chunk):
                if w in known:  # topic words lean towards their topic
                    raw = (0.5 * centers[home.get(w, spec.topics)]
                           + rng.normal(size=spec.dim))
                    ints[r] = np.clip(np.rint(raw * VALUE_SCALE / 4),
                                      -(VALUE_SCALE - 1), VALUE_SCALE - 1)
                    vectors[w] = ints[r] / VALUE_SCALE
            f.write(_format_rows(chunk, ints))

    stopwords = frozenset(STOPWORDS[:5])
    (out_dir / "stoplist.txt").write_text(
        "# function words left out of document vectors\n"
        + "".join(w + "\n" for w in sorted(stopwords)), encoding="utf-8")
    with open(out_dir / "authority.tsv", "w", encoding="utf-8") as f:
        f.write("# surface<TAB>gnd_id<TAB>codes\n")
        for phrase in sorted(snapshot):
            gnd, codes = snapshot[phrase]
            f.write(f"{phrase}\t{gnd}\t{';'.join(codes)}\n")
    corpus_file = _write_corpus(videos, spec.corpus_format, out_dir, rng)
    (out_dir / "config.txt").write_text(
        f"corpus_path = {corpus_file}\n"
        f"corpus_format = {spec.corpus_format}\n"
        "snapshot_path = authority.tsv\n"
        "embeddings_path = embeddings.txt\n"
        "stoplist_path = stoplist.txt\n"
        "index_dir = index\n", encoding="utf-8")

    return Truth(videos=videos, vectors=vectors, stopwords=stopwords,
                 dim=spec.dim, queries=_query_stream(rng, spec))


def _cell_table() -> np.ndarray:
    """Eight-byte text cell (`` -0.1234`` or ``  0.1234``) per table value."""
    values = np.arange(-(VALUE_SCALE - 1), VALUE_SCALE)
    cells = np.empty((len(values), 8), dtype=np.uint8)
    cells[:, 0] = ord(" ")
    cells[:, 1] = np.where(values < 0, ord("-"), ord(" "))
    cells[:, 2] = ord("0")
    cells[:, 3] = ord(".")
    for k in range(4):
        cells[:, 7 - k] = ord("0") + (np.abs(values) // 10 ** k) % 10
    return cells.view(np.uint64).ravel()


CELLS = _cell_table()


def _format_rows(tokens: list[str], ints: np.ndarray) -> bytes:
    """``token v1 ... v_dim`` lines with four-decimal values."""
    body = CELLS[ints + (VALUE_SCALE - 1)]
    return b"".join(t.encode() + row.tobytes() + b"\n"
                    for t, row in zip(tokens, body))


def _nt_literal(s: str) -> str:
    out = []
    for c in s:
        if c in '"\\':
            out.append("\\" + c)
        elif ord(c) > 126:
            out.append(f"\\u{ord(c):04X}")
        else:
            out.append(c)
    return '"' + "".join(out) + '"'


def _write_corpus(videos: list[Video], fmt: str, out_dir: Path, rng) -> str:
    if fmt == "jsonl":
        with open(out_dir / "corpus.jsonl", "w", encoding="utf-8") as f:
            for v in videos:
                f.write(json.dumps({
                    "id": v.id, "language": "de", "title": v.title,
                    "abstract": v.abstract,
                    "tags": [{"surface": s, "provenance": p}
                             for s, p in v.tags]}, ensure_ascii=False) + "\n")
        return "corpus.jsonl"
    with open(out_dir / "corpus.nt", "w", encoding="utf-8") as f:
        f.write("# Video catalogue export (N-Triples)\n")
        for v in videos:
            s = f"<{v.id}>"
            f.write(f"{s} <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
                    "<http://example.org/scivideo#Video> .\n")
            f.write(f"{s} <{DCT}title> {_nt_literal(v.title)}@de .\n")
            f.write(f'{s} <{DCT}language> "de" .\n')
            f.write(f"{s} <{DCT}creator> "
                    f"{_nt_literal('Medienzentrum ' + str(rng.integers(9)))} .\n")
            f.write(f"{s} <{DCT}abstract> {_nt_literal(v.abstract)} .\n")
            for surface, prov in v.tags:
                f.write(f"{s} <{TAG_PREDICATE[prov]}> {_nt_literal(surface)} .\n")
            f.write("\n")
    return "corpus.nt"


def _query_stream(rng, spec: Spec) -> np.ndarray:
    """Query positions in corpus order, long enough for any run.

    Uniform streams walk a fresh permutation per pass, so no query repeats
    before every video was asked once; skewed streams draw from a Zipf law
    over a random popularity order, so popular videos repeat.
    """
    n, length = spec.videos, 20000
    if spec.query_skew == 0:
        passes = -(-length // n)
        return np.concatenate([rng.permutation(n) for _ in range(passes)])[:length]
    weight = 1.0 / np.arange(1, n + 1) ** spec.query_skew
    popular = rng.permutation(n)
    return popular[rng.choice(n, size=length, p=weight / weight.sum())]
