"""Video metadata records and the JSON-lines corpus format.

One record per line, UTF-8:

    {"id": str, "language": str, "title": str, "abstract": str,
     "tags": [{"surface": str, "provenance": str}]}

Tags may additionally carry a ``gnd_id`` string once an authority link
is known.  A field of another type, or an id with a tab, CR or LF in
it, is refused with a ``ParseError`` naming the file and line, as is a
string holding a lone surrogate (the ``\\ud800`` escape), which UTF-8
cannot encode.
JSON-lines is the canonical interchange format; the N-Triples subset
reader in :mod:`lodrec.ntriples` produces the same records.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DuplicateIdError, ParseError

PROVENANCES = ("manual", "transcript", "ocr", "visual")

_LANGUAGE_RE = re.compile(r"[a-z]{2}")
# The index files are lines of tab-separated fields, id first.
_ID_BREAK_RE = re.compile(r"[\t\r\n]")
# JSON's \ud800 escape decodes to a lone surrogate, which UTF-8, the
# encoding of every index file, cannot encode.
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")


@dataclass(frozen=True)
class Tag:
    """One keyword with its origin.

    ``surface`` is trimmed but case-preserved at ingest; case folding
    happens only in tokenization and authority lookup.
    """

    surface: str
    provenance: str
    gnd_id: str | None = None


@dataclass(frozen=True)
class VideoRecord:
    id: str
    language: str
    title: str
    abstract: str
    tags: tuple[Tag, ...]


@dataclass
class Corpus:
    records: list[VideoRecord]
    language_filter: str | None = None
    # Diagnostic only; excluded from equality so save/load round-trips.
    dropped_count: int = field(default=0, compare=False)

    def __len__(self) -> int:
        return len(self.records)


def _build_record(obj: dict, path, line_no: int) -> VideoRecord:
    """Validate one decoded record; raises ParseError on bad fields."""
    for key in ("id", "language", "title", "abstract", "tags"):
        if key not in obj:
            raise ParseError(path, line_no, f"missing field {key!r}")
    vid = obj["id"]
    if not isinstance(vid, str) or not vid:
        raise ParseError(path, line_no, "id must be a non-empty string")
    if _ID_BREAK_RE.search(vid):
        raise ParseError(path, line_no, f"id {vid!r} contains a tab or line "
                         "break, which the index files cannot hold")
    language = obj["language"]
    if not isinstance(language, str) or not _LANGUAGE_RE.fullmatch(language):
        raise ParseError(
            path, line_no,
            f"language must be a two-letter lowercase code, got {language!r}",
        )
    for key in ("title", "abstract"):
        if not isinstance(obj[key], str):
            raise ParseError(path, line_no, f"{key} must be a string")
    if not isinstance(obj["tags"], list):
        raise ParseError(path, line_no, "tags must be a list of objects")
    tags = []
    for t in obj["tags"]:
        if not isinstance(t, dict):
            raise ParseError(path, line_no, "tags must be a list of objects")
        surface = t.get("surface", "")
        if not isinstance(surface, str):
            raise ParseError(path, line_no, "tag surface must be a string")
        surface = surface.strip()
        if not surface:
            raise ParseError(path, line_no, "tag surface empty after trimming")
        provenance = t.get("provenance")
        if provenance not in PROVENANCES:
            raise ParseError(
                path, line_no,
                f"unknown provenance value {provenance!r} "
                f"(expected one of {', '.join(PROVENANCES)})",
            )
        gnd_id = t.get("gnd_id")
        if "gnd_id" in t and not isinstance(gnd_id, str):
            raise ParseError(path, line_no, "tag gnd_id must be a string")
        tags.append(Tag(surface=surface, provenance=provenance,
                        gnd_id=gnd_id))
    return VideoRecord(
        id=vid,
        language=language,
        title=obj["title"],
        abstract=obj["abstract"],
        tags=tuple(tags),
    )


def _check_encodable(record: VideoRecord, path, line_no: int) -> None:
    """Refuse a lone surrogate in any string of the record."""
    fields = [("id", record.id), ("language", record.language),
              ("title", record.title), ("abstract", record.abstract)]
    for tag in record.tags:
        fields += [("tag surface", tag.surface),
                   ("tag gnd_id", tag.gnd_id or "")]
    for name, value in fields:
        bad = _SURROGATE_RE.search(value)
        if bad is not None:
            raise ParseError(path, line_no, f"{name} holds the lone "
                             f"surrogate U+{ord(bad.group()):04X}, which "
                             "UTF-8 cannot encode")


def _read_jsonl(path, data: bytes) -> list[VideoRecord]:
    records = []
    first_line: dict[str, int] = {}  # video id -> line of its record
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(path, line_no, f"invalid JSON: {e.msg}") from e
            if not isinstance(obj, dict):
                raise ParseError(path, line_no, "record must be a JSON object")
            record = _build_record(obj, path, line_no)
            if "\\u" in line:  # only an escape decodes to a surrogate
                _check_encodable(record, path, line_no)
            if record.id in first_line:
                raise DuplicateIdError(
                    f"{path}:{line_no}: duplicate video id: {record.id!r} "
                    f"(first on line {first_line[record.id]})")
            first_line[record.id] = line_no
            records.append(record)
    return records


def load_corpus(path, format: str = "jsonl",
                language_filter: str | None = None, *,
                data: bytes | None = None) -> Corpus:
    """Load and validate a corpus file; for JSONL, ``data`` may give the
    bytes the caller read of it.

    Records whose language differs from ``language_filter`` are dropped
    (count kept on the returned Corpus).  Duplicate ids are a hard error:
    silent overwrite would corrupt the similarity indices downstream.
    The JSONL reader refuses them with the line; an N-Triples subject is
    one record, so its ids are unique by construction.
    """
    path = Path(path)
    if format == "jsonl":
        records = _read_jsonl(path, path.read_bytes() if data is None
                              else data)
    elif format == "ntriples":
        from .ntriples import read_ntriples
        records = read_ntriples(path)
    else:
        raise ValueError(f"unknown corpus format: {format!r}")

    dropped = 0
    if language_filter is not None:
        kept = [r for r in records if r.language == language_filter]
        dropped = len(records) - len(kept)
        records = kept
    return Corpus(records=records, language_filter=language_filter,
                  dropped_count=dropped)


def _tag_to_obj(tag: Tag) -> dict:
    obj = {"surface": tag.surface, "provenance": tag.provenance}
    if tag.gnd_id is not None:
        obj["gnd_id"] = tag.gnd_id
    return obj


def record_to_obj(record: VideoRecord) -> dict:
    return {
        "id": record.id,
        "language": record.language,
        "title": record.title,
        "abstract": record.abstract,
        "tags": [_tag_to_obj(t) for t in record.tags],
    }


def save_corpus(corpus: Corpus):
    """Yield the corpus as JSON-lines in record order, one UTF-8 line at a
    time."""
    for record in corpus.records:
        line = json.dumps(record_to_obj(record), ensure_ascii=False)
        yield (line + "\n").encode()


__all__ = [
    "Corpus", "Tag", "VideoRecord", "PROVENANCES",
    "load_corpus", "save_corpus", "record_to_obj",
]
