"""Tag resolution against an offline authority-file snapshot.

The snapshot is a TSV dump prepared ahead of time, one row per surface
form:

    surface<TAB>gnd_id<TAB>code1;code2;...

``#``-prefixed comment lines are allowed.  The codes column may be empty
(a term can be in the authority file without classification codes).
Snapshots must be pre-disambiguated: exactly one row per normalized
surface form.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, VideoRecord
from .ddc import DdcCode, parse_code
from .errors import ParseError


def normalize_surface(surface: str) -> str:
    """Lookup normalization: NFC, case-fold, trim, collapse whitespace."""
    folded = unicodedata.normalize("NFC", surface).casefold().strip()
    return " ".join(folded.split())


@dataclass(frozen=True)
class AuthorityEntry:
    gnd_id: str
    ddc_codes: tuple[DdcCode, ...]


@dataclass
class AuthoritySnapshot:
    """Map from normalized surface form to its authority entry."""

    entries: dict[str, AuthorityEntry]

    def lookup(self, surface: str) -> AuthorityEntry | None:
        return self.entries.get(normalize_surface(surface))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ResolvedTag:
    tag_index: int
    gnd_id: str
    ddc_codes: tuple[DdcCode, ...]


@dataclass
class EnrichedVideo:
    video: VideoRecord
    resolved: list[ResolvedTag]
    unresolved_count: int


def load_snapshot(path) -> AuthoritySnapshot:
    path = Path(path)
    entries: dict[str, AuthorityEntry] = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            stripped = line.rstrip("\n")
            if not stripped.strip() or stripped.lstrip().startswith("#"):
                continue
            parts = stripped.split("\t")
            if len(parts) not in (2, 3):
                raise ParseError(
                    path, line_no,
                    f"expected surface<TAB>gnd_id<TAB>codes, got {len(parts)} fields",
                )
            surface, gnd_id = parts[0], parts[1]
            codes_field = parts[2] if len(parts) == 3 else ""
            key = normalize_surface(surface)
            if not key:
                raise ParseError(path, line_no, "empty surface form")
            if key in entries:
                raise ParseError(
                    path, line_no,
                    f"duplicate normalized surface form {key!r}",
                )
            codes = []
            for code_str in codes_field.split(";"):
                code_str = code_str.strip()
                if not code_str:
                    continue
                try:
                    codes.append(parse_code(code_str))
                except ValueError as e:
                    raise ParseError(path, line_no, str(e)) from e
            entries[key] = AuthorityEntry(gnd_id=gnd_id,
                                          ddc_codes=tuple(codes))
    return AuthoritySnapshot(entries=entries)


def enrich_video(video: VideoRecord,
                 snapshot: AuthoritySnapshot) -> EnrichedVideo:
    resolved = []
    for i, tag in enumerate(video.tags):
        entry = snapshot.lookup(tag.surface)
        if entry is not None:
            resolved.append(ResolvedTag(tag_index=i, gnd_id=entry.gnd_id,
                                        ddc_codes=entry.ddc_codes))
    return EnrichedVideo(
        video=video,
        resolved=resolved,
        unresolved_count=len(video.tags) - len(resolved),
    )


def enrich(corpus: Corpus, snapshot: AuthoritySnapshot) -> list[EnrichedVideo]:
    """Resolve every tag of every record.

    Lookup misses are counted per video, never dropped from the record:
    a miss is data (the term has no authority link), not an error.
    """
    return [enrich_video(v, snapshot) for v in corpus.records]


__all__ = [
    "AuthorityEntry", "AuthoritySnapshot", "EnrichedVideo", "ResolvedTag",
    "enrich", "enrich_video", "load_snapshot", "normalize_surface",
]
