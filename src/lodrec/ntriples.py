"""Minimal N-Triples subset reader for video metadata.

Only the handful of predicates that map onto record fields are
interpreted; every other well-formed triple is skipped silently.  The
subject IRI, its ``\\uXXXX`` and ``\\UXXXXXXXX`` escapes decoded, is the
video id, so an IRI written with an escape and one written with its
character name one video.  An IRI holds no whitespace, so an id never
has the tab or line break that the index files cannot hold: a line with
one in its subject is not a triple, and is refused with the line
quoted.  An IRI with any other escape, with an escape of no character
(a surrogate, or above U+10FFFF), or that decodes to a character no IRI
may hold (a code point up to U+0020, or one of ``<>"{}|^`\\``) is
refused naming the line, as is an empty subject IRI, ``<>``, in a
triple that gives a video a field.  Predicate IRIs are decoded the same
way.  A literal's ``\\uXXXX`` and ``\\UXXXXXXXX`` escapes take exactly 4
or 8 hex digits, and one that names no character is refused as in an
IRI.
Recognized predicates (object must be a literal):

    http://purl.org/dc/terms/title          -> title
    http://purl.org/dc/terms/abstract       -> abstract
    http://purl.org/dc/terms/language       -> language
    http://example.org/scivideo#manualTag      -> tag (manual)
    http://example.org/scivideo#transcriptTag  -> tag (transcript)
    http://example.org/scivideo#ocrTag         -> tag (ocr)
    http://example.org/scivideo#visualTag      -> tag (visual)

For title/abstract/language the last triple wins; tags accumulate in
line order.  This is not a general RDF parser: long literals, relative
IRIs and anything beyond one triple per line are out of scope.
"""

from __future__ import annotations

import re
from pathlib import Path

from .corpus import Tag, VideoRecord, _LANGUAGE_RE
from .errors import ParseError

_TAG_NS = "http://example.org/scivideo#"
_DCT = "http://purl.org/dc/terms/"

FIELD_PREDICATES = {
    _DCT + "title": "title",
    _DCT + "abstract": "abstract",
    _DCT + "language": "language",
}
TAG_PREDICATES = {
    _TAG_NS + "manualTag": "manual",
    _TAG_NS + "transcriptTag": "transcript",
    _TAG_NS + "ocrTag": "ocr",
    _TAG_NS + "visualTag": "visual",
}

_TRIPLE_RE = re.compile(
    r"^(?:<(?P<subj>[^<>\s]*)>|(?P<subj_bnode>_:[A-Za-z0-9][A-Za-z0-9._-]*))\s+"
    r"<(?P<pred>[^<>\s]*)>\s+"
    r"(?:<(?P<obj_iri>[^<>\s]*)>"
    r"|(?P<obj_bnode>_:[A-Za-z0-9][A-Za-z0-9._-]*)"
    r'|"(?P<obj_lit>(?:[^"\\]|\\.)*)"'
    r"(?:@(?P<lang>[A-Za-z][A-Za-z0-9-]*)|\^\^<(?P<dtype>[^<>\s]*)>)?)"
    r"\s*\.\s*$"
)

_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


# A backslash and what it escapes: up to the 4 or 8 characters a \u or
# \U escape takes, else any one character, else nothing (at the end).
_ESCAPE_RE = re.compile(r"\\(?:u(.{0,4})|U(.{0,8})|(.))?", re.DOTALL)
_HEX_RE = re.compile(r"[0-9A-Fa-f]+")


def _escaped_char(hexpart: str, path, line_no: int, where: str) -> str:
    """The character that the HEX digits of a \\u or \\U escape in
    ``where`` name; a surrogate, or a code point above U+10FFFF, is no
    character, and UTF-8 cannot encode it."""
    code = int(hexpart, 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise ParseError(path, line_no, f"{where} escapes "
                         f"U+{hexpart.upper()}, which is no character")
    return chr(code)


def _unescape(lit: str, path, line_no: int) -> str:
    if "\\" not in lit:
        return lit

    def replace(m: re.Match) -> str:
        u4, u8, char = m.groups()
        if char is not None:
            if char in _ESCAPES:
                return _ESCAPES[char]
            raise ParseError(path, line_no, f"unknown escape \\{char}")
        if u4 is None and u8 is None:
            raise ParseError(path, line_no, "dangling backslash in literal")
        esc, width, hexpart = ("u", 4, u4) if u8 is None else ("U", 8, u8)
        if len(hexpart) != width:
            raise ParseError(path, line_no, f"truncated \\{esc} escape")
        if not _HEX_RE.fullmatch(hexpart):
            raise ParseError(path, line_no,
                             f"invalid \\{esc} escape: {hexpart!r}")
        return _escaped_char(hexpart, path, line_no, "literal")

    return _ESCAPE_RE.sub(replace, lit)


# In an IRI the only escapes are \uXXXX and \UXXXXXXXX; a backslash that
# starts neither is an error.
_IRI_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8}))?")
# What the IRIREF rule of N-Triples excludes from an IRI, raw or escaped.
_IRI_EXCLUDED_RE = re.compile(r'[\x00-\x20<>"{}|^`\\]')


def _decode_iri(iri: str, path, line_no: int) -> str:
    if "\\" not in iri:
        return iri

    def replace(m: re.Match) -> str:
        hexpart = m.group(1) or m.group(2)
        if hexpart is None:
            raise ParseError(path, line_no, f"IRI <{iri}> has an escape "
                             "other than \\uXXXX or \\UXXXXXXXX")
        return _escaped_char(hexpart, path, line_no, f"IRI <{iri}>")

    decoded = _IRI_ESCAPE_RE.sub(replace, iri)
    bad = _IRI_EXCLUDED_RE.search(decoded)
    if bad is not None:
        raise ParseError(path, line_no, f"IRI <{iri}> holds "
                         f"U+{ord(bad.group()):04X} once decoded, which no "
                         "IRI may hold")
    return decoded


def read_ntriples(path) -> list[VideoRecord]:
    """Parse the subset and assemble records in order of first mention."""
    path = Path(path)
    # subject -> partial record state
    fields: dict[str, dict] = {}
    first_line: dict[str, int] = {}

    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            m = _TRIPLE_RE.match(stripped)
            if m is None:
                raise ParseError(path, line_no, f"not a triple: {stripped!r}")
            subj = m.group("subj")
            pred = _decode_iri(m.group("pred"), path, line_no)
            lit = m.group("obj_lit")
            if subj is None:
                continue  # blank-node subjects cannot name a video
            subj = _decode_iri(subj, path, line_no)
            if lit is None:
                continue  # only literal objects carry field values
            if pred not in FIELD_PREDICATES and pred not in TAG_PREDICATES:
                continue
            value = _unescape(lit, path, line_no)

            if subj not in fields:
                if not subj:
                    raise ParseError(path, line_no, "subject IRI <> is "
                                     "empty, and a video id must not be")
                fields[subj] = {"title": "", "abstract": "",
                                "language": None, "tags": []}
                first_line[subj] = line_no
            state = fields[subj]
            if pred in FIELD_PREDICATES:
                state[FIELD_PREDICATES[pred]] = value
            else:
                surface = value.strip()
                if not surface:
                    raise ParseError(path, line_no,
                                     "tag surface empty after trimming")
                state["tags"].append(
                    Tag(surface=surface, provenance=TAG_PREDICATES[pred]))

    records = []
    for subj, state in fields.items():
        language = state["language"]
        if language is None or not _LANGUAGE_RE.fullmatch(language):
            raise ParseError(
                path, first_line[subj],
                f"video <{subj}> has no valid language triple "
                f"(got {language!r})",
            )
        records.append(VideoRecord(
            id=subj,
            language=language,
            title=state["title"],
            abstract=state["abstract"],
            tags=tuple(state["tags"]),
        ))
    return records


__all__ = ["read_ntriples", "FIELD_PREDICATES", "TAG_PREDICATES"]
