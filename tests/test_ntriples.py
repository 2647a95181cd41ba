"""N-Triples subset reader."""

from __future__ import annotations

import re
import string

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lodrec import ParseError, load_corpus
from lodrec.ntriples import _unescape, read_ntriples

from conftest import TOY

SUBJ = "<http://example.org/v1>"
TITLE = "<http://purl.org/dc/terms/title>"
LANG = "<http://purl.org/dc/terms/language>"
ABSTRACT = "<http://purl.org/dc/terms/abstract>"
MANUAL = "<http://example.org/scivideo#manualTag>"
OCR = "<http://example.org/scivideo#ocrTag>"


def write_nt(tmp_path, lines):
    path = tmp_path / "c.nt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def minimal(extra=()):
    return [
        f'{SUBJ} {TITLE} "Titel" .',
        f'{SUBJ} {LANG} "de" .',
        *extra,
    ]


class TestShippedFixture:
    def test_reads_three_records(self):
        records = read_ntriples(TOY / "corpus.nt")
        assert [r.id for r in records] == [
            "http://av.example.org/video/001",
            "http://av.example.org/video/002",
            "http://av.example.org/video/009",
        ]

    def test_unicode_escapes_decoded(self):
        records = read_ntriples(TOY / "corpus.nt")
        assert records[0].title == "Einführung in SPARQL"
        assert "über" in records[0].abstract

    def test_tags_accumulate_in_line_order(self):
        first = read_ntriples(TOY / "corpus.nt")[0]
        assert [(t.surface, t.provenance) for t in first.tags] == [
            ("SPARQL", "manual"),
            ("Datenbank", "transcript"),
            ("Abfragesprache", "ocr"),
        ]

    def test_language_filter_through_load_corpus(self):
        corpus = load_corpus(TOY / "corpus.nt", format="ntriples",
                             language_filter="de")
        assert len(corpus) == 2
        assert corpus.dropped_count == 1


class TestTripleHandling:
    def test_last_title_wins(self, tmp_path):
        path = write_nt(tmp_path, minimal([f'{SUBJ} {TITLE} "Neu" .']))
        assert read_ntriples(path)[0].title == "Neu"

    def test_unknown_predicates_skipped(self, tmp_path):
        extra = [f'{SUBJ} <http://purl.org/dc/terms/creator> "Jemand" .']
        path = write_nt(tmp_path, minimal(extra))
        record = read_ntriples(path)[0]
        assert record.title == "Titel"
        assert record.tags == ()

    def test_iri_and_bnode_objects_skipped(self, tmp_path):
        extra = [
            f"{SUBJ} {TITLE} <http://example.org/other> .",
            f"{SUBJ} {MANUAL} _:b0 .",
        ]
        path = write_nt(tmp_path, minimal(extra))
        record = read_ntriples(path)[0]
        assert record.title == "Titel"
        assert record.tags == ()

    def test_bnode_subjects_skipped(self, tmp_path):
        extra = [f'_:b1 {TITLE} "Anonym" .']
        path = write_nt(tmp_path, minimal(extra))
        assert len(read_ntriples(path)) == 1

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write_nt(tmp_path, ["# comment", "", *minimal()])
        assert len(read_ntriples(path)) == 1

    def test_language_tag_and_datatype_literals(self, tmp_path):
        lines = [
            f'{SUBJ} {TITLE} "Titel"@de .',
            f'{SUBJ} {LANG} "de" .',
            f'{SUBJ} {ABSTRACT} "Text"'
            '^^<http://www.w3.org/2001/XMLSchema#string> .',
        ]
        record = read_ntriples(write_nt(tmp_path, lines))[0]
        assert record.title == "Titel"
        assert record.abstract == "Text"

    def test_missing_abstract_defaults_empty(self, tmp_path):
        record = read_ntriples(write_nt(tmp_path, minimal()))[0]
        assert record.abstract == ""


class TestEscapes:
    @pytest.mark.parametrize("escaped, expected", [
        (r"a\tb", "a\tb"),
        (r"a\nb", "a\nb"),
        (r"say \"hi\"", 'say "hi"'),
        (r"back\\slash", "back\\slash"),
        (r"über", "über"),
        (r"\U0001F3AC clip", "\U0001f3ac clip"),
    ])
    def test_literal_unescaping(self, tmp_path, escaped, expected):
        lines = [f'{SUBJ} {TITLE} "{escaped}" .', f'{SUBJ} {LANG} "de" .']
        assert read_ntriples(write_nt(tmp_path, lines))[0].title == expected

    @pytest.mark.parametrize("bad", [r"\x41", r"\u00F", "trailing\\"])
    def test_bad_escapes_rejected(self, tmp_path, bad):
        lines = [f'{SUBJ} {TITLE} "{bad}" .', f'{SUBJ} {LANG} "de" .']
        with pytest.raises(ParseError):
            read_ntriples(write_nt(tmp_path, lines))


SHORT_ESCAPES = {"\t": "t", "\b": "b", "\n": "n", "\r": "r", "\f": "f",
                 '"': '"', "'": "'", "\\": "\\"}


def escape(chars) -> str:
    """N-Triples literal text for ``(char, choice)`` pairs; the choice picks
    among the forms the char allows: raw, short escape, \\u, \\U."""
    out = []
    for char, choice in chars:
        code = ord(char)
        forms = []
        if char not in '"\\\n\r':
            forms.append(char)
        if char in SHORT_ESCAPES:
            forms.append("\\" + SHORT_ESCAPES[char])
        if code < 0x10000:
            forms.append(f"\\u{code:04x}")
        forms.append(f"\\U{code:08X}")
        out.append(forms[choice % len(forms)])
    return "".join(out)


def reference_unescape(lit: str, path, line_no: int) -> str:
    """The former per-character decoder."""
    escapes = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
               '"': '"', "'": "'", "\\": "\\"}
    out = []
    i = 0
    while i < len(lit):
        c = lit[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= len(lit):
            raise ParseError(path, line_no, "dangling backslash in literal")
        esc = lit[i + 1]
        if esc in escapes:
            out.append(escapes[esc])
            i += 2
        elif esc in ("u", "U"):
            width = 4 if esc == "u" else 8
            hexpart = lit[i + 2:i + 2 + width]
            if len(hexpart) != width:
                raise ParseError(path, line_no, f"truncated \\{esc} escape")
            if not all(h in string.hexdigits for h in hexpart):
                raise ParseError(path, line_no,
                                 f"invalid \\{esc} escape: {hexpart!r}")
            code = int(hexpart, 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise ParseError(path, line_no, f"literal escapes "
                                 f"U+{hexpart.upper()}, which is no character")
            out.append(chr(code))
            i += 2 + width
        else:
            raise ParseError(path, line_no, f"unknown escape \\{esc}")
    return "".join(out)


TEXT_CHARS = st.characters(blacklist_categories=("Cs",))


class TestEscapeProperties:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(chars=st.lists(st.tuples(TEXT_CHARS, st.integers(0, 3)),
                          max_size=30))
    def test_round_trip(self, tmp_path, chars):
        text = "".join(char for char, _ in chars)
        lines = [f'{SUBJ} {TITLE} "{escape(chars)}" .',
                 f'{SUBJ} {LANG} "de" .']
        assert read_ntriples(write_nt(tmp_path, lines))[0].title == text

    @settings(max_examples=300, deadline=None)
    @given(lit=st.text(st.sampled_from("\\uU0aF9dD8+-_ x\"tn\n") | TEXT_CHARS,
                       max_size=24))
    def test_same_output_and_errors_as_per_character_decoder(self, lit):
        try:
            want = reference_unescape(lit, "c.nt", 7)
        except ParseError as e:
            with pytest.raises(ParseError) as got:
                _unescape(lit, "c.nt", 7)
            assert str(got.value) == str(e)
        else:
            assert _unescape(lit, "c.nt", 7) == want

    @pytest.mark.parametrize("lit, message", [
        ("end\\", "dangling backslash"),
        ("\\u12", "truncated \\\\u escape"),
        ("\\U0001F3A", "truncated \\\\U escape"),
        ("\\u12g4", "invalid \\\\u escape: '12g4'"),
        ("\\U00110000", r"literal escapes U\+00110000, which is no character"),
        ("\\uD800", r"literal escapes U\+D800, which is no character"),
        ("\\udfff", r"literal escapes U\+DFFF, which is no character"),
        ("\\u+041", "invalid \\\\u escape: '\\+041'"),
        ("\\u 41 ", "invalid \\\\u escape: ' 41 '"),
        ("\\u0_41", "invalid \\\\u escape: '0_41'"),
        ("\\U-0000041", "invalid \\\\U escape: '-0000041'"),
        ("\\x41", "unknown escape \\\\x"),
    ])
    def test_error_messages(self, lit, message):
        with pytest.raises(ParseError, match=f"^c.nt:7: {message}"):
            _unescape(lit, "c.nt", 7)


class TestErrors:
    def test_malformed_line_names_line_number(self, tmp_path):
        path = write_nt(tmp_path, [*minimal(), "not a triple"])
        with pytest.raises(ParseError, match=r":3:"):
            read_ntriples(path)

    def test_missing_final_dot(self, tmp_path):
        path = write_nt(tmp_path, [f'{SUBJ} {TITLE} "Titel"'])
        with pytest.raises(ParseError):
            read_ntriples(path)

    def test_missing_language_rejected(self, tmp_path):
        path = write_nt(tmp_path, [f'{SUBJ} {TITLE} "Titel" .'])
        with pytest.raises(ParseError, match="language"):
            read_ntriples(path)

    def test_invalid_language_rejected(self, tmp_path):
        lines = [f'{SUBJ} {TITLE} "Titel" .', f'{SUBJ} {LANG} "german" .']
        with pytest.raises(ParseError, match="language"):
            read_ntriples(write_nt(tmp_path, lines))

    def test_language_with_a_trailing_line_break_rejected(self, tmp_path):
        # The literal escape \n made the language "de\n", which the former
        # "^[a-z]{2}$" pattern let through.
        other = "<http://example.org/v0>"
        lines = [f'{other} {TITLE} "Titel" .', f'{other} {LANG} "de" .',
                 f'{SUBJ} {TITLE} "Titel" .', f'{SUBJ} {LANG} "de\\n" .']
        path = write_nt(tmp_path, lines)
        with pytest.raises(ParseError, match=re.escape(
                f"{path}:3: video <http://example.org/v1> has no valid "
                "language triple (got 'de\\n')")):
            read_ntriples(path)

    def test_empty_tag_surface_rejected(self, tmp_path):
        lines = [*minimal(), f'{SUBJ} {OCR} "  " .']
        with pytest.raises(ParseError, match="surface"):
            read_ntriples(write_nt(tmp_path, lines))

    def test_subject_with_a_tab_is_refused_naming_it(self, tmp_path):
        # An IRI holds no whitespace, so no id reaches the index files
        # with a tab or line break in it: such a subject is not a triple,
        # and the error quotes it.  Its \u0009 escape is decoded, and the
        # tab it decodes to is refused too.
        lines = [*minimal(), f'<http://example.org/v\t002> {LANG} "de" .',
                 f'<http://example.org/v\\u0009003> {LANG} "de" .']
        with pytest.raises(ParseError, match=(
                r"c\.nt:3: not a triple: '<http://example\.org/v\\t002>")):
            read_ntriples(write_nt(tmp_path, lines))
        del lines[2]
        with pytest.raises(ParseError, match=(
                r"/c\.nt:3: IRI <http://example\.org/v\\u0009003> holds "
                r"U\+0009 once decoded")):
            read_ntriples(write_nt(tmp_path, lines))


    def test_empty_subject_iri_is_refused_naming_the_line(self, tmp_path):
        # It was read as a video with id "", which `index` then refused,
        # naming the derived corpus.jsonl.
        lines = [*minimal(), f'<> {TITLE} "Titel" .', f'<> {LANG} "de" .']
        path = write_nt(tmp_path, lines)
        with pytest.raises(ParseError, match=re.escape(
                f"{path}:3: subject IRI <> is empty, and a video id must "
                "not be")):
            read_ntriples(path)

    def test_empty_subject_iri_without_a_field_is_skipped(self, tmp_path):
        lines = [*minimal(), f"<> {TITLE} <http://example.org/x> ."]
        assert [r.id for r in read_ntriples(write_nt(tmp_path, lines))] == \
            ["http://example.org/v1"]


class TestIriEscapes:
    """A subject or predicate IRI has its \\u and \\U escapes decoded, as
    the IRIREF rule of N-Triples allows; no other escape, and no
    character that rule excludes, may appear."""

    @pytest.mark.parametrize("escaped", [
        r"v\u00E9", r"v\u00e9", r"v\U000000E9"])
    def test_escaped_and_raw_subjects_name_one_video(self, tmp_path, escaped):
        lines = [f'<http://example.org/{escaped}> {TITLE} "Titel" .',
                 f'<http://example.org/vé> {LANG} "de" .']
        [record] = read_ntriples(write_nt(tmp_path, lines))
        assert record.id == "http://example.org/vé"
        assert (record.title, record.language) == ("Titel", "de")

    def test_astral_escape(self, tmp_path):
        lines = minimal([f'<http://example.org/\\U0001F3AC> {LANG} "de" .'])
        assert read_ntriples(write_nt(tmp_path, lines))[1].id == (
            "http://example.org/\U0001f3ac")

    def test_escaped_predicate_is_recognized(self, tmp_path):
        lines = minimal([f'{SUBJ} <http://purl.org/dc/terms/'
                         f'\\u0061bstract> "Zusammenfassung" .'])
        assert read_ntriples(write_nt(tmp_path, lines))[0].abstract == (
            "Zusammenfassung")

    @pytest.mark.parametrize("iri, message", [
        (r"http://example.org/v\t1", r"has an escape other than"),
        (r"http://example.org/v\x41", r"has an escape other than"),
        (r"http://example.org/v\u00E", r"has an escape other than"),
        (r"http://example.org/v\u00G9", r"has an escape other than"),
        (r"http://example.org/v\U0001F3A", r"has an escape other than"),
        ("http://example.org/v\\", r"has an escape other than"),
        (r"http://example.org/v\U00110000",
         r"escapes U\+00110000, which is no character"),
        (r"http://example.org/v\uD800",
         r"escapes U\+D800, which is no character"),
        (r"http://example.org/v\u0020x", r"holds U\+0020 once decoded"),
        (r"http://example.org/v\u0000x", r"holds U\+0000 once decoded"),
        (r"http://example.org/v\u003Cx", r"holds U\+003C once decoded"),
        (r"http://example.org/v\u005Cx", r"holds U\+005C once decoded"),
        (r"http://example.org/v\u007Bx", r"holds U\+007B once decoded"),
    ])
    @pytest.mark.parametrize("where", ["subject", "predicate"])
    def test_bad_iri_is_refused_naming_the_line(self, tmp_path, iri,
                                                message, where):
        triple = (f'<{iri}> {LANG} "de" .' if where == "subject"
                  else f'{SUBJ} <{iri}> "x" .')
        with pytest.raises(ParseError, match=(
                rf"/c\.nt:3: IRI <{re.escape(iri)}> {message}")):
            read_ntriples(write_nt(tmp_path, minimal([triple])))
