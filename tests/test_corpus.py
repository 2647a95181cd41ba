"""JSON-lines corpus loading, validation, filtering, and round-trips."""

from __future__ import annotations

import json
import re

import pytest

from lodrec import ParseError, load_corpus
from lodrec.corpus import Corpus, Tag, VideoRecord, save_corpus
from lodrec.errors import DuplicateIdError

from conftest import TOY


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as f:
        for obj in objs:
            f.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return path


def write_corpus(corpus: Corpus, path):
    path.write_bytes(b"".join(save_corpus(corpus)))


def record_obj(vid="v1", language="de", title="Titel", abstract="",
               tags=None):
    if tags is None:
        tags = [{"surface": "Mathematik", "provenance": "manual"}]
    return {"id": vid, "language": language, "title": title,
            "abstract": abstract, "tags": tags}


class TestLoad:
    def test_toy_corpus_loads(self, toy_corpus):
        assert len(toy_corpus) == 9
        first = toy_corpus.records[0]
        assert first.id == "v001"
        assert first.language == "de"
        assert first.title == "Einführung in SPARQL"
        assert first.tags[0] == Tag(surface="SPARQL", provenance="manual")
        assert [t.provenance for t in first.tags] == [
            "manual", "transcript", "ocr"]

    def test_record_order_preserved(self, toy_corpus):
        assert [r.id for r in toy_corpus.records] == \
            [f"v{n:03d}" for n in range(1, 10)]

    def test_empty_file(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [])
        corpus = load_corpus(path)
        assert len(corpus) == 0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record_obj()) + "\n\n", encoding="utf-8")
        assert len(load_corpus(path)) == 1

    def test_unknown_format_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [record_obj()])
        with pytest.raises(ValueError):
            load_corpus(path, format="xml")

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(OSError, match="nope.jsonl"):
            load_corpus(tmp_path / "nope.jsonl")


class TestValidation:
    def test_duplicate_id_is_hard_error(self, tmp_path):
        # Checked before the language filter, and named by file and line.
        path = write_jsonl(tmp_path / "c.jsonl",
                           [record_obj("dup"), record_obj("v2"),
                            record_obj("dup", language="en")])
        with pytest.raises(DuplicateIdError,
                           match=r"c\.jsonl:3: duplicate video id: 'dup' "
                                 r"\(first on line 1\)"):
            load_corpus(path, language_filter="de")

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record_obj()) + "\n{broken\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=r":2:"):
            load_corpus(path)

    @pytest.mark.parametrize("mutate, message", [
        (lambda o: o.pop("title"), "title"),
        (lambda o: o.update(id=""), "id"),
        (lambda o: o.update(language="DE"), "language"),
        (lambda o: o.update(language="deu"), "language"),
        (lambda o: o.update(tags=[{"surface": " ", "provenance": "manual"}]),
         "surface"),
        (lambda o: o.update(tags=[{"surface": "x y", "provenance": "speech"}]),
         "provenance"),
    ])
    def test_field_violations(self, tmp_path, mutate, message):
        obj = record_obj()
        mutate(obj)
        path = write_jsonl(tmp_path / "c.jsonl", [obj])
        with pytest.raises(ParseError, match=message):
            load_corpus(path)

    def test_language_with_a_trailing_line_break_rejected(self, tmp_path):
        # A "$" anchor matches before a final line break: "de\n" loaded,
        # and a language filter then dropped it without a word.
        path = write_jsonl(tmp_path / "c.jsonl", [
            record_obj("v0"), record_obj(language="de\n")])
        with pytest.raises(ParseError, match=re.escape(
                f"{path}:2: language must be a two-letter lowercase code, "
                "got 'de\\n'")):
            load_corpus(path)

    @pytest.mark.parametrize("field, value, message", [
        ("tags", ["foo"], "tags must be a list of objects"),
        ("tags", None, "tags must be a list of objects"),
        ("tags", {"surface": "x", "provenance": "manual"},
         "tags must be a list of objects"),
        ("surface", 5, "tag surface must be a string"),
        ("provenance", 5, "unknown provenance value 5"),
        ("gnd_id", None, "tag gnd_id must be a string"),
        ("gnd_id", 4409615, "tag gnd_id must be a string"),
        ("title", None, "title must be a string"),
        ("abstract", 3, "abstract must be a string"),
    ], ids=["tags-strings", "tags-null", "tags-object", "surface-int",
            "provenance-int", "gnd_id-null", "gnd_id-int", "title-null",
            "abstract-int"])
    def test_field_types_name_file_and_line(self, tmp_path, field, value,
                                            message):
        obj = record_obj()
        if field in obj:
            obj[field] = value
        else:
            obj["tags"][0][field] = value
        path = write_jsonl(tmp_path / "c.jsonl", [record_obj("v0"), obj])
        with pytest.raises(ParseError, match=rf"c\.jsonl:2: {message}"):
            load_corpus(path)

    @pytest.mark.parametrize("vid", ["v\t002", "v\r002", "v\n002", "v002\n"])
    def test_id_with_tab_or_line_break_names_file_and_line(self, tmp_path,
                                                           vid):
        # The index files hold one id<TAB>... line per video, so such an
        # id would pass ingest and index and break every load after them.
        path = write_jsonl(tmp_path / "c.jsonl",
                           [record_obj("v001"), record_obj(vid)])
        with pytest.raises(ParseError, match=(
                rf"c\.jsonl:2: id {re.escape(repr(vid))} contains a tab or "
                "line break")):
            load_corpus(path)

    @pytest.mark.parametrize("field,value,name,code", [
        ("id", "v\ud800", "id", "D800"),
        ("title", "a\ud800b", "title", "D800"),
        ("abstract", "\udfff", "abstract", "DFFF"),
        ("surface", "Mathe\udc00", "tag surface", "DC00"),
        ("gnd_id", "gnd:\ud834", "tag gnd_id", "D834"),
    ])
    def test_lone_surrogate_names_file_line_and_field(self, tmp_path, field,
                                                      value, name, code):
        # json.loads decodes the escape of a lone surrogate; save_corpus
        # then failed with a message that named no file.
        obj = record_obj()
        if field in obj:
            obj[field] = value
        else:
            obj["tags"][0][field] = value
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record_obj("v0")) + "\n"
                        + json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=(
                rf"c\.jsonl:2: {name} holds the lone surrogate U\+{code}, "
                "which UTF-8 cannot encode")):
            load_corpus(path)

    def test_escaped_surrogate_pair_is_one_character(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record_obj(title="\U0001f3ac clip")),
                        encoding="utf-8")
        assert "\\ud83c\\udfac" in path.read_text(encoding="utf-8")
        assert load_corpus(path).records[0].title == "\U0001f3ac clip"

    def test_tag_surfaces_trimmed_case_preserved(self, tmp_path):
        obj = record_obj(tags=[{"surface": "  Lineare Algebra ",
                                "provenance": "ocr"}])
        path = write_jsonl(tmp_path / "c.jsonl", [obj])
        corpus = load_corpus(path)
        assert corpus.records[0].tags[0].surface == "Lineare Algebra"


class TestLanguageFilter:
    def test_three_record_fixture(self, tmp_path):
        objs = [record_obj("v1", "de"), record_obj("v2", "en"),
                record_obj("v3", "de")]
        path = write_jsonl(tmp_path / "c.jsonl", objs)
        corpus = load_corpus(path, language_filter="de")
        assert [r.id for r in corpus.records] == ["v1", "v3"]
        assert corpus.dropped_count == 1
        assert corpus.language_filter == "de"

    def test_toy_corpus_filter(self):
        corpus = load_corpus(TOY / "corpus.jsonl", language_filter="de")
        assert len(corpus) == 8
        assert corpus.dropped_count == 1
        assert all(r.language == "de" for r in corpus.records)

    def test_filtering_is_idempotent(self, tmp_path):
        # index loads ingest's filtered corpus with the same filter again
        once = load_corpus(TOY / "corpus.jsonl", language_filter="de")
        write_corpus(once, tmp_path / "once.jsonl")
        twice = load_corpus(tmp_path / "once.jsonl", language_filter="de")
        assert twice.records == once.records
        assert twice.dropped_count == 0

    def test_filter_can_drop_everything(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [record_obj("v1", "de")])
        corpus = load_corpus(path, language_filter="fr")
        assert len(corpus) == 0
        assert corpus.dropped_count == 1


class TestRoundTrip:
    def test_save_load_identity(self, toy_corpus, tmp_path):
        out = tmp_path / "out.jsonl"
        write_corpus(toy_corpus, out)
        assert load_corpus(out) == toy_corpus

    def test_save_empty_corpus(self, tmp_path):
        out = tmp_path / "out.jsonl"
        write_corpus(Corpus(records=[]), out)
        assert out.read_text(encoding="utf-8") == ""
        assert len(load_corpus(out)) == 0

    def test_umlauts_survive_in_utf8(self, tmp_path):
        record = VideoRecord(
            id="v1", language="de", title="Universität",
            abstract="Straße, Körper, Maß",
            tags=(Tag(surface="Fakultät", provenance="manual"),))
        out = tmp_path / "out.jsonl"
        write_corpus(Corpus(records=[record]), out)
        raw = out.read_bytes()
        assert "Universität".encode("utf-8") in raw  # not \u-escaped
        assert load_corpus(out).records[0] == record

    def test_gnd_id_round_trips_when_present(self, tmp_path):
        record = VideoRecord(
            id="v1", language="de", title="t", abstract="",
            tags=(Tag(surface="SPARQL", provenance="manual",
                      gnd_id="gnd:4409615-8"),))
        out = tmp_path / "out.jsonl"
        write_corpus(Corpus(records=[record]), out)
        reloaded = load_corpus(out).records[0]
        assert reloaded.tags[0].gnd_id == "gnd:4409615-8"

    def test_double_round_trip_is_byte_stable(self, toy_corpus, tmp_path):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        write_corpus(toy_corpus, first)
        write_corpus(load_corpus(first), second)
        assert first.read_bytes() == second.read_bytes()
