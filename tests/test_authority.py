"""Authority snapshot loading and tag resolution."""

from __future__ import annotations

import unicodedata

import pytest

from lodrec import ParseError, enrich, load_snapshot
from lodrec.authority import enrich_video, normalize_surface
from lodrec.corpus import Tag, VideoRecord

from conftest import TOY


def write_tsv(tmp_path, lines):
    path = tmp_path / "snap.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def video(tags):
    return VideoRecord(
        id="v1", language="de", title="t", abstract="",
        tags=tuple(Tag(surface=s, provenance="manual") for s in tags))


class TestNormalization:
    def test_casefold_and_trim(self):
        assert normalize_surface("  SPARQL ") == "sparql"

    def test_internal_whitespace_collapsed(self):
        assert normalize_surface("Linked \t Data") == "linked data"

    def test_nfc_composition(self):
        decomposed = unicodedata.normalize("NFD", "Universität")
        assert normalize_surface(decomposed) == "universität"

    def test_sharp_s_casefolds_to_ss(self):
        assert normalize_surface("Maß") == "mass"


class TestLoadSnapshot:
    def test_toy_snapshot(self, toy_snapshot):
        assert len(toy_snapshot) == 17
        entry = toy_snapshot.lookup("SPARQL")
        assert entry.gnd_id == "gnd:4409615-8"
        assert [c.raw for c in entry.ddc_codes] == [
            "006.74", "005.74", "005.133"]

    def test_empty_file(self, tmp_path):
        assert len(load_snapshot(write_tsv(tmp_path, []))) == 0

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write_tsv(tmp_path, ["# header", "", "a\tgnd:1\t004"])
        assert len(load_snapshot(path)) == 1

    def test_entry_without_codes(self, toy_snapshot):
        entry = toy_snapshot.lookup("Ingenieurwissenschaften")
        assert entry.gnd_id == "gnd:4137304-2"
        assert entry.ddc_codes == ()

    def test_two_field_row_means_no_codes(self, tmp_path):
        snapshot = load_snapshot(write_tsv(tmp_path, ["a\tgnd:1"]))
        assert snapshot.lookup("a").ddc_codes == ()

    def test_malformed_code_names_row(self, tmp_path):
        path = write_tsv(tmp_path, ["a\tgnd:1\t004", "b\tgnd:2\t12.3.4"])
        with pytest.raises(ParseError, match=r":2:"):
            load_snapshot(path)

    def test_duplicate_normalized_key_rejected(self, tmp_path):
        path = write_tsv(tmp_path, ["SPARQL\tgnd:1\t004",
                                    "sparql \tgnd:2\t005"])
        with pytest.raises(ParseError, match="duplicate"):
            load_snapshot(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = write_tsv(tmp_path, ["only-surface"])
        with pytest.raises(ParseError, match=r":1:"):
            load_snapshot(path)

    def test_lookup_normalizes_queries(self, toy_snapshot):
        # stored as "Linked  Data" with doubled space
        assert toy_snapshot.lookup("linked data") is not None
        assert toy_snapshot.lookup("LINKED DATA") is not None
        assert toy_snapshot.lookup("no such term") is None


class TestEnrich:
    def test_single_tag_resolution(self, toy_snapshot):
        enriched = enrich_video(video(["SPARQL"]), toy_snapshot)
        assert len(enriched.resolved) == 1
        assert enriched.unresolved_count == 0
        resolved = enriched.resolved[0]
        assert resolved.tag_index == 0
        assert resolved.gnd_id == "gnd:4409615-8"
        assert len(resolved.ddc_codes) == 3

    def test_no_tags(self, toy_snapshot):
        enriched = enrich_video(video([]), toy_snapshot)
        assert enriched.resolved == []
        assert enriched.unresolved_count == 0

    def test_partial_resolution(self, toy_snapshot):
        enriched = enrich_video(video(["SPARQL", "zzz-unknown"]), toy_snapshot)
        assert len(enriched.resolved) == 1
        assert enriched.unresolved_count == 1

    def test_resolved_codes_keep_multiplicity(self, toy_snapshot):
        enriched = enrich_video(video(["SPARQL", "Datenbank"]), toy_snapshot)
        assert [c.raw for r in enriched.resolved for c in r.ddc_codes] == [
            "006.74", "005.74", "005.133", "005.74"]

    def test_enrich_does_not_mutate_corpus(self, toy_corpus, toy_snapshot):
        before = [r for r in toy_corpus.records]
        enrich(toy_corpus, toy_snapshot)
        assert toy_corpus.records == before

    def test_tag_conservation(self, toy_corpus, toy_snapshot):
        enriched = enrich(toy_corpus, toy_snapshot)
        for e in enriched:
            indices = {r.tag_index for r in e.resolved}
            assert len(indices) == len(e.resolved)
            assert len(indices) + e.unresolved_count == len(e.video.tags)
            assert all(0 <= i < len(e.video.tags) for i in indices)

    def test_enrich_is_deterministic(self, toy_corpus, toy_snapshot):
        assert (enrich(toy_corpus, toy_snapshot)
                == enrich(toy_corpus, toy_snapshot))

    def test_toy_corpus_miss_count(self, toy_corpus, toy_snapshot):
        enriched = enrich(toy_corpus, toy_snapshot)
        assert sum(e.unresolved_count for e in enriched) == 2  # see fixtures
