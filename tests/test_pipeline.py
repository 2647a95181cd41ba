"""Config parsing and the ingest/index/load artifact cycle."""

from __future__ import annotations

import builtins
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from lodrec import (
    ConfigError,
    LodrecError,
    ParseError,
    load_config,
    load_index,
    override_config,
    recommend,
    run_index,
    run_ingest,
)
from lodrec import embeddings, pipeline
from lodrec.ddc_vectors import DDC_VECTORS_FILES
from lodrec.engine import MAX_TEXT_DIM
from lodrec.pipeline import (
    ARTIFACTS,
    CORPUS_FILE,
    DOC_VECTORS_FILE,
    MANIFEST_FILE,
    VOCABULARY_FILE,
)

from conftest import (
    REPO,
    TOY,
    read_csr,
    wide_toy_table,
    write_toy_config as write_config,
)


DDC_OFFSETS_FILE, DDC_DIMS_FILE, DDC_WEIGHTS_FILE = DDC_VECTORS_FILES
WEIGHTS = "weights must be finite and non-negative with positive sum"
TOY_VOCABULARY = 32  # fragments in the vocabulary of the toy build


def md5(path: Path) -> str:
    return hashlib.md5(path.read_bytes()).hexdigest()


def save_rows(index_dir: Path, rows) -> None:
    """Write ``(dims, weights)`` rows as the fragment files."""
    ptr = np.cumsum([0] + [len(d) for d, _ in rows])
    for name, array in zip(DDC_VECTORS_FILES, (
            ptr, np.concatenate([d for d, _ in rows]),
            np.concatenate([w for _, w in rows]))):
        np.save(index_dir / name, array)


def toy_corpus_lines() -> list[str]:
    return (TOY / "corpus.jsonl").read_text(
        encoding="utf-8").splitlines(keepends=True)


def vouch_for(index_dir: Path, *names: str) -> None:
    """Make the manifest list the current digests of ``names``."""
    manifest = index_dir / MANIFEST_FILE
    digests = json.loads(manifest.read_text())
    for name in names:
        digests[name] = hashlib.sha256(
            (index_dir / name).read_bytes()).hexdigest()
    manifest.write_text(json.dumps(digests))


class TestLoadConfig:
    def test_shipped_toy_config(self):
        config = load_config(TOY / "config.txt")
        assert config.corpus_path == (TOY / "corpus.jsonl").resolve()
        assert config.index_dir == (TOY / "index").resolve()
        assert config.language == "de"
        assert config.fragmentation_mode == "zero_stripping"
        assert config.weights == (0.5, 0.5)
        assert config.k == 3

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        nested = tmp_path / "conf"
        nested.mkdir()
        path = nested / "c.txt"
        path.write_text("corpus_path = ../corpus.jsonl\n"
                        "snapshot_path = auth.tsv\n"
                        "embeddings_path = emb.txt\n")
        config = load_config(path)
        assert config.corpus_path == (tmp_path / "corpus.jsonl").resolve()
        assert config.snapshot_path == (nested / "auth.tsv").resolve()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.txt")

    @pytest.mark.parametrize("missing", [
        "corpus_path", "snapshot_path", "embeddings_path"])
    def test_required_keys(self, tmp_path, missing):
        path = write_config(tmp_path, **{missing: None})
        with pytest.raises(ConfigError, match=missing):
            load_config(path)

    def test_unknown_key_named_in_error(self, tmp_path):
        path = write_config(tmp_path)
        with open(path, "a") as f:
            f.write("fragment_depth = 3\n")
        with pytest.raises(ConfigError, match="fragment_depth"):
            load_config(path)

    def test_line_without_equals(self, tmp_path):
        path = write_config(tmp_path)
        with open(path, "a") as f:
            f.write("just some words\n")
        with pytest.raises(ConfigError, match=r":\d+:"):
            load_config(path)

    @pytest.mark.parametrize("key,value,message", [
        ("w_text", "-0.5", "weights"),
        ("k", "0", "k must"),
        ("fragmentation_mode", "strip_all", "fragmentation_mode"),
        ("corpus_format", "xml", "corpus_format"),
        ("w_text", "nan", "finite"),
        ("w_ddc", "inf", "finite"),
        ("limit_embeddings", "0", "limit_embeddings must be >= 1"),
        ("limit_embeddings", "-5", "limit_embeddings must be >= 1"),
        ("k", "abc", r"config\.txt:\d+: k: expected an integer, got 'abc'"),
        ("w_text", "x", r"config\.txt:\d+: w_text: expected a number"),
        ("limit_embeddings", "1.5", r"config\.txt:\d+: limit_embeddings"),
        pytest.param("w_text", "0.9\nw_text = 0.1",
                     r"config\.txt:\d+: w_text is set twice, first on line",
                     id="w_text-set-twice"),
    ])
    def test_invalid_values(self, tmp_path, key, value, message):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    @pytest.mark.parametrize("settings,key,message", [
        ({"w_text": "-0.5"}, "w_text", WEIGHTS),
        ({"w_ddc": "inf"}, "w_ddc", WEIGHTS),
        ({"w_ddc": "0.5", "w_text": "nan"}, "w_text", WEIGHTS),
        ({"w_text": "0", "w_ddc": "0"}, "w_ddc", WEIGHTS),
        ({"k": "0"}, "k", "k must be >= 1"),
        ({"limit_embeddings": "0"}, "limit_embeddings",
         "limit_embeddings must be >= 1"),
        ({"fragmentation_mode": "strip_all"}, "fragmentation_mode",
         "fragmentation_mode must be one of zero_stripping, zero_preserving"),
        ({"corpus_format": "xml"}, "corpus_format",
         "corpus_format must be jsonl or ntriples"),
    ], ids=lambda v: "-".join(v) if isinstance(v, dict) else None)
    def test_invalid_setting_names_its_line(self, tmp_path, settings, key,
                                            message):
        path = write_config(tmp_path, **settings)
        line = next(n for n, text in enumerate(
            path.read_text().splitlines(), start=1)
            if text.startswith(f"{key} ="))
        with pytest.raises(ConfigError) as error:
            load_config(path)
        assert str(error.value) == f"{path}:{line}: {message}"

    def test_defaults(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("corpus_path = a.jsonl\n"
                        "snapshot_path = b.tsv\n"
                        "embeddings_path = c.txt\n")
        config = load_config(path)
        assert config.language is None
        assert config.corpus_format == "jsonl"
        assert config.k == 10
        assert config.weights == (0.5, 0.5)
        assert config.limit_embeddings is None
        assert config.stoplist_path is None


class TestOverrideConfig:
    def test_flags_win(self, tmp_path):
        config = load_config(write_config(tmp_path))
        updated = override_config(config, fragmentation_mode="zero_preserving",
                                  k=4)
        assert updated.fragmentation_mode == "zero_preserving"
        assert updated.k == 4
        assert config.fragmentation_mode == "zero_stripping"  # original kept

    def test_none_means_keep(self, tmp_path):
        config = load_config(write_config(tmp_path))
        updated = override_config(config, k=None, limit_embeddings=None)
        assert updated == config

    def test_path_override_is_a_resolved_path(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path))
        monkeypatch.chdir(tmp_path)
        updated = override_config(config, index_dir="out")
        assert updated.index_dir == tmp_path.resolve() / "out"
        run_ingest(updated)
        assert (tmp_path / "out" / CORPUS_FILE).is_file()

    def test_override_is_validated(self, tmp_path):
        config = load_config(write_config(tmp_path))
        with pytest.raises(ConfigError):
            override_config(config, k=0)
        with pytest.raises(ConfigError, match="limit_embeddings"):
            override_config(config, limit_embeddings=0)


class TestIngestAndIndex:
    @pytest.fixture()
    def config(self, tmp_path):
        return load_config(write_config(tmp_path))

    def test_ingest_summary(self, config):
        summary = run_ingest(config)
        assert summary["read"] == 9
        assert summary["retained"] == 8
        assert summary["dropped_language"] == 1
        assert summary["language_filter"] == "de"
        assert Path(summary["corpus_file"]).exists()

    def test_index_summary(self, config):
        run_ingest(config)
        summary = run_index(config)
        assert summary["videos"] == 8
        assert summary["vocabulary_size"] == 32
        assert summary["resolved_tags"] == 19
        assert summary["unresolved_tags"] == 2
        assert summary["videos_without_codes"] == 0
        assert summary["degenerate_doc_vectors"] == 0
        assert summary["embedding_dim"] == 16
        assert summary["embedding_rows_read"] == 83
        assert len(summary["fingerprint"]) == 16

    def test_one_video_index_summary(self, tmp_path):
        # Each fragment of the only video is in every video: idf 0, so its
        # row is empty, though the vocabulary is not.
        one = tmp_path / "one.jsonl"
        one.write_text(toy_corpus_lines()[0], encoding="utf-8")
        config = load_config(write_config(tmp_path, corpus_path=str(one)))
        run_ingest(config)
        summary = run_index(config)
        assert (summary["videos"], summary["videos_without_codes"]) == (1, 1)
        assert summary["vocabulary_size"] > 0
        assert not load_index(config).has_codes.any()

    def test_index_before_ingest(self, config):
        with pytest.raises(LodrecError, match="run ingest first"):
            run_index(config)

    def test_artifacts_written(self, config):
        run_ingest(config)
        run_index(config)
        for name in ARTIFACTS:
            assert (config.index_dir / name).exists(), name

    def test_manifest_holds_each_artifact_digest(self, config):
        run_ingest(config)
        summary = run_index(config)
        manifest = (config.index_dir / MANIFEST_FILE).read_bytes()
        assert json.loads(manifest) == {
            name: hashlib.sha256(
                (config.index_dir / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}
        assert summary["fingerprint"] == \
            hashlib.sha256(manifest).hexdigest()[:16]

    def test_index_dir_holds_the_readme_artifacts(self, config):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        table = readme.split("**Index artifacts**", 1)[1].split("\n\n")[1]
        documented = set(re.findall(r"^\| `([^`]+)` \|", table, re.M))
        run_ingest(config)
        run_index(config)
        assert {p.name for p in config.index_dir.iterdir()} == documented

    def test_rerun_is_byte_identical(self, config):
        run_ingest(config)
        run_index(config)
        first = {name: md5(config.index_dir / name) for name in ARTIFACTS}
        run_ingest(config)
        run_index(config)
        second = {name: md5(config.index_dir / name) for name in ARTIFACTS}
        assert first == second

    def test_videos_tokenized_once_per_build(self, config, monkeypatch):
        calls = []
        original = embeddings.video_tokens

        def counted(video, stopwords=None):
            calls.append(video.id)
            return original(video, stopwords)

        monkeypatch.setattr(embeddings, "video_tokens", counted)
        monkeypatch.setattr(pipeline, "video_tokens", counted)
        run_ingest(config)
        run_index(config)
        assert sorted(calls) == sorted(load_index(config).ids)

    def test_mode_changes_fingerprint(self, tmp_path):
        config = load_config(write_config(tmp_path))
        run_ingest(config)
        stripped = run_index(config)["fingerprint"]
        preserved = run_index(override_config(
            config, fragmentation_mode="zero_preserving"))["fingerprint"]
        assert stripped != preserved


def filler_rows(n: int, dim: int = 16, seed: int = 7) -> list[str]:
    """Rows of tokens no toy video uses."""
    rng = np.random.default_rng(seed)
    return [f"zzfill{i} " + " ".join(f"{x:.4f}" for x in rng.normal(size=dim))
            for i in range(n)]


class TestEmbeddingTableInBuild:
    """``run_index`` stores only the table rows its videos use."""

    @pytest.fixture()
    def config(self, tmp_path):
        config = load_config(write_config(tmp_path))
        run_ingest(config)
        return config

    def test_filler_rows_leave_index_byte_identical(self, config, tmp_path):
        summary = run_index(config)
        artifacts = {n: (config.index_dir / n).read_bytes() for n in ARTIFACTS}
        header, *rows = (TOY / "embeddings.txt").read_text(
            encoding="utf-8").splitlines()
        filler = filler_rows(2000)
        padded = [f"{len(rows) + len(filler)} {header.split()[1]}"]
        taken = 0
        for i, row in enumerate(rows):  # about 24 filler rows per toy row
            share = len(filler) * (i + 1) // len(rows)
            padded += [*filler[taken:share], row]
            taken = share
        assert len(padded) == 1 + len(rows) + len(filler)
        table = tmp_path / "padded.txt"
        table.write_text("\n".join(padded) + "\n", encoding="utf-8")
        padded_summary = run_index(override_config(config,
                                                   embeddings_path=table))
        assert padded_summary.pop("embedding_rows_read") == \
            summary.pop("embedding_rows_read") + len(filler)
        assert padded_summary == summary
        for name, before in artifacts.items():
            assert (config.index_dir / name).read_bytes() == before, name

    def test_malformed_row_fails_build_only_when_used(self, config,
                                                       tmp_path):
        summary = run_index(config)
        artifacts = {n: (config.index_dir / n).read_bytes() for n in ARTIFACTS}
        lines = (TOY / "embeddings.txt").read_text(
            encoding="utf-8").splitlines()
        unused = filler_rows(1)[0].replace(" ", " x", 1)
        table = tmp_path / "bad.txt"
        table.write_text("\n".join([*lines, unused]) + "\n", encoding="utf-8")
        bad_summary = run_index(override_config(config, embeddings_path=table))
        assert bad_summary.pop("embedding_rows_read") == \
            summary.pop("embedding_rows_read") + 1
        assert bad_summary == summary
        for name, before in artifacts.items():
            assert (config.index_dir / name).read_bytes() == before, name
        # The row of a token some video uses is parsed, and refused.
        at = next(i for i, line in enumerate(lines)
                  if line.startswith("sparql "))
        lines[at] = lines[at].replace(" ", " x", 1)
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError,
                           match=rf"bad\.txt:{at + 1}: non-numeric"):
            run_index(override_config(config, embeddings_path=table))

    def test_table_without_corpus_tokens_builds_degenerate(self, config,
                                                           tmp_path):
        table = tmp_path / "unused.txt"
        table.write_text("\n".join(filler_rows(50)) + "\n", encoding="utf-8")
        summary = run_index(override_config(config, embeddings_path=table))
        assert summary["embedding_dim"] == 16
        assert summary["degenerate_doc_vectors"] == summary["videos"] == 8
        assert len(recommend("v001", load_index(config), k=3).ranked) == 3


class TestTextDimensionLimit:
    """``index`` refuses a table wider than ``engine.MAX_TEXT_DIM``
    before it writes any artifact, and names the table."""

    @pytest.fixture()
    def config(self, tmp_path):
        config = load_config(write_config(tmp_path))
        run_ingest(config)
        return config

    def test_limit_is_accepted(self, config, tmp_path):
        table = wide_toy_table(tmp_path / "wide.txt", MAX_TEXT_DIM)
        summary = run_index(override_config(config, embeddings_path=table))
        assert summary["embedding_dim"] == MAX_TEXT_DIM
        assert summary["degenerate_doc_vectors"] == 0
        assert len(recommend("v001", load_index(config), k=3).ranked) == 3

    def test_wider_table_is_refused_before_any_artifact(self, config,
                                                        tmp_path):
        table = wide_toy_table(tmp_path / "wide.txt", MAX_TEXT_DIM + 1)
        with pytest.raises(LodrecError, match=(
                rf"^{re.escape(str(table))}: word vectors have dimension "
                rf"10001, above the limit of 10000: ")):
            run_index(override_config(config, embeddings_path=table))
        assert [p.name for p in config.index_dir.iterdir()] == [CORPUS_FILE]


class TestLoadIndex:
    @pytest.fixture()
    def built(self, tmp_path):
        config = load_config(write_config(tmp_path))
        run_ingest(config)
        run_index(config)
        return config

    def test_round_trip_supports_scoring(self, built):
        index = load_index(built)
        assert len(index) == 8
        assert index.ids == [f"v00{i}" for i in range(1, 9)]
        assert index.unit_text.shape == (8, 16)
        assert len(index.row_ptr) == 9
        assert index.weights == (0.5, 0.5)
        rec = recommend("v001", index, k=3)
        assert len(rec.ranked) == 3

    def test_missing_artifact(self, built):
        for name in ARTIFACTS:
            path = built.index_dir / name
            kept = path.read_bytes()
            path.unlink()
            with pytest.raises(LodrecError, match=rf"{re.escape(name)}: index "
                               "artifact missing; run index again"):
                load_index(built)
            path.write_bytes(kept)
        load_index(built)

    def test_missing_manifest(self, built):
        (built.index_dir / MANIFEST_FILE).unlink()
        with pytest.raises(LodrecError, match=r"manifest\.json: index "
                           "manifest not found; run index"):
            load_index(built)

    def test_truncated_manifest(self, built):
        path = built.index_dir / MANIFEST_FILE
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(LodrecError, match=r"manifest\.json: unreadable "
                           r"index manifest .*build did not finish"):
            load_index(built)

    @pytest.mark.parametrize("text", ["[]", '"digests"', "null"])
    def test_manifest_not_an_object(self, built, text):
        (built.index_dir / MANIFEST_FILE).write_text(text)
        with pytest.raises(LodrecError, match="not a JSON object"):
            load_index(built)

    def test_manifest_lacking_an_artifact(self, built):
        path = built.index_dir / MANIFEST_FILE
        digests = json.loads(path.read_text())
        del digests[DDC_DIMS_FILE]
        digests["notes.txt"] = "0" * 64
        path.write_text(json.dumps(digests))
        with pytest.raises(LodrecError, match=r"manifest\.json: no digest of "
                           r"ddc_dims\.npy, unknown file notes\.txt"):
            load_index(built)

    def test_index_with_the_former_text_fragment_file_refused(self, built):
        path = built.index_dir / MANIFEST_FILE
        digests = json.loads(path.read_text())
        for name in DDC_VECTORS_FILES:
            del digests[name]
        digests["ddc_vectors.tsv"] = "0" * 128  # a blake2b digest
        path.write_text(json.dumps(digests))
        with pytest.raises(LodrecError, match=(
                r"manifest\.json: no digest of ddc_offsets\.npy, no digest "
                r"of ddc_dims\.npy, no digest of ddc_weights\.npy, unknown "
                r"file ddc_vectors\.tsv; run index again$")):
            load_index(built)

    def test_tampered_vocabulary_detected(self, built):
        vocab_file = built.index_dir / VOCABULARY_FILE
        lines = vocab_file.read_text().splitlines()
        vocab_file.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(LodrecError, match=r"vocabulary\.tsv: differs "
                           r"from its digest in manifest\.json"):
            load_index(built)

    def test_reingested_corpus_rejected(self, tmp_path, toy_run):
        # A video added and ingested after `index` used to load, and then
        # `recommend` raised UnknownIdError for the candidate 'vNEW'.
        config = load_config(write_config(
            tmp_path, corpus_path=str(toy_run / "corpus.jsonl")))
        run_ingest(config)
        run_index(config)
        with open(toy_run / "corpus.jsonl", "a", encoding="utf-8") as f:
            f.write(json.dumps({"id": "vNEW", "language": "de",
                                "title": "Neue Vorlesung", "abstract": "",
                                "tags": []}) + "\n")
        run_ingest(config)
        with pytest.raises(LodrecError, match=r"corpus\.jsonl: differs from "
                           "its digest .*: ingest ran again after the last "
                           "index; run index again"):
            load_index(config)

    def test_ingest_during_index_is_not_vouched_for(self, tmp_path,
                                                    monkeypatch):
        # The build parsed one read of corpus.jsonl and hashed a second
        # one, so the manifest vouched for an ingest that landed in between,
        # though the build never read it.
        config = load_config(write_config(tmp_path))
        run_ingest(config)
        three = tmp_path / "three.jsonl"
        three.write_text("".join(toy_corpus_lines()[:3]), encoding="utf-8")
        original = pipeline.load_snapshot

        def ingest_then_load(path):
            reingest = override_config(config, corpus_path=three)
            assert run_ingest(reingest)["retained"] == 3
            return original(path)

        monkeypatch.setattr(pipeline, "load_snapshot", ingest_then_load)
        assert run_index(config)["videos"] == 8
        with pytest.raises(LodrecError, match=r"corpus\.jsonl: differs from "
                           "its digest .*: ingest ran again after the last "
                           "index; run index again"):
            load_index(config)

    def test_vector_rows_out_of_order_rejected(self, built):
        ptr, dims, weights = read_csr(built.index_dir, 8, TOY_VOCABULARY)
        rows = [(dims[a:b], weights[a:b]) for a, b in zip(ptr, ptr[1:])]
        save_rows(built.index_dir, [rows[1], rows[0], *rows[2:]])
        with pytest.raises(LodrecError, match=r"ddc_(offsets|dims)\.npy: "
                           r"differs from its digest in manifest\.json"):
            load_index(built)

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[1:],  # v001's row dropped
        lambda rows: [*rows, rows[0]],  # a row for no video
    ], ids=["dropped", "added"])
    def test_fragment_rows_not_as_many_as_the_doc_vectors_rejected(
            self, built, edit):
        # The manifest vouches for the edited files: only their row count
        # ties them to the ids of the doc vectors.
        ptr, dims, weights = read_csr(built.index_dir, 8, TOY_VOCABULARY)
        rows = edit([(dims[a:b], weights[a:b])
                     for a, b in zip(ptr, ptr[1:])])
        save_rows(built.index_dir, rows)
        vouch_for(built.index_dir, *DDC_VECTORS_FILES)
        cells = sum(len(d) for d, _ in rows)
        path = built.index_dir / DDC_OFFSETS_FILE
        with pytest.raises(LodrecError, match=(
                rf"^{re.escape(str(path))}: not 9 offsets \(one per video, "
                rf"and the end\) rising from 0 to the {cells} dimensions "
                rf"and {cells} weights$")):
            load_index(built)

    def test_non_finite_doc_vector_rejected(self, built):
        # One NaN cell in v002's row made every score of v002 NaN.
        path = built.index_dir / DOC_VECTORS_FILE
        lines = path.read_text().splitlines()
        assert lines[1].startswith("v002\t")
        head, _, cells = lines[1].rpartition("\t")
        lines[1] = head + "\t" + ",".join(["nan"] + cells.split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError,
                           match=r"doc_vectors\.tsv:2: non-finite"):
            embeddings.load_doc_vectors(path, path.read_bytes())

    def test_non_finite_fragment_weight_rejected(self, built):
        # One inf weight in v002's row made every score of v002 NaN.
        ptr, _, weights = read_csr(built.index_dir, 8, TOY_VOCABULARY)
        weights[ptr[2] - 1] = np.inf
        np.save(built.index_dir / DDC_WEIGHTS_FILE, weights)
        vouch_for(built.index_dir, DDC_WEIGHTS_FILE)
        with pytest.raises(LodrecError, match=r"ddc_weights\.npy: row 2: "
                           "non-finite weight inf$"):
            load_index(built)

    @pytest.mark.parametrize("dim", [TOY_VOCABULARY, 2**40])
    def test_fragment_dimension_past_the_vocabulary_rejected(self, built, dim):
        # 2**40 made `recommend` try to allocate 8 TiB for the postings.
        ptr, dims, _ = read_csr(built.index_dir, 8, TOY_VOCABULARY)
        dims[ptr[1] - 1] = dim  # the last of v001's row: still ascending
        np.save(built.index_dir / DDC_DIMS_FILE, dims)
        vouch_for(built.index_dir, DDC_DIMS_FILE)
        with pytest.raises(LodrecError, match=(
                rf"ddc_dims\.npy: row 1: dimension past the {TOY_VOCABULARY} "
                rf"fragments of the vocabulary: {dim}$")):
            load_index(built)

    def test_each_artifact_is_opened_once(self, built, monkeypatch):
        # The bytes that load_index parses are the bytes it hashed: no
        # artifact is opened a second time to parse it.
        opened = []

        def counted(file, *args, **kwargs):
            opened.append(Path(file).name)
            return original(file, *args, **kwargs)

        original = io.open
        monkeypatch.setattr(io, "open", counted)
        monkeypatch.setattr(builtins, "open", counted)
        load_index(built)
        assert sorted(opened) == sorted([*ARTIFACTS, MANIFEST_FILE])

    def test_loaded_scores_match_freshly_built(self, built):
        # serialization must not perturb a single bit of any score
        from lodrec import WITH_LOD, combined_similarity
        from conftest import kernel_matrix
        index_a = load_index(built)
        index_b = load_index(built)
        m_a = kernel_matrix(index_a, WITH_LOD)
        m_b = kernel_matrix(index_b, WITH_LOD)
        assert np.array_equal(m_a, m_b, equal_nan=True)
        s = combined_similarity(index_a, "v001", "v002")
        assert s.s_lod is not None


# The files in the order a build writes them; ``index`` leaves the first.
WRITTEN = (*ARTIFACTS, MANIFEST_FILE)
STALE = (r": differs from its digest in manifest\.json: the file changed "
         r"after the build, or the build did not finish; run index again$")


class InjectedError(OSError):
    pass


class InjectedInterrupt(KeyboardInterrupt):
    pass


def files(index_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in index_dir.iterdir()}


def fail_writing(monkeypatch, name: str, how: str) -> list[list[str]]:
    """Make the write of the file ``name`` fail, as ``how`` says: its
    chunks raise an error ("chunks") or a ``KeyboardInterrupt``
    ("interrupt") after the first, or the rename into place raises
    ("rename").  Returns the listings of the directory taken as it
    failed."""
    listings = []
    if how == "rename":
        replace = pipeline.os.replace

        def failing(src, dst):
            if Path(dst).name == name:
                listings.append(sorted(p.name for p in Path(dst).parent
                                       .iterdir()))
                raise InjectedError("rename failed")
            return replace(src, dst)

        monkeypatch.setattr(pipeline.os, "replace", failing)
        return listings
    write = pipeline._write

    def first_chunk_only(path, chunks):
        for chunk in chunks:
            yield chunk
            listings.append(sorted(p.name for p in path.parent.iterdir()))
            raise (InjectedInterrupt if how == "interrupt" else
                   InjectedError)("stopped after the first chunk")

    monkeypatch.setattr(pipeline, "_write", lambda path, chunks: write(
        path, first_chunk_only(path, chunks) if path.name == name
        else chunks))
    return listings


FAILURES = {"chunks": InjectedError, "interrupt": InjectedInterrupt,
            "rename": InjectedError}


def assert_failed_cleanly(name, listings, before, after):
    """The failed write of ``name`` had a temporary file beside it, which
    is gone; ``name`` is as it was, or absent; no other file appeared."""
    [listing] = listings
    assert [n for n in listing if n not in WRITTEN] == \
        [f"{name}.{pipeline.os.getpid()}.tmp"]
    assert set(after) <= set(WRITTEN)
    assert after.get(name) == before.get(name)


class TestFailedWrites:
    """``ingest`` and ``index`` write each file whole or not at all: one
    that fails partway leaves every file old or new, never part written,
    and no temporary file."""

    @pytest.fixture()
    def config(self, tmp_path):
        return load_config(write_config(tmp_path))

    @pytest.mark.parametrize("how", FAILURES)
    @pytest.mark.parametrize("name", WRITTEN[1:])
    def test_index_over_a_previous_build(self, config, monkeypatch, name,
                                         how):
        run_ingest(config)
        run_index(config)
        before = files(config.index_dir)
        answers = recommend("v001", load_index(config), k=3).ranked
        rebuild = override_config(config, fragmentation_mode="zero_preserving")
        listings = fail_writing(monkeypatch, name, how)
        with pytest.raises(FAILURES[how]):
            run_index(rebuild)
        monkeypatch.undo()
        after = files(config.index_dir)
        assert_failed_cleanly(name, listings, before, after)
        try:
            answered = recommend("v001", load_index(config), k=3).ranked
        except LodrecError as e:
            assert re.search(STALE, str(e)), e
        else:
            assert answered == answers
        run_index(rebuild)
        rebuilt = files(config.index_dir)
        assert before != rebuilt
        for n, data in after.items():
            assert data in (before[n], rebuilt[n]), n

    @pytest.mark.parametrize("how", FAILURES)
    @pytest.mark.parametrize("name", WRITTEN[1:])
    def test_index_into_a_fresh_directory(self, config, monkeypatch, name,
                                          how):
        run_ingest(config)
        listings = fail_writing(monkeypatch, name, how)
        with pytest.raises(FAILURES[how]):
            run_index(config)
        monkeypatch.undo()
        after = files(config.index_dir)
        assert_failed_cleanly(name, listings, {}, after)
        assert sorted(after) == sorted(WRITTEN[:WRITTEN.index(name)])
        with pytest.raises(LodrecError, match=r"manifest\.json: index "
                           "manifest not found; run index$"):
            load_index(config)

    @pytest.mark.parametrize("how", FAILURES)
    def test_ingest_over_a_previous_build(self, config, tmp_path,
                                          monkeypatch, how):
        run_ingest(config)
        run_index(config)
        before = files(config.index_dir)
        answers = recommend("v001", load_index(config), k=3).ranked
        lines = (TOY / "corpus.jsonl").read_text(encoding="utf-8")
        other = tmp_path / "other.jsonl"
        other.write_text("".join(reversed(lines.splitlines(True))),
                         encoding="utf-8")
        listings = fail_writing(monkeypatch, CORPUS_FILE, how)
        with pytest.raises(FAILURES[how]):
            run_ingest(override_config(config, corpus_path=other))
        monkeypatch.undo()
        after = files(config.index_dir)
        assert_failed_cleanly(CORPUS_FILE, listings, before, after)
        assert after == before
        assert recommend("v001", load_index(config), k=3).ranked == answers
        # The next index rebuilds the previous corpus, not a prefix of the
        # new one.
        run_index(config)
        assert files(config.index_dir) == before

    @pytest.mark.parametrize("how", FAILURES)
    def test_ingest_into_a_fresh_directory(self, config, monkeypatch, how):
        listings = fail_writing(monkeypatch, CORPUS_FILE, how)
        with pytest.raises(FAILURES[how]):
            run_ingest(config)
        monkeypatch.undo()
        assert_failed_cleanly(CORPUS_FILE, listings, {},
                              files(config.index_dir))
        with pytest.raises(LodrecError, match="run ingest first"):
            run_index(config)
