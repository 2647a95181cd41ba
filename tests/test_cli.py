"""Command-line interface: output contracts and exit codes."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lodrec import METHODS, engine, load_config, load_index
from lodrec.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    main,
)
from lodrec.pipeline import ARTIFACTS, DOC_VECTORS_FILE, MANIFEST_FILE

from conftest import (
    RATINGS_CSV,
    REPO,
    TOY,
    cell_by_cell_tsv,
    checkout_env,
    kernel_matrix,
    wide_toy_table,
    write_toy_config,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def toy_config(tmp_path):
    return str(write_toy_config(tmp_path))


@pytest.fixture()
def indexed_config(tmp_path, capsys):
    config = str(write_toy_config(tmp_path))
    assert main(["ingest", "--config", config]) == EXIT_OK
    assert main(["index", "--config", config]) == EXIT_OK
    capsys.readouterr()  # drain build output before the test body runs
    return config


class TestIngest:
    def test_summary_json(self, capsys, toy_config):
        code, out, err = run_cli(capsys, "ingest", "--config", toy_config)
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["read"] == 9
        assert summary["retained"] == 8
        assert summary["dropped_language"] == 1

    def test_filter_to_nothing_warns(self, capsys, tmp_path):
        config = str(write_toy_config(tmp_path, language="fr"))
        code, out, err = run_cli(capsys, "ingest", "--config", config)
        assert code == EXIT_OK
        assert json.loads(out)["retained"] == 0
        assert "retained no records" in err

    @pytest.mark.parametrize("corpus_format,name,line", [
        ("jsonl", "corpus.jsonl", 2), ("ntriples", "corpus.nt", 13)])
    def test_lone_surrogate_in_a_title_is_refused(self, capsys, tmp_path,
                                                  corpus_format, name, line):
        # The corpus.jsonl that the failed ingest left was 0 bytes long,
        # and `index` built a 0-video index from it and exited 0.
        lines = (TOY / name).read_text(encoding="utf-8").splitlines()
        title = "Datenbanken und SQL"
        assert title in lines[line - 1]
        lines[line - 1] = lines[line - 1].replace(title, "a\\uD800b")
        corpus = tmp_path / name
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = str(write_toy_config(tmp_path, corpus_path=str(corpus),
                                      corpus_format=corpus_format))
        code, out, err = run_cli(capsys, "ingest", "--config", config)
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith(f"error: {corpus}:{line}: ")
        assert "U+D800" in err
        assert not (tmp_path / "index" / "corpus.jsonl").exists()
        code, _, err = run_cli(capsys, "index", "--config", config)
        assert code == EXIT_DATA
        assert "run ingest first" in err


    def test_empty_subject_iri_is_refused(self, capsys, tmp_path):
        # Ingest wrote a record with id "", and `index` refused it one step
        # late, naming the derived corpus.jsonl.
        lines = (TOY / "corpus.nt").read_text(encoding="utf-8").splitlines()
        subject = "<http://av.example.org/video/001>"
        assert lines[3].startswith(subject)
        lines[3] = lines[3].replace(subject, "<>")
        corpus = tmp_path / "corpus.nt"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = str(write_toy_config(tmp_path, corpus_path=str(corpus),
                                      corpus_format="ntriples"))
        code, out, err = run_cli(capsys, "ingest", "--config", config)
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith(f"error: {corpus}:4: subject IRI <> is empty")
        assert not (tmp_path / "index" / "corpus.jsonl").exists()


class TestIndex:
    def test_summary_and_unresolved_warning(self, capsys, toy_config):
        run_cli(capsys, "ingest", "--config", toy_config)
        code, out, err = run_cli(capsys, "index", "--config", toy_config)
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["vocabulary_size"] == 32
        assert summary["resolved_tags"] == 19
        assert summary["unresolved_tags"] == 2
        assert "2 of 21 tags had no authority entry" in err

    def test_before_ingest_is_data_error(self, capsys, toy_config):
        code, out, err = run_cli(capsys, "index", "--config", toy_config)
        assert code == EXIT_DATA
        assert "run ingest first" in err

    def test_mode_flag_wins_over_config(self, capsys, toy_config):
        run_cli(capsys, "ingest", "--config", toy_config)
        _, out, _ = run_cli(capsys, "index", "--config", toy_config)
        default_fp = json.loads(out)["fingerprint"]
        _, out, _ = run_cli(capsys, "index", "--config", toy_config,
                            "--mode", "zero_preserving")
        assert json.loads(out)["fingerprint"] != default_fp

    def test_nonpositive_limit_is_usage_error(self, capsys, toy_config):
        run_cli(capsys, "ingest", "--config", toy_config)
        code, _, err = run_cli(capsys, "index", "--config", toy_config,
                               "--limit-embeddings", "0")
        assert code == EXIT_USAGE
        assert "limit_embeddings must be >= 1" in err

    def test_worked_example_vocabulary_file(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({
            "id": "w001", "language": "de", "title": "Datenbanken",
            "abstract": "",
            "tags": [{"surface": "Datenbanken", "provenance": "manual"},
                     {"surface": "Programmiersprache C",
                      "provenance": "manual"}],
        }) + "\n")
        snapshot = tmp_path / "authority.tsv"
        snapshot.write_text("datenbanken\tgnd:4011119-2\t005.74\n"
                            "programmiersprache c\tgnd:4113195-2\t005.133\n")
        config = str(write_toy_config(
            tmp_path, corpus_path=str(corpus), snapshot_path=str(snapshot),
            language=None))
        run_cli(capsys, "ingest", "--config", config)
        code, out, _ = run_cli(capsys, "index", "--config", config)
        assert code == EXIT_OK
        assert json.loads(out)["vocabulary_size"] == 6
        vocab = (tmp_path / "index" / "vocabulary.tsv").read_text()
        assert vocab.splitlines() == [
            "1\t5", "2\t51", "2\t57", "3\t513", "3\t574", "4\t5133"]

    def test_empty_vocabulary_warns(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({
            "id": "w001", "language": "de", "title": "Video",
            "abstract": "", "tags": [],
        }) + "\n")
        snapshot = tmp_path / "authority.tsv"
        snapshot.write_text("")
        config = str(write_toy_config(
            tmp_path, corpus_path=str(corpus), snapshot_path=str(snapshot),
            language=None))
        run_cli(capsys, "ingest", "--config", config)
        code, out, err = run_cli(capsys, "index", "--config", config)
        assert code == EXIT_OK
        assert json.loads(out)["vocabulary_size"] == 0
        assert "vocabulary is empty" in err

    def test_corpus_with_no_videos(self, capsys, tmp_path):
        # The one warning: with no videos, nothing falls back to text.
        config = str(write_toy_config(tmp_path, language="xx"))
        run_cli(capsys, "ingest", "--config", config)
        code, out, err = run_cli(capsys, "index", "--config", config)
        assert code == EXIT_OK
        summary = json.loads(out)
        assert (summary["videos"], summary["vocabulary_size"],
                summary["degenerate_doc_vectors"]) == (0, 0, 0)
        assert err == "warning: the corpus has no videos; the index is empty\n"
        assert run_cli(capsys, "recommend", "--config", config, "v001") == (
            EXIT_DATA, "", "error: index contains fewer than two videos\n")
        assert run_cli(capsys, "matrix", "--config", config) == (
            EXIT_OK, "\t\n", "")


class TestRecommend:
    def test_json_shape_and_config_k(self, capsys, indexed_config):
        code, out, err = run_cli(capsys, "recommend", "--config",
                                 indexed_config, "v001")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["query"] == "v001"
        assert obj["method"] == "with_lod"
        assert obj["k"] == 3  # from the toy config
        assert len(obj["results"]) == 3
        assert all(set(r) == {"id", "score"} for r in obj["results"])
        scores = [r["score"] for r in obj["results"]]
        assert scores == sorted(scores, reverse=True)

    def test_k_flag_wins(self, capsys, indexed_config):
        _, out, _ = run_cli(capsys, "recommend", "--config", indexed_config,
                            "v001", "--k", "5")
        assert len(json.loads(out)["results"]) == 5

    def test_oversized_k_is_clamped(self, capsys, indexed_config):
        code, out, err = run_cli(capsys, "recommend", "--config",
                                 indexed_config, "v001", "--k", "99")
        assert code == EXIT_OK
        assert len(json.loads(out)["results"]) == 7
        assert "clamping to 7" in err

    def test_nonpositive_k_is_usage_error(self, capsys, indexed_config):
        code, _, err = run_cli(capsys, "recommend", "--config",
                               indexed_config, "v001", "--k", "0")
        assert code == EXIT_USAGE
        assert "k must be >= 1" in err

    def test_unknown_query_is_data_error(self, capsys, indexed_config):
        code, _, err = run_cli(capsys, "recommend", "--config",
                               indexed_config, "v999")
        assert code == EXIT_DATA
        assert "v999" in err

    def test_method_changes_ranking(self, capsys, indexed_config):
        _, out_lod, _ = run_cli(capsys, "recommend", "--config",
                                indexed_config, "v001", "--k", "7")
        _, out_text, _ = run_cli(capsys, "recommend", "--config",
                                 indexed_config, "v001", "--k", "7",
                                 "--method", "without_lod")
        ids_lod = [r["id"] for r in json.loads(out_lod)["results"]]
        ids_text = [r["id"] for r in json.loads(out_text)["results"]]
        assert ids_lod != ids_text  # code evidence reorders the toy corpus

    def test_rerun_is_identical(self, capsys, indexed_config):
        _, first, _ = run_cli(capsys, "recommend", "--config",
                              indexed_config, "v001")
        _, second, _ = run_cli(capsys, "recommend", "--config",
                               indexed_config, "v001")
        assert first == second


class TestMatrix:
    def test_tsv_output(self, capsys, indexed_config):
        code, out, err = run_cli(capsys, "matrix", "--config", indexed_config)
        assert code == EXIT_OK
        lines = out.strip("\n").split("\n")
        assert len(lines) == 9  # header + 8 videos
        ids = lines[0].split("\t")[1:]
        assert ids[0] == "v001"
        rows = {line.split("\t")[0]: line.split("\t")[1:] for line in lines[1:]}
        # symmetric: cell (v001, v002) == cell (v002, v001)
        assert rows["v001"][ids.index("v002")] == \
            rows["v002"][ids.index("v001")]
        assert float(rows["v001"][ids.index("v001")]) == pytest.approx(1.0)

    @pytest.mark.parametrize("method", METHODS)
    def test_streamed_bytes_equal_the_dense_format(self, capsys, monkeypatch,
                                                   indexed_config, method):
        index = load_index(load_config(indexed_config))
        expected = cell_by_cell_tsv(index.ids, kernel_matrix(index, method))
        n = len(index)
        for rows in (engine.MATRIX_BLOCK_ROWS, 1, 2, 3, n - 1, n, n + 1):
            monkeypatch.setattr(engine, "MATRIX_BLOCK_ROWS", rows)
            code, out, err = run_cli(capsys, "matrix", "--config",
                                     indexed_config, "--method", method)
            assert (code, err) == (EXIT_OK, "")
            assert out == expected

    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    def test_reader_that_closes_the_pipe_stops_it_quietly(
            self, capsys, tmp_path, unbuffered):
        """``lodrec matrix | head -1``: the writer meets a closed pipe,
        prints nothing and exits ``EXIT_PIPE``."""
        records = [json.loads(line) for line in
                   (TOY / "corpus.jsonl").read_text(encoding="utf-8")
                   .splitlines()]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({**r, "id": f"{r['id']}_{copy:02d}"},
                       ensure_ascii=False) + "\n"
            for copy in range(40) for r in records), encoding="utf-8")
        config = str(write_toy_config(tmp_path, corpus_path=str(corpus)))
        assert main(["ingest", "--config", config]) == EXIT_OK
        assert main(["index", "--config", config]) == EXIT_OK
        capsys.readouterr()
        # 320 videos: about 2 MB of TSV, far beyond what a pipe buffers,
        # so the writer is still writing when the pipe closes.
        proc = subprocess.Popen(
            [sys.executable, "-m", "lodrec.cli", "matrix", "--config",
             config], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**checkout_env(), "PYTHONUNBUFFERED": unbuffered})
        header = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_PIPE
        assert header.startswith(b"\tv001_00\t")
        assert err == b""

    @pytest.mark.parametrize("argv", [["matrix"], ["recommend", "v001"]])
    def test_pipe_closed_before_any_output(self, indexed_config, argv):
        """Output small enough to sit in stdout's buffer until the end
        still meets the closed pipe inside ``main``, not at exit."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "lodrec.cli", *argv, "--config",
                 indexed_config], stdout=write_end, stderr=subprocess.PIPE,
                timeout=60, env={**checkout_env(), "PYTHONUNBUFFERED": ""})
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (EXIT_PIPE, b"")


class TestGolden:
    """The bytes of ``matrix`` and ``recommend`` on the shipped toy data,
    pinned by digest: a change to the scoring or the index layout must
    leave every one of them as it is."""

    MATRIX = {
        "with_lod": "d19cfa34bbf708f868f06b15df728f18460facd667ce5870ce05b4d49591ef82",
        "without_lod": "87bc388be1b37b8521d221d386e313853e9d97320213a1aa0d6f2fded911e6a9",
    }
    RECOMMEND = "f5dd7cfe0a85ce9c0ee76f2cf294424ea4d9496d046a3aeb5c4354909d52d162"

    @pytest.fixture()
    def toy_config(self, capsys, toy_run):
        config = str(toy_run / "config.txt")
        assert main(["ingest", "--config", config]) == EXIT_OK
        assert main(["index", "--config", config]) == EXIT_OK
        capsys.readouterr()
        return config

    @pytest.mark.parametrize("method", METHODS)
    def test_matrix_bytes(self, capsys, toy_config, method):
        code, out, err = run_cli(capsys, "matrix", "--config", toy_config,
                                 "--method", method)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == \
            self.MATRIX[method]

    def test_every_recommend_answer(self, capsys, toy_config):
        ids = load_index(load_config(toy_config)).ids
        digest = hashlib.sha256()
        for method in METHODS:
            for query in ids:
                code, out, err = run_cli(
                    capsys, "recommend", "--config", toy_config, query,
                    "--k", str(len(ids) - 1), "--method", method)
                assert (code, err) == (EXIT_OK, "")
                digest.update(out.encode())
        assert digest.hexdigest() == self.RECOMMEND


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-10])


def _append_line(path):
    with open(path, "a", encoding="utf-8") as f:
        f.write("\n")


TAMPERED = "differs from its digest in manifest.json"


class TestUnvouchedIndex:
    """``recommend`` and ``matrix`` refuse, with exit 2 and a message
    naming the file and the reason, an index its manifest does not
    vouch for."""

    @pytest.mark.parametrize("name,damage,reason", [
        pytest.param(name, damage, reason, id=f"{damage.__name__}-{name}")
        for name, damage, reason in [
            ("manifest.json", Path.unlink,
             "index manifest not found; run index"),
            ("manifest.json", _truncate, "unreadable index manifest ("),
            *[(name, _append_line, TAMPERED) for name in ARTIFACTS],
            *[(name, Path.unlink, "index artifact missing; run index again")
              for name in ARTIFACTS]]])
    @pytest.mark.parametrize("command", ["recommend", "matrix"])
    def test_refused(self, capsys, tmp_path, indexed_config, command, name,
                     damage, reason):
        damage(tmp_path / "index" / name)
        query = ["v001"] if command == "recommend" else []
        code, out, err = run_cli(capsys, command, "--config", indexed_config,
                                 *query)
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith(f"error: {tmp_path / 'index' / name}: {reason}")

    def test_reingest_without_index(self, capsys, tmp_path, indexed_config):
        write_toy_config(tmp_path, language=None)  # keeps the English video
        assert run_cli(capsys, "ingest", "--config", indexed_config)[0] == EXIT_OK
        code, out, err = run_cli(capsys, "recommend", "--config",
                                 indexed_config, "v001")
        assert (code, out) == (EXIT_DATA, "")
        assert err == (f"error: {tmp_path / 'index' / 'corpus.jsonl'}: "
                       f"{TAMPERED}: ingest ran again after the last index; "
                       "run index again\n")
        assert run_cli(capsys, "index", "--config", indexed_config)[0] == EXIT_OK
        assert run_cli(capsys, "recommend", "--config", indexed_config,
                       "v001")[0] == EXIT_OK


class TestEvaluate:
    def test_study_fixture(self, capsys):
        code, out, err = run_cli(capsys, "evaluate", str(RATINGS_CSV))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["n_ratings"] == 4000
        assert report["chi_square"]["statistic"] == pytest.approx(
            15.147057449282737, abs=1e-9)

    def test_header_only_reports_then_fails(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("participant,query_id,recommended_id,method,rating\n")
        code, out, err = run_cli(capsys, "evaluate", str(path))
        assert code == EXIT_DATA
        report = json.loads(out)  # report still printed for inspection
        assert "error" in report["chi_square"]
        assert "chi-square test failed" in err

    def test_single_method_file_keeps_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        rows = [f"p1,q1,v{r},with_lod,{r}" for r in (0, 1, 2, 3)]
        path.write_text(
            "participant,query_id,recommended_id,method,rating\n"
            + "\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "evaluate", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["relative_deltas_percent"]["none"] is None
        assert "none" in report["delta_errors"]

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "evaluate",
                               str(tmp_path / "absent.csv"))
        assert code == EXIT_DATA
        assert "error" in err


class TestExitCodes:
    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "ingest", "--config",
                               str(tmp_path / "absent.txt"))
        assert code == EXIT_USAGE
        assert "not found" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "ingest")
        assert code == EXIT_USAGE

    def test_unknown_flag(self, capsys, toy_config):
        code, _, err = run_cli(capsys, "ingest", "--config", toy_config,
                               "--bogus")
        assert code == EXIT_USAGE

    def test_unparsable_config_value_is_usage_error(self, capsys, tmp_path):
        config = str(write_toy_config(tmp_path, k="abc"))
        code, _, err = run_cli(capsys, "ingest", "--config", config)
        assert code == EXIT_USAGE
        assert "config.txt:" in err and "k: expected an integer" in err

    def test_invalid_config_setting_names_its_line(self, capsys, tmp_path):
        config = write_toy_config(tmp_path, k="0")
        line = config.read_text().splitlines().index("k = 0") + 1
        code, _, err = run_cli(capsys, "ingest", "--config", str(config))
        assert code == EXIT_USAGE
        assert err == f"error: {config}:{line}: k must be >= 1\n"
        # a flag has no line to name
        code, _, err = run_cli(capsys, "index", "--config",
                               str(write_toy_config(tmp_path)),
                               "--limit-embeddings", "0")
        assert code == EXIT_USAGE
        assert err == "error: limit_embeddings must be >= 1\n"

    def test_malformed_corpus_record_is_data_error(self, capsys, toy_run,
                                                   tmp_path):
        corpus = toy_run / "corpus.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[1])
        record["tags"] = ["foo"]
        lines[1] = json.dumps(record, ensure_ascii=False) + "\n"
        corpus.write_text("".join(lines), encoding="utf-8")
        config = str(write_toy_config(tmp_path, corpus_path=str(corpus)))
        code, _, err = run_cli(capsys, "ingest", "--config", config)
        assert code == EXIT_DATA
        assert "corpus.jsonl:2: tags must be a list of objects" in err

    def test_too_wide_table_is_data_error(self, capsys, tmp_path):
        table = wide_toy_table(tmp_path / "wide.txt",
                               engine.MAX_TEXT_DIM + 1)
        config = str(write_toy_config(tmp_path, embeddings_path=str(table)))
        assert run_cli(capsys, "ingest", "--config", config)[0] == EXIT_OK
        code, out, err = run_cli(capsys, "index", "--config", config)
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith(f"error: {table}: word vectors have dimension "
                              "10001, above the limit of 10000: ")
        assert [p.name for p in (tmp_path / "index").iterdir()] == \
            ["corpus.jsonl"]

    def test_too_wide_index_is_data_error(self, capsys, tmp_path,
                                          indexed_config):
        # An index written by other means: doc vectors padded to 10,001
        # components, under a manifest that vouches for them.
        index_dir = tmp_path / "index"
        doc_vectors = index_dir / DOC_VECTORS_FILE
        pad = ",0.0" * (engine.MAX_TEXT_DIM + 1 - 16)
        doc_vectors.write_text("".join(
            line + pad + "\n" for line in doc_vectors.read_text(
                encoding="utf-8").splitlines()), encoding="utf-8")
        manifest = json.loads((index_dir / MANIFEST_FILE).read_text())
        manifest[DOC_VECTORS_FILE] = hashlib.sha256(
            doc_vectors.read_bytes()).hexdigest()
        (index_dir / MANIFEST_FILE).write_text(json.dumps(manifest))
        for argv in (["recommend", "--config", indexed_config, "v001"],
                     ["matrix", "--config", indexed_config]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (EXIT_DATA, "")
            assert err.startswith("error: word vectors have dimension "
                                  "10001, above the limit of 10000: ")

    def test_unexpected_exception_is_internal(self, capsys, toy_config,
                                              monkeypatch):
        def boom(config):
            raise RuntimeError("wiring bug")

        monkeypatch.setattr("lodrec.cli.run_ingest", boom)
        code, _, err = run_cli(capsys, "ingest", "--config", toy_config)
        assert code == EXIT_INTERNAL
        assert "internal error" in err
        assert "RuntimeError" in err  # traceback kept for diagnosis


def declared_entry_point():
    """The ``lodrec`` target declared under ``[project.scripts]``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["lodrec"]


class TestInstalledEntryPoint:
    """The declared ``[project.scripts]`` entry point and
    ``python -m lodrec.cli``, each run in a fresh interpreter against
    this checkout's code rather than whatever ``lodrec`` is on PATH.
    """

    def test_console_script_smoke(self):
        module, attr = declared_entry_point().split(":")
        # The wrapper pip writes for a console script.
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.argv[0] = 'lodrec'; sys.exit({attr}())")
        result = subprocess.run(
            [sys.executable, "-c", wrapper, "evaluate", str(RATINGS_CSV)],
            capture_output=True, text=True, timeout=60, env=checkout_env())
        assert result.returncode == EXIT_OK, result.stderr
        assert json.loads(result.stdout)["n_ratings"] == 4000, result.stderr

    def test_module_invocation_usage_error(self):
        # `python -m lodrec.cli` runs the module's __main__ guard, which
        # calls main(): the same program as the script only if it is the target.
        module, attr = declared_entry_point().split(":")
        assert getattr(importlib.import_module(module), attr) is main
        result = subprocess.run(
            [sys.executable, "-m", "lodrec.cli"],
            capture_output=True, text=True, timeout=60, env=checkout_env())
        assert result.returncode == EXIT_USAGE, result.stderr
        # argparse's message, not Python's "No module named" (also exit 1)
        assert "error: the following arguments are required" in result.stderr
