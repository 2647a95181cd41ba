"""Word-vector table loading and mean document vectors."""

from __future__ import annotations

import multiprocessing
import os
import random
import subprocess
import sys
import threading
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from lodrec import ParseError, combined_similarity, embeddings, tokenize
from lodrec.corpus import Tag, VideoRecord
from lodrec.embeddings import (
    EmbeddingTable,
    doc_vectors,
    load_doc_vectors,
    load_embeddings,
    load_stoplist,
    save_doc_vectors,
    video_tokens,
)

from conftest import (
    TOY,
    Vectors,
    former_save_doc_vectors,
    random_embedding_table,
)


def write_table(tmp_path, lines, name="vectors.txt"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def numbered_rows(n, dim=3):
    return [f"tok{i} " + " ".join(f"{i}.{j}" for j in range(dim))
            for i in range(n)]


def video(title="", tags=(), abstract=""):
    return VideoRecord(
        id="v1", language="de", title=title, abstract=abstract,
        tags=tuple(Tag(surface=s, provenance="manual") for s in tags))


class TestTokenize:
    def test_splits_and_casefolds(self):
        assert tokenize("Markup Language") == ["markup", "language"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_hyphens_split_digits_dropped(self):
        assert tokenize("Daten-Kompression 2017") == ["daten", "kompression"]

    def test_single_letters_dropped(self):
        assert tokenize("a b ab") == ["ab"]

    def test_underscore_is_a_boundary(self):
        assert tokenize("machine_learning") == ["machine", "learning"]

    def test_mixed_alnum_tokens_kept(self):
        assert tokenize("mp4 x264") == ["mp4", "x264"]

    def test_nfc_normalization(self):
        decomposed = unicodedata.normalize("NFD", "Universität")
        assert tokenize(decomposed) == ["universität"]


class TestLoadEmbeddings:
    def test_two_row_file(self, tmp_path):
        path = write_table(tmp_path, ["hallo 1 2 3 4", "welt 5 6 7 8"])
        table = load_embeddings(path)
        assert table.dim == 4
        assert len(table) == 2
        assert np.array_equal(table.vectors["hallo"], [1, 2, 3, 4])

    def test_header_line_consumed(self, tmp_path):
        path = write_table(tmp_path, ["2 3", "aa 1 2 3", "bb 4 5 6"])
        table = load_embeddings(path)
        assert table.dim == 3
        assert len(table) == 2

    def test_limit_caps_rows(self, tmp_path):
        rows = [f"tok{i} {i} {i}" for i in range(10)]
        path = write_table(tmp_path, ["10 2", *rows])
        table = load_embeddings(path, limit=4)
        assert len(table) == 4
        assert "tok0" in table and "tok3" in table and "tok4" not in table

    def test_wrong_arity_names_line(self, tmp_path):
        path = write_table(tmp_path, ["aa 1 2 3", "bb 4 5"])
        with pytest.raises(ParseError, match=r":2:"):
            load_embeddings(path)

    @pytest.mark.parametrize("bad_row", ["bb 1 x 3", "bb 1 nan 3",
                                         "bb 1 inf 3"])
    def test_bad_components_rejected(self, tmp_path, bad_row):
        path = write_table(tmp_path, ["aa 1 2 3", bad_row])
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write_table(tmp_path, [])
        with pytest.raises(ParseError, match="empty"):
            load_embeddings(path)

    def test_duplicate_tokens_first_wins(self, tmp_path):
        path = write_table(tmp_path, ["aa 1 2", "AA 3 4"])
        table = load_embeddings(path)
        assert len(table) == 1
        assert table.duplicates_skipped == 1
        assert np.array_equal(table.vectors["aa"], [1, 2])

    def test_tokens_stored_normalized(self, tmp_path):
        path = write_table(tmp_path, ["Universität 1 2"])
        assert "universität" in load_embeddings(path)

    def test_save_load_round_trip_full_precision(self, tmp_path):
        table = random_embedding_table(random.Random(31), dim=5, n_tokens=8)
        out = tmp_path / "back.txt"
        out.write_text(f"{len(table)} {table.dim}\n" + "".join(
            token + " " + " ".join(repr(float(x)) for x in vec) + "\n"
            for token, vec in table.vectors.items()), encoding="utf-8")
        reloaded = load_embeddings(out)
        assert reloaded.dim == table.dim
        assert set(reloaded.vectors) == set(table.vectors)
        for token, vec in table.vectors.items():
            assert np.array_equal(reloaded.vectors[token], vec)

    def test_shipped_toy_table(self):
        table = load_embeddings(TOY / "embeddings.txt")
        assert table.dim == 16
        assert "sparql" in table


def reference_load(path, limit=None, keep=None):
    """The former loader: one Python ``float()`` per component.

    ``limit`` counts distinct normalized tokens read; only the first row
    of each token in ``keep`` (all, if None) has its components checked
    and is stored.
    """
    with open(path, encoding="utf-8") as f:
        numbered = list(enumerate(f, start=1))
    if not numbered:
        raise ParseError(path, 1, "empty embeddings file")
    vectors, seen, duplicates, dim = {}, set(), 0, None
    header = numbered[0][1].split()
    if len(header) == 2:
        try:
            int(header[0])
            dim = int(header[1])
            numbered = numbered[1:]
        except ValueError:
            pass
    for line_no, line in numbered:
        if limit is not None and len(seen) >= limit:
            break
        fields = line.split()
        if not fields:
            continue
        values = fields[1:]
        if dim is None:
            if not values:
                raise ParseError(path, line_no, "row has no components")
            dim = len(values)
        token = unicodedata.normalize("NFC", fields[0]).casefold()
        if token in seen:
            duplicates += 1
            continue
        seen.add(token)
        if keep is not None and token not in keep:
            continue
        if len(values) != dim:
            raise ParseError(path, line_no,
                             f"expected {dim} components, got {len(values)}")
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise ParseError(path, line_no,
                             "non-numeric vector component") from None
        if not np.all(np.isfinite(vec)):
            raise ParseError(path, line_no, "non-finite vector component")
        vectors[token] = vec
    if not seen:
        raise ParseError(path, 1, "embeddings file contains no vectors")
    return EmbeddingTable(dim=dim, vectors=vectors,
                          duplicates_skipped=duplicates,
                          rows_read=len(seen) + duplicates)


# Spellings that collide once normalized: case, sharp s, NFC vs NFD.
TOKENS = ["aa", "Aa", "AA", "bb", "BB", "cc", "dd", "ee", "ff",
          "straße", "STRASSE", "Universität",
          unicodedata.normalize("NFD", "UNIVERSITÄT")]
NORMALIZED = sorted({unicodedata.normalize("NFC", t).casefold()
                     for t in TOKENS})
FORMATS = [repr, "{:.4f}".format, "{:e}".format, "{:+.3g}".format]
FAULTS = ["short", "long", "word", "nan", "inf"]


@st.composite
def tables(draw):
    """The text of a table, with blank lines and at most two bad rows."""
    dim = draw(st.integers(1, 4))
    values = st.floats(allow_nan=False, allow_infinity=False, width=64)
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 5)) == 0:
            rows.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        fmt = draw(st.sampled_from(FORMATS))
        cells = [fmt(draw(values)) for _ in range(dim)]
        rows.append([draw(st.sampled_from(TOKENS)), *cells])
    data_rows = [r for r in rows if isinstance(r, list)]
    for at, fault in draw(st.lists(st.tuples(st.integers(0, 99),
                                             st.sampled_from(FAULTS)),
                                   max_size=2)):
        if not data_rows:
            break
        row = data_rows[at % len(data_rows)]
        if fault == "short":
            del row[-1]
        elif fault == "long":
            row.append("1.5")
        elif len(row) > 1:
            row[1 + at % (len(row) - 1)] = {"word": "x1", "nan": "nan",
                                            "inf": "-inf"}[fault]
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    lines = [sep.join(r) if isinstance(r, list) else r for r in rows]
    if draw(st.booleans()):
        lines.insert(0, f"{len(data_rows)} {dim}")
    return "".join(line + "\n" for line in lines)


def check_against_reference(tmp_path, text, limit, keep):
    """``load_embeddings`` gives ``reference_load``'s table bit for bit,
    or the same error text."""
    path = tmp_path / "table.txt"
    path.write_text(text, encoding="utf-8")
    try:
        want = reference_load(path, limit=limit, keep=keep)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            load_embeddings(path, limit=limit, keep=keep)
        assert str(got.value) == str(e)
        return
    got = load_embeddings(path, limit=limit, keep=keep)
    assert got.dim == want.dim
    assert got.duplicates_skipped == want.duplicates_skipped
    assert got.rows_read == want.rows_read
    assert list(got.vectors) == list(want.vectors)
    for token, vec in want.vectors.items():
        assert np.array_equal(got.vectors[token].view(np.int64),
                              vec.view(np.int64))
        assert got.vectors[token].base is None


class TestBlockParser:
    """The numpy block parser against the per-row ``float()`` reference."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=tables(),
           limit=st.none() | st.integers(1, 8),
           keep=st.none() | st.sets(st.sampled_from(NORMALIZED)),
           block=st.integers(1, 5))
    def test_matches_per_row_reference(self, tmp_path, monkeypatch, text,
                                       limit, keep, block):
        monkeypatch.setattr(embeddings, "_BLOCK_LINES", block)
        check_against_reference(tmp_path, text, limit, keep)

    def test_bad_row_in_later_block_names_its_line(self, tmp_path):
        rows = [f"tok{i} {i}.5 -{i}" for i in range(2500)]
        rows[2100] = "tok2100 1.5 oops"
        path = write_table(tmp_path, ["2500 2", *rows])
        with pytest.raises(ParseError,
                           match=r"vectors\.txt:2102: non-numeric"):
            load_embeddings(path)

    def test_arity_change_at_block_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_BLOCK_LINES", 4)
        rows = [f"tok{i} 1 2" for i in range(8)]
        rows[4] = "tok4 1 2 3"  # first row of the second block
        path = write_table(tmp_path, rows)
        with pytest.raises(ParseError,
                           match=r":5: expected 2 components, got 3"):
            load_embeddings(path)

    @pytest.mark.parametrize("number", ["1_0", "\u0661\u0662"])
    def test_python_only_number_syntax_refused(self, tmp_path, number):
        float(number)  # Python's float takes it; numpy's parser does not
        path = write_table(tmp_path, ["aa 1 2", f"bb 1 {number}"])
        with pytest.raises(ParseError, match=r":2: non-numeric"):
            load_embeddings(path)

    def test_kept_rows_are_not_views(self, tmp_path):
        rows = [f"tok{i} {i} {i + 1} {i + 2}" for i in range(50)]
        table = load_embeddings(write_table(tmp_path, rows),
                                keep={"tok3", "tok40"})
        assert sorted(table.vectors) == ["tok3", "tok40"]
        assert all(vec.base is None for vec in table.vectors.values())
        assert np.array_equal(table.vectors["tok40"], [40, 41, 42])

    def test_keep_nothing_still_checks_and_counts(self, tmp_path):
        # Rows that are not kept are read and counted, but not parsed.
        path = write_table(tmp_path, ["3 2", "aa 1 2", "AA 3 x", "bb 5"])
        table = load_embeddings(path, keep=set())
        assert table.dim == 2
        assert len(table) == 0
        assert table.duplicates_skipped == 1
        assert table.rows_read == 3
        path = write_table(tmp_path, ["aa 1 2", "bb 5 x", "cc 1 2 3"],
                           name="no_header.txt")
        table = load_embeddings(path, keep=set())
        assert (table.dim, table.rows_read) == (2, 3)
        # The first row still sets the dimension, so it needs components.
        empty = write_table(tmp_path, ["aa", "bb 1"], name="empty.txt")
        with pytest.raises(ParseError, match=r":1: row has no components"):
            load_embeddings(empty, keep=set())

    def test_bad_kept_row_in_later_block_names_its_line(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(embeddings, "_BLOCK_LINES", 2)
        rows = numbered_rows(40)
        rows[5] = "tok5 1 x"  # not kept: never parsed
        rows[30] = rows[30].replace(".1", "x", 1)  # the 11th kept row
        rows[36] = "tok36 1 2"  # a later bad kept row
        keep = {f"tok{i}" for i in range(0, 40, 3)}
        with pytest.raises(ParseError,
                           match=r"vectors\.txt:31: non-numeric"):
            load_embeddings(write_table(tmp_path, rows), keep=keep)

    def test_first_row_of_a_repeated_token_is_the_one_parsed(self, tmp_path):
        path = write_table(tmp_path, ["aa 1 2", "AA 3 x", "bb 1 2 3"])
        table = load_embeddings(path, keep={"aa"})
        assert np.array_equal(table.vectors["aa"], [1, 2])
        assert table.duplicates_skipped == 1
        path = write_table(tmp_path, ["bb 1 2", "aa 1 x", "AA 3 4"],
                           name="bad_first.txt")
        with pytest.raises(ParseError, match=r":2: non-numeric"):
            load_embeddings(path, keep={"aa"})

    def test_bad_row_past_limit_is_never_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_BLOCK_LINES", 4)
        rows = numbered_rows(20)
        rows[11] = "tok11 1 x"  # kept, but past the limit
        table = load_embeddings(write_table(tmp_path, ["20 3", *rows]),
                                limit=10, keep={"tok2", "tok9", "tok11"})
        assert sorted(table.vectors) == ["tok2", "tok9"]
        assert table.rows_read == 10
        assert np.array_equal(table.vectors["tok9"], [9.0, 9.1, 9.2])

    def test_header_only_has_no_vectors(self, tmp_path):
        path = write_table(tmp_path, ["0 3", ""])
        with pytest.raises(ParseError, match="contains no vectors"):
            load_embeddings(path, keep={"aa"})

    @pytest.mark.parametrize("header", ["5 0", "5 -2"])
    def test_header_dimension_below_one_refused(self, tmp_path, header):
        path = write_table(tmp_path, [header, "aa"])
        with pytest.raises(ParseError, match=r":1: header dimension"):
            load_embeddings(path)


def refuse_workers(monkeypatch):
    """Fail the test if anything forks or starts a process or thread."""
    def refuse(*args, **kwargs):
        raise AssertionError("a worker was started")

    for name in ("fork", "forkpty", "posix_spawn", "posix_spawnp"):
        if hasattr(os, name):
            monkeypatch.setattr(os, name, refuse)
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)


@pytest.fixture()
def in_process(monkeypatch):
    """The test's loads run with workers refused."""
    refuse_workers(monkeypatch)


class TestWorkerPool:
    """No worker pool: the main process parses every block, with the
    tables and errors that forked workers used to give."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=tables(),
           limit=st.none() | st.integers(1, 8),
           keep=st.none() | st.sets(st.sampled_from(NORMALIZED)),
           block=st.integers(1, 5))
    def test_matches_per_row_reference(self, tmp_path, monkeypatch,
                                       in_process, text, limit, keep, block):
        monkeypatch.setattr(embeddings, "_BLOCK_LINES", block)
        check_against_reference(tmp_path, text, limit, keep)

    @pytest.mark.parametrize("bad_line", [1, 29, 35])
    def test_bad_row_in_late_block(self, tmp_path, monkeypatch, in_process,
                                   bad_line):
        monkeypatch.setattr(embeddings, "_BLOCK_LINES", 2)
        rows = numbered_rows(40)
        rows[bad_line - 1] = rows[bad_line - 1].replace(".1", "x", 1)
        rows[-3] = "tok37 1 2"  # a later bad row, in a later block
        path = write_table(tmp_path, rows)
        with pytest.raises(ParseError,
                           match=rf"vectors\.txt:{bad_line}: non-numeric"):
            load_embeddings(path)
        # Neither bad row is parsed when neither token is kept.
        keep = {f"tok{i}" for i in range(40)} - {f"tok{bad_line - 1}",
                                                  "tok37"}
        table = load_embeddings(path, keep=keep)
        assert sorted(table.vectors) == sorted(keep)
        assert table.rows_read == 40

    def test_limit_ends_mid_block(self, tmp_path, monkeypatch, in_process):
        monkeypatch.setattr(embeddings, "_BLOCK_LINES", 4)
        rows = numbered_rows(20)
        rows[11] = "tok11 1 2"  # past the limit: never read
        table = load_embeddings(write_table(tmp_path, ["20 3", *rows]),
                                limit=10)  # blocks of 4, 4 and 2 rows
        assert list(table.vectors) == [f"tok{i}" for i in range(10)]
        assert table.rows_read == 10
        assert np.array_equal(table.vectors["tok9"], [9.0, 9.1, 9.2])

    def test_read_error_after_bad_row_in_flight(self, tmp_path, monkeypatch,
                                                in_process):
        # The bad bytes lie past the reader's first 8 KiB chunk of
        # decoded text, so the block holding line 3 is full, and parsed,
        # before they are read: the first error in file order wins.
        monkeypatch.setattr(embeddings, "_BLOCK_LINES", 5)
        rows = numbered_rows(14, dim=150)
        rows[2] = rows[2].replace(".1", "x", 1)
        path = write_table(tmp_path, rows)
        path.write_bytes(path.read_bytes() + b"tok99 \xff 1\n")
        with pytest.raises(ParseError, match=r"vectors\.txt:3: non-numeric"):
            load_embeddings(path)
        rows[2] = numbered_rows(3, dim=150)[2]
        path = write_table(tmp_path, rows)
        path.write_bytes(path.read_bytes() + b"tok99 \xff 1\n")
        with pytest.raises(UnicodeDecodeError):
            load_embeddings(path)

    @pytest.mark.parametrize("case", ["small table", "one cpu", "no fork",
                                      "another thread"])
    def test_no_pool(self, tmp_path, monkeypatch, case):
        # The cases that used to keep the pool off, and a table large
        # enough that it used to start one: all load in the main process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        if case == "one cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        if case == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        if case == "another thread":
            thread.start()
        rows = 30 if case == "small table" else 3000
        try:
            refuse_workers(monkeypatch)
            path = write_table(tmp_path,
                               [f"{rows} 3", *numbered_rows(rows)])
            table = load_embeddings(path)
            assert len(table) == table.rows_read == rows
            assert np.array_equal(table.vectors[f"tok{rows - 1}"],
                                  [float(f"{rows - 1}.{j}") for j in range(3)])
        finally:
            done.set()
            if thread.is_alive():
                thread.join()

    def test_importing_lodrec_loads_no_multiprocessing(self):
        code = ("import sys, lodrec.cli; "
                "print('multiprocessing' in sys.modules)")
        env = {**os.environ,
               "PYTHONPATH": str(Path(embeddings.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"


class TestLimit:
    ROWS = ["aa 1 2", "AA 3 4", "bb 5 6", "cc 7 8", "dd 9 x"]

    @pytest.mark.parametrize("header", [True, False])
    @pytest.mark.parametrize("limit", [0, -5])
    def test_below_one_refused(self, tmp_path, header, limit):
        lines = (["4 2"] if header else []) + self.ROWS
        path = write_table(tmp_path, lines)
        with pytest.raises(ValueError, match="limit must be >= 1"):
            load_embeddings(path, limit=limit)

    @pytest.mark.parametrize("header", [True, False])
    def test_counts_distinct_tokens_and_reads_no_further(self, tmp_path,
                                                         header):
        lines = (["4 2"] if header else []) + self.ROWS
        table = load_embeddings(write_table(tmp_path, lines), limit=3)
        assert list(table.vectors) == ["aa", "bb", "cc"]
        assert table.duplicates_skipped == 1  # the bad "dd" row is unread
        assert table.rows_read == 4

    def test_dropped_rows_count_toward_limit(self, tmp_path):
        path = write_table(tmp_path, self.ROWS)
        assert len(load_embeddings(path, limit=2, keep={"cc"})) == 0
        table = load_embeddings(path, limit=3, keep={"cc", "dd"})
        assert list(table.vectors) == ["cc"]


def embed(table, *videos, stopwords=None):
    """``doc_vectors`` of the ``videos``' tokens: ``(used, missed,
    vectors)``."""
    return doc_vectors([video_tokens(v, stopwords) for v in videos], table)


# Characters that try the field boundary: a combining acute accent and
# the Hangul jamo, which NFC composes with a neighbouring character, "_"
# and digits, which tokenize splits at or drops, and letters.
_FIELD = st.text("ab_9 -e\u0301\u1100\u1161\u11a8\u00e9\u00df", max_size=8)


class TestMeanVectors:
    def test_single_token_equals_table_vector(self):
        table = EmbeddingTable(dim=3, vectors={"sparql": np.array([1., 2., 3.])})
        used, missed, vectors = embed(table, video(title="SPARQL"))
        assert np.array_equal(vectors[0], table.vectors["sparql"])
        assert (used.tolist(), missed.tolist()) == ([1], [0])

    def test_mean_of_two_tokens(self):
        table = EmbeddingTable(dim=2, vectors={"aa": np.array([1., 0.]),
                                               "bb": np.array([0., 1.])})
        _, _, vectors = embed(table, video(title="aa bb"))
        assert np.array_equal(vectors[0], [0.5, 0.5])

    def test_misses_counted(self):
        table = EmbeddingTable(dim=2, vectors={
            "aa": np.array([1., 0.]), "bb": np.array([0., 1.]),
            "cc": np.array([1., 1.])})
        used, missed, vectors = embed(table, video(
            title="aa bb", tags=("cc", "dd"), abstract="ee"))
        assert (used.tolist(), missed.tolist()) == ([3], [2])
        assert np.array_equal(vectors[0], np.array([2., 2.]) / 3)

    def test_occurrences_not_types(self):
        table = EmbeddingTable(dim=2, vectors={"aa": np.array([1., 0.]),
                                               "bb": np.array([0., 1.])})
        _, _, vectors = embed(table, video(title="aa aa bb"))
        assert np.array_equal(vectors[0], [2 / 3, 1 / 3])

    def test_all_fields_contribute(self):
        table = EmbeddingTable(dim=1, vectors={"aa": np.array([3.0]),
                                               "bb": np.array([6.0]),
                                               "cc": np.array([9.0])})
        _, _, vectors = embed(table, video(title="aa", tags=("bb",),
                                           abstract="cc"))
        assert vectors[0, 0] == pytest.approx(6.0)

    def test_zero_row_when_nothing_found(self):
        table = EmbeddingTable(dim=2, vectors={"aa": np.array([1., 0.])})
        used, missed, vectors = embed(table, video(title="zz yy"))
        assert (used.tolist(), missed.tolist()) == ([0], [2])
        assert np.array_equal(vectors[0], [0.0, 0.0])

    def test_arrays_and_their_shapes(self):
        table = EmbeddingTable(dim=2, vectors={"aa": np.array([1., 0.])})
        for n in (0, 3):
            used, missed, vectors = embed(table, *[video("aa zz")] * n)
            assert used.shape == missed.shape == (n,)
            assert used.dtype == missed.dtype == np.int64
            assert vectors.shape == (n, 2) and vectors.dtype == np.float64

    def test_each_row_as_if_embedded_alone(self):
        rng = random.Random(37)
        table = random_embedding_table(rng, dim=6, n_tokens=12)
        tokens = [rng.choices([*table.vectors, "zz", "yy"],
                              k=rng.randint(0, 9)) for _ in range(20)]
        used, missed, vectors = doc_vectors(tokens, table)
        for r, toks in enumerate(tokens):
            alone = doc_vectors([toks], table)
            assert (used[r], missed[r]) == (alone[0][0], alone[1][0])
            assert np.array_equal(vectors[r].view(np.int64),
                                  alone[2][0].view(np.int64))

    def test_word_order_permutation_is_bit_exact(self):
        rng = random.Random(41)
        for _ in range(50):
            table = random_embedding_table(rng, dim=6, n_tokens=12)
            words = rng.choices(list(table.vectors), k=rng.randint(2, 10))
            shuffled = words[:]
            rng.shuffle(shuffled)
            _, _, (reference, permuted) = embed(
                table, video(title=" ".join(words)),
                video(title=" ".join(shuffled)))
            assert np.array_equal(permuted, reference)

    def test_tag_permutation_is_bit_exact(self):
        rng = random.Random(43)
        table = random_embedding_table(rng, dim=4, n_tokens=10)
        tags = tuple(rng.choices(list(table.vectors), k=6))
        _, _, (reference, permuted) = embed(table, video(tags=tags),
                                            video(tags=tags[::-1]))
        assert np.array_equal(permuted, reference)

    def test_stopwords_excluded(self):
        table = EmbeddingTable(dim=2, vectors={"aa": np.array([1., 0.]),
                                               "und": np.array([9., 9.])})
        used, _, vectors = embed(table, video(title="aa und"),
                                 stopwords={"und"})
        assert np.array_equal(vectors[0], [1.0, 0.0])
        assert used.tolist() == [1]

    def test_video_tokens_are_the_lookups(self):
        v = video(title="Daten und Netze", tags=("RDF",), abstract="daten")
        assert video_tokens(v, {"und"}) == ["daten", "netze", "rdf", "daten"]
        table = EmbeddingTable(dim=1, vectors={"daten": np.array([2.0]),
                                               "rdf": np.array([5.0])})
        used, missed, _ = embed(table, v, stopwords={"und"})
        assert (used.tolist(), missed.tolist()) == ([3], [1])

    @settings(max_examples=300, deadline=None)
    @example(title="ab\u1100", tags=["\u1161b"], abstract="")
    @example(title="ae", tags=["", "\u0301ab"], abstract="12_ab")
    @given(title=_FIELD, tags=st.lists(_FIELD, max_size=3), abstract=_FIELD)
    def test_one_call_tokenizes_as_one_per_field(self, title, tags,
                                                 abstract):
        # Joined with no separator, the first example's jamo would
        # compose into one token across the title and the tag.
        per_field = [tok for text in (title, *tags, abstract)
                     for tok in tokenize(text)]
        assert video_tokens(video(title, tags, abstract)) == per_field

    def test_stoplist_loader(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nUnd\nder\n\n", encoding="utf-8")
        assert load_stoplist(path) == {"und", "der"}


def s_text(a, b):
    """The kernel's text-route cosine of two ``(vector, tokens_used)``."""
    index = Vectors(["a", "b"], {"a": a, "b": b}).index()
    return combined_similarity(index, "a", "b").s_text


class TestTextSimilarity:
    def test_self_similarity(self):
        table = EmbeddingTable(dim=3, vectors={"aa": np.array([1., 2., 3.])})
        used, _, vectors = embed(table, video(title="aa"))
        doc = (vectors[0], used[0])
        assert s_text(doc, doc) == pytest.approx(1.0, abs=1e-12)

    def test_reference_cosine(self):
        a = (np.array([1., 2., 3.]), 1)
        b = (np.array([4., 5., 6.]), 1)
        assert s_text(a, b) == pytest.approx(0.9746318461970762, abs=1e-9)

    def test_no_token_found_is_undefined(self):
        good = (np.array([1., 0.]), 1)
        bad = (np.zeros(2), 0)
        assert s_text(good, bad) is None
        assert s_text(bad, bad) is None

    def test_symmetry_and_bounds_on_random_pairs(self):
        rng = random.Random(47)
        table = random_embedding_table(rng, dim=8, n_tokens=20)
        used, _, vectors = doc_vectors(
            [rng.choices(list(table.vectors), k=rng.randint(1, 8))
             for _ in range(12)], table)
        docs = list(zip(vectors, used))
        for a in docs:
            for b in docs:
                s = s_text(a, b)
                assert s == s_text(b, a)
                assert abs(s) <= 1 + 1e-12


class TestVectorCache:
    def test_round_trip_exact(self, tmp_path):
        rng = random.Random(53)
        table = random_embedding_table(rng, dim=5, n_tokens=10)
        used, missed, vectors = doc_vectors(
            [rng.choices(list(table.vectors), k=3) for _ in range(4)], table)
        ids = [f"v{r}" for r in range(4)]
        data = b"".join(save_doc_vectors(ids, used, missed, vectors))
        got_ids, tokens_used, got = load_doc_vectors(tmp_path / "docs.tsv",
                                                     data)
        assert got_ids == ids
        assert np.array_equal(tokens_used, used)
        assert np.array_equal(got, vectors)

    def test_malformed_row_names_line(self, tmp_path):
        out = tmp_path / "docs.tsv"
        out.write_text("v1\t1\t0\t1.0,2.0\nv2\tx\t0\t1.0,2.0\n",
                       encoding="utf-8")
        with pytest.raises(ParseError, match=r":2:"):
            load_doc_vectors(out, out.read_bytes())

    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(59)
        bits = rng.integers(0, 2**63, size=(40, 7), dtype=np.int64)
        values = bits.view(np.float64)  # every sign, exponent and mantissa
        values[~np.isfinite(values)] = 1.0
        values[0, :4] = [5e-324, -0.0, 1.7976931348623157e308, 0.1]
        ids = [f"v{r}" for r in range(len(values))]
        ones = np.ones(len(values), dtype=np.int64)
        data = b"".join(save_doc_vectors(ids, ones, ones - 1, values))
        got_ids, _, got = load_doc_vectors(tmp_path / "docs.tsv", data)
        assert got_ids == ids
        assert np.array_equal(got.view(np.int64), values.view(np.int64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_writes_the_former_writers_bytes(self, tmp_path, dtype):
        # A round trip alone would pass a writer printing 0.00001 for 1e-05.
        rng = np.random.default_rng(61)
        values = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 0.0, -1e-300,
                  123456789.0, 1e15 + 0.5, np.finfo(dtype).max]
        vectors = np.stack([
            np.concatenate([values, rng.normal(size=290)]),
            rng.normal(size=300),
            rng.normal(scale=1e-9, size=300)]).astype(dtype)
        ids = ["edge", "random", "wide"]
        used, missed = np.array([2, 1, 3]), np.array([1, 0, 4])
        ours = b"".join(save_doc_vectors(ids, used, missed, vectors))
        former = tmp_path / "former.tsv"
        former_save_doc_vectors(ids, used, missed, vectors, former)
        assert ours == former.read_bytes()
        if dtype is np.float64:
            assert ours.decode().startswith(
                "edge\t2\t1\t-0.0,5e-324,1e-05,1e+16,0.30000000000000004,")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_component_names_line(self, tmp_path, cell):
        out = tmp_path / "docs.tsv"
        out.write_text(f"v1\t1\t0\t1.0,2.0\n\nv2\t1\t0\t{cell},2.0\n",
                       encoding="utf-8")
        with pytest.raises(ParseError, match=r"docs\.tsv:3: non-finite"):
            load_doc_vectors(out, out.read_bytes())

    def test_non_numeric_component_names_line(self, tmp_path):
        out = tmp_path / "docs.tsv"
        out.write_text("v1\t1\t0\t1.0,2.0\nv2\t1\t0\t1.0,x\n",
                       encoding="utf-8")
        with pytest.raises(ParseError, match=r":2:"):
            load_doc_vectors(out, out.read_bytes())

    def test_dimension_change_names_line(self, tmp_path):
        out = tmp_path / "docs.tsv"
        out.write_text("v1\t1\t0\t1.0,2.0\nv2\t1\t0\t1.0\n",
                       encoding="utf-8")
        with pytest.raises(ParseError, match=r":2: expected 2 components"):
            load_doc_vectors(out, out.read_bytes())
