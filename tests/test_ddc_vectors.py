"""Fragment vocabulary, tf-idf rows, and their cosine in the kernel."""

from __future__ import annotations

import io
import math
import pickle
import random
import re

import numpy as np
import pytest

from lodrec import combined_similarity, ddc_vectors, enrich
from lodrec.ddc import DEFAULT_MODE, MODES, Fragment
from lodrec.ddc_vectors import (
    DDC_VECTORS_FILES,
    fragment_rows,
    load_ddc_vectors,
    save_ddc_vectors,
    save_vocabulary,
)
from lodrec.errors import LodrecError

from conftest import (
    Vectors,
    code_maps,
    former_build_vocabulary,
    former_vectorize,
    kernel_cosines,
    make_enriched,
    random_code,
    read_csr,
)

DDC_OFFSETS_FILE, DDC_DIMS_FILE, DDC_WEIGHTS_FILE = DDC_VECTORS_FILES
WORKED_EXAMPLE = ["5@1", "51@2", "57@2", "513@3", "574@3", "5133@4"]


@pytest.fixture(scope="module")
def toy_enriched(toy_corpus, toy_snapshot):
    return enrich(toy_corpus, toy_snapshot)


def rows_of(enriched):
    """The fragment list of ``fragment_rows``, and each video's row as a
    ``{dim: weight}`` map, by video id."""
    return fragment_rows(enriched)[0], code_maps(enriched)


class TestBuildVocabulary:
    def test_two_code_corpus_has_six_fragments(self):
        enriched = make_enriched({"v1": [["005.74", "005.133"]]})
        fragments, _ = rows_of(enriched)
        assert [str(f) for f in fragments] == WORKED_EXAMPLE

    def test_empty_input(self):
        assert rows_of([]) == ([], {})

    def test_duplicate_code_across_videos(self):
        enriched = make_enriched({"v1": [["005.74"]], "v2": [["005.74"]]})
        fragments, rows = rows_of(enriched)
        assert [str(f) for f in fragments] == ["5@1", "57@2", "574@3"]
        # df = 2 = n_docs for every fragment, 574@3 too: no weight anywhere
        assert rows == {"v1": {}, "v2": {}}

    def test_permutation_invariance(self, toy_enriched):
        rng = random.Random(3)
        reference = rows_of(toy_enriched)
        for _ in range(5):
            shuffled = toy_enriched[:]
            rng.shuffle(shuffled)
            assert rows_of(shuffled) == reference

    def test_fragments_distinct_sorted_and_dims_in_range(self, toy_enriched):
        fragments, rows = rows_of(toy_enriched)
        assert fragments == sorted(set(fragments))
        assert all(0 <= d < len(fragments)
                   for row in rows.values() for d in row)

    def test_n_docs_counts_codeless_videos(self):
        enriched = make_enriched({"v1": [["005.74"]], "v2": []})
        # each fragment of v1 has df 1 of n_docs 2
        assert rows_of(enriched)[1]["v1"] == {0: math.log(2), 1: math.log(2),
                                              2: math.log(2)}


class TestTermFrequency:
    """A weight divided by its idf is the fragment's occurrence count."""

    @staticmethod
    def tf(enriched, vid, fragment):
        fragments, rows = rows_of(enriched)
        _, df = former_build_vocabulary(enriched, DEFAULT_MODE)
        idf = math.log(len(enriched) / df[fragment])
        return rows[vid].get(fragments.index(fragment), 0.0) / idf

    def test_both_codes_contribute_shared_prefix(self):
        enriched = make_enriched({"v1": [["005.74", "005.133"]],
                                  "v2": [["230"]]})
        assert self.tf(enriched, "v1", Fragment(1, "5")) == 2

    def test_deep_fragment_counted_once(self):
        enriched = make_enriched({"v1": [["005.74", "005.133"]],
                                  "v2": [["230"]]})
        assert self.tf(enriched, "v1", Fragment(4, "5133")) == 1

    def test_video_without_tags_counts_zero(self):
        enriched = make_enriched({"v1": [["005.74"]], "v2": []})
        assert self.tf(enriched, "v2", Fragment(1, "5")) == 0


class TestVectorize:
    def test_everywhere_fragment_gets_no_weight(self):
        enriched = make_enriched({"v1": [["005.74"]], "v2": [["005.133"]]})
        fragments, rows = rows_of(enriched)
        shared_dim = fragments.index(Fragment(1, "5"))
        for row in rows.values():
            assert shared_dim not in row

    def test_unique_fragment_weight_is_ln2(self):
        enriched = make_enriched({"v1": [["005.74"]], "v2": [["005.133"]]})
        fragments, rows = rows_of(enriched)
        assert rows["v1"][fragments.index(Fragment(3, "574"))] == math.log(2)

    def test_codeless_video_yields_empty_vector(self):
        enriched = make_enriched({"v1": [["005.74"]], "v2": []})
        assert rows_of(enriched)[1]["v2"] == {}

    def test_weights_positive_dims_in_range(self, toy_enriched):
        fragments, ptr, dims, weights = fragment_rows(toy_enriched)
        assert ((0 <= dims) & (dims < len(fragments))).all()
        assert (weights > 0).all()

    def test_tf_reflects_tag_multiplicity(self):
        enriched = make_enriched({"v1": [["005.74"], ["005.74"]],
                                  "v2": [["005.133"]]})
        fragments, rows = rows_of(enriched)
        assert rows["v1"][fragments.index(Fragment(3, "574"))] == \
            2 * math.log(2)


def s_ddc(v_i, v_j):
    """The kernel's code-route cosine of two ``{dim: weight}`` rows."""
    docs = {vid: (np.zeros(1), 0) for vid in "ij"}
    index = Vectors(["i", "j"], docs, {"i": v_i, "j": v_j}).index()
    return combined_similarity(index, "i", "j").s_ddc


def random_coded_videos(rng: random.Random, n: int) -> list:
    """Enriched videos drawing codes from a small shared pool: codes
    repeat within a tag, across tags and across videos, and some videos
    have no tags, or tags without codes."""
    pool = [random_code(rng) for _ in range(12)]
    return make_enriched({
        f"v{i}": [rng.choices(pool, k=rng.randint(0, 3))
                  for _ in range(rng.randint(0, 4))]
        for i in range(n)})


# Corpora at the edges, by name: in all but one, every row is empty.
EDGE_CASES = {
    "no-videos": {},
    "one-video": {"v1": [["005.74", "005.133"], ["005.74"]]},
    "videos-without-codes": {"v1": [], "v2": [["005.74"]], "v3": [[]],
                             "v4": [["530", "005.133"]]},
    "empty-vocabulary": {"v1": [], "v2": [[], []]},
}


class TestSharedFragmentPath:
    """``fragment_rows`` fragments each distinct code once, and its
    vocabulary and rows equal the former per-video build (in
    tests/conftest.py)."""

    @staticmethod
    def assert_same_as_former(enriched, mode):
        fragments, df = former_build_vocabulary(enriched, mode)
        got, ptr, dims, weights = fragment_rows(enriched, mode)
        assert got == fragments
        assert (ptr.dtype, dims.dtype, weights.dtype) == \
            (np.int64, np.int64, np.float64)
        assert len(ptr) == len(enriched) + 1 and ptr[0] == 0
        for video, a, b in zip(enriched, ptr.tolist(), ptr[1:].tolist()):
            expected = former_vectorize(video, fragments, df, len(enriched),
                                        mode)
            assert list(zip(dims[a:b].tolist(), weights[a:b].tolist())) == \
                list(expected.items())

    @pytest.mark.parametrize("mode", MODES)
    def test_toy_data(self, toy_enriched, mode):
        self.assert_same_as_former(toy_enriched, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_random_videos(self, mode):
        rng = random.Random(61)
        for _ in range(40):
            self.assert_same_as_former(
                random_coded_videos(rng, rng.randint(1, 12)), mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_cases(self, case, mode):
        enriched = make_enriched(EDGE_CASES[case])
        self.assert_same_as_former(enriched, mode)
        fragments, ptr, dims, weights = fragment_rows(enriched, mode)
        empty_rows = int((np.diff(ptr) == 0).sum())
        if case == "videos-without-codes":
            assert 0 < empty_rows < len(enriched) and len(fragments) > 0
        else:  # every row empty
            assert empty_rows == len(enriched)
            assert dims.size == weights.size == 0
            assert (len(fragments) > 0) == (case == "one-video")

    @pytest.mark.parametrize("mode", MODES)
    def test_idf_is_math_log(self, mode):
        # numpy's SIMD log can differ from math.log in the last bit: with
        # AVX-512 loops it does at 21 / 20, a df of 20 in 21 videos.
        enriched = make_enriched({f"v{i}": [["530"]] if i else []
                                  for i in range(21)})
        self.assert_same_as_former(enriched, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_each_distinct_code_fragmented_once(self, monkeypatch, mode):
        calls = []
        original = ddc_vectors.fragment_code

        def counted(code, mode):
            calls.append(code.digits)
            return original(code, mode)

        monkeypatch.setattr(ddc_vectors, "fragment_code", counted)
        enriched = random_coded_videos(random.Random(67), 30)
        _, ptr, _, _ = fragment_rows(enriched, mode)
        codes = [c.digits for v in enriched for r in v.resolved
                 for c in r.ddc_codes]
        assert len(codes) > len(set(codes))
        assert sorted(calls) == sorted(set(codes))
        assert len(ptr) == len(enriched) + 1
        assert (np.diff(ptr) == 0).any()  # videos without codes: no cells


class TestCosine:
    """The kernel's cosines on raw vectors: ``s_text`` dense, ``s_ddc``
    sparse."""

    def test_self_similarity_is_one(self):
        rng = random.Random(5)
        for _ in range(20):
            dense = np.array([rng.uniform(-2, 2) for _ in range(6)])
            sparse = {i: x for i, x in enumerate(dense) if x}
            s_text, s_ddc = kernel_cosines((dense, dense), (sparse, sparse))
            assert abs(s_text - 1.0) < 1e-12
            assert abs(s_ddc - 1.0) < 1e-12

    def test_orthogonal_vectors(self):
        assert kernel_cosines(([1.0, 0.0], [0.0, 1.0]),
                              ({0: 1.0}, {1: 1.0})) == (0.0, 0.0)

    def test_reference_value(self):
        s_text, s_ddc = kernel_cosines(
            ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
            ({0: 1.0, 1: 2.0, 2: 3.0}, {0: 4.0, 1: 5.0, 2: 6.0}))
        assert s_text == pytest.approx(0.9746318461970762, abs=1e-12)
        assert s_ddc == pytest.approx(0.9746318461970762, abs=1e-12)

    def test_zero_norm_is_undefined_not_zero(self):
        assert kernel_cosines((np.zeros(3), np.ones(3)))[0] is None
        assert kernel_cosines(codes=({}, {0: 1.0}))[1] is None
        assert kernel_cosines(codes=({}, {}))[1] is None

    def test_sparse_matches_dense_brute_force(self):
        rng = random.Random(17)
        for _ in range(100):
            n_dims = rng.randint(1, 50)
            a = {d: rng.uniform(0.01, 3)
                 for d in rng.sample(range(n_dims), rng.randint(1, n_dims))}
            b = {d: rng.uniform(0.01, 3)
                 for d in rng.sample(range(n_dims), rng.randint(1, n_dims))}
            dense_a, dense_b = np.zeros(n_dims), np.zeros(n_dims)
            for d, x in a.items():
                dense_a[d] = x
            for d, x in b.items():
                dense_b[d] = x
            expected = (dense_a @ dense_b) / (
                np.linalg.norm(dense_a) * np.linalg.norm(dense_b))
            assert abs(kernel_cosines(codes=(a, b))[1] - expected) < 1e-10

    def test_sparse_summation_is_symmetric_bitwise(self):
        rng = random.Random(23)
        for _ in range(50):
            a = {d: rng.uniform(0.01, 3) for d in rng.sample(range(30), 10)}
            b = {d: rng.uniform(0.01, 3) for d in rng.sample(range(30), 10)}
            assert kernel_cosines(codes=(a, b)) == kernel_cosines(codes=(b, a))


class TestDdcSimilarity:
    def test_identical_vectors(self):
        enriched = make_enriched({"v1": [["005.74"]], "v2": [["005.74"]],
                                  "v3": [["530"]]})
        rows = code_maps(enriched)
        assert s_ddc(rows["v1"], rows["v2"]) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        enriched = make_enriched({"v1": [["230"]], "v2": [["530"]]})
        assert s_ddc(*code_maps(enriched).values()) == 0.0

    def test_empty_vector_is_undefined(self):
        enriched = make_enriched({"v1": [["005.74"]], "v2": []})
        assert s_ddc(*code_maps(enriched).values()) is None

    def test_deep_overlap_beats_shallow_overlap(self):
        # a-pair shares levels 1-3, b-pair only level 1 (which is universal
        # here, hence idf 0): specific shared ancestry must score higher.
        enriched = make_enriched({
            "a1": [["005.74"]], "a2": [["005.745"]],
            "b1": [["530"]], "b2": [["560"]],
        })
        rows = code_maps(enriched)
        deep = s_ddc(rows["a1"], rows["a2"])
        shallow = s_ddc(rows["b1"], rows["b2"])
        assert deep > shallow
        assert shallow == 0.0

    def test_symmetric_and_in_unit_interval(self, toy_enriched):
        rows = list(code_maps(toy_enriched).values())
        for i, v_i in enumerate(rows):
            for v_j in rows[i:]:
                s = s_ddc(v_i, v_j)
                assert s == s_ddc(v_j, v_i)
                if s is not None:
                    assert -1e-12 <= s <= 1 + 1e-12

    def test_tf_scaling_invariance(self):
        base = make_enriched({"v1": [["005.74"], ["510"]],
                              "v2": [["005.133"], ["510"]]})
        tripled = make_enriched({"v1": [["005.74"]] * 3 + [["510"]] * 3,
                                 "v2": [["005.133"]] * 3 + [["510"]] * 3})
        s_base = s_ddc(*code_maps(base).values())
        s_tripled = s_ddc(*code_maps(tripled).values())
        assert s_tripled == pytest.approx(s_base, abs=1e-12)


class TestSerialization:
    def test_vocabulary_file_has_one_line_per_fragment(self):
        enriched = make_enriched({"v1": [["005.74", "005.133"]]})
        lines = save_vocabulary(fragment_rows(enriched)[0]).splitlines()
        assert lines == [b"1\t5", b"2\t51", b"2\t57", b"3\t513", b"3\t574",
                         b"4\t5133"]

    def test_vector_round_trip_is_exact(self, tmp_path, toy_enriched):
        fragments, *rows = fragment_rows(toy_enriched)
        data = serialized(*rows)
        assert list(data) == list(DDC_VECTORS_FILES)
        loaded = load_ddc_vectors(tmp_path, data, len(toy_enriched),
                                  len(fragments))
        assert [a.dtype for a in loaded] == [np.intp, np.intp, np.float64]
        assert [a.tolist() for a in loaded] == [a.tolist() for a in rows]

    def test_rows_without_codes_round_trip(self, tmp_path):
        data = serialized([0, 0, 1, 1], [2], [0.5])
        ptr, dims, weights = load_ddc_vectors(tmp_path, data, 3, 3)
        assert ptr.tolist() == [0, 0, 1, 1]
        assert (dims.tolist(), weights.tolist()) == ([2], [0.5])

    def test_data_is_parsed_in_place_of_the_files(self, tmp_path):
        save_csr(tmp_path, [0, 1], [1], [0.5])
        data = serialized([0, 1], [3], [2.0])
        _, dims, weights = load_ddc_vectors(tmp_path, data, 1, 4)
        assert (dims.tolist(), weights.tolist()) == ([3], [2.0])

    def test_writes_the_former_writers_bytes(self, tmp_path, toy_enriched):
        rows = list(code_maps(toy_enriched).values())
        rows.insert(1, {})
        cells = [cell for row in rows for cell in sorted(row.items())]
        arrays = (np.cumsum([0] + [len(row) for row in rows]),
                  [d for d, _ in cells], [w for _, w in cells])
        # The former writer: one np.save per file, straight to its path.
        for (name, dtype), array in zip(DDC_VECTORS_FILES.items(), arrays):
            np.save(tmp_path / name, np.array(array, dtype=dtype),
                    allow_pickle=False)
        assert serialized(*arrays) == {
            name: (tmp_path / name).read_bytes() for name in DDC_VECTORS_FILES}


def serialized(ptr, dims, weights) -> dict[str, bytes]:
    """``save_ddc_vectors`` as the bytes of each file, by name."""
    return {name: b"".join(chunks)
            for name, chunks in save_ddc_vectors(ptr, dims, weights)}


def save_csr(directory, ptr, dims, weights, **replaced):
    """The three fragment files, with any of them given as raw bytes or
    as another array by file name."""
    arrays = dict(zip(DDC_VECTORS_FILES, (
        np.array(ptr, dtype=np.int64), np.array(dims, dtype=np.int64),
        np.array(weights, dtype=np.float64))))
    for name, value in {**arrays, **replaced}.items():
        path = directory / name
        if isinstance(value, bytes):
            path.write_bytes(value)
        else:
            np.save(path, value, allow_pickle=False)


def npy_bytes(array, allow_pickle=False) -> bytes:
    out = io.BytesIO()
    np.save(out, array, allow_pickle=allow_pickle)
    return out.getvalue()


# Two videos: the first with codes 0 and 2, the second with code 1.
PTR, DIMS, WEIGHTS = [0, 2, 3], [0, 2, 1], [1.0, 0.5, 0.25]


class TestFragmentFileRefusals:
    """``load_ddc_vectors`` refuses, naming the file and, where one row is
    at fault, the row (counted from 1)."""

    def refused(self, tmp_path, match, **replaced):
        save_csr(tmp_path, PTR, DIMS, WEIGHTS, **replaced)
        with pytest.raises(LodrecError, match=match):
            read_csr(tmp_path, len(PTR) - 1, 3)

    def test_the_unaltered_files_load(self, tmp_path):
        save_csr(tmp_path, PTR, DIMS, WEIGHTS)
        assert [a.tolist() for a in read_csr(tmp_path, 2, 3)] == \
            [PTR, DIMS, WEIGHTS]

    @pytest.mark.parametrize("data", [
        b"", b"0\t1.0\n", npy_bytes(np.array(DIMS))[:-4],
        npy_bytes(np.array(DIMS)) + b"\0",
        pickle.dumps(np.array(DIMS)),
        npy_bytes(np.array(DIMS, dtype=object), allow_pickle=True),
    ], ids=["empty", "text", "truncated", "trailing-byte", "pickle",
            "object-array"])
    def test_not_a_plain_npy(self, tmp_path, data):
        self.refused(tmp_path, r"ddc_dims\.npy: not a plain \.npy array \(",
                     **{DDC_DIMS_FILE: data})

    def test_npz(self, tmp_path):
        out = io.BytesIO()
        np.savez(out, dims=np.array(DIMS))
        self.refused(tmp_path, r"ddc_dims\.npy: not a plain \.npy array "
                     r"\(no \.npy magic string\)",
                     **{DDC_DIMS_FILE: out.getvalue()})

    @pytest.mark.parametrize("name,array,got", [
        (DDC_DIMS_FILE, np.array(DIMS, dtype=np.int32), "1-D int32"),
        (DDC_WEIGHTS_FILE, np.array(WEIGHTS, dtype=np.float32),
         "1-D float32"),
        (DDC_WEIGHTS_FILE, np.array(DIMS), "1-D int64"),
        (DDC_OFFSETS_FILE, np.array(PTR, dtype=">i8"), "1-D >i8"),
        (DDC_OFFSETS_FILE, np.array([PTR]), "2-D int64"),
        (DDC_DIMS_FILE, np.int64(3), "0-D int64"),
    ], ids=["int32-dims", "float32-weights", "int-weights",
            "big-endian-offsets", "2-D-offsets", "0-D-dims"])
    def test_wrong_dtype_or_shape(self, tmp_path, name, array, got):
        self.refused(tmp_path, rf"{re.escape(name)}: a {re.escape(got)} "
                     "array, not a 1-D (int64|float64) one",
                     **{name: array})

    @pytest.mark.parametrize("ptr", [
        [], [0, 2], [0, 2, 3, 3], [1, 2, 3], [0, 4, 3], [0, 2, 4]],
        ids=["empty", "too-few", "too-many", "not-from-0", "decreasing",
             "past-the-end"])
    def test_offsets(self, tmp_path, ptr):
        self.refused(tmp_path, r"ddc_offsets\.npy: not 3 offsets \(one per "
                     r"video, and the end\) rising from 0 to the 3 "
                     r"dimensions and 3 weights$",
                     **{DDC_OFFSETS_FILE: np.array(ptr, dtype=np.int64)})

    def test_weights_not_as_many_as_dims(self, tmp_path):
        self.refused(tmp_path, r"ddc_offsets\.npy: not 3 offsets .* to the "
                     r"3 dimensions and 2 weights$",
                     **{DDC_WEIGHTS_FILE: np.array(WEIGHTS[:2])})

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight(self, tmp_path, weight):
        # One inf weight in a row made every score of its video NaN.
        self.refused(tmp_path, rf"ddc_weights\.npy: row 2: non-finite "
                     rf"weight {re.escape(str(weight))}$",
                     **{DDC_WEIGHTS_FILE: np.array([1.0, 0.5, weight])})

    @pytest.mark.parametrize("dims,row,dim", [
        ([0, 2, -1], 2, -1), ([-3, 2, 1], 1, -3),
        ([2, 2, 1], 1, 2),  # repeats
        ([2, 0, 1], 1, 0),  # descends
    ], ids=["negative", "negative-first", "repeats", "descends"])
    def test_dimension_out_of_order(self, tmp_path, dims, row, dim):
        # A repeated dimension once loaded as one: its first weight was
        # dropped without a word.
        self.refused(tmp_path, rf"ddc_dims\.npy: row {row}: dimension "
                     r"negative, or not above the one before it in its "
                     rf"row: {dim}$", **{DDC_DIMS_FILE: np.array(dims)})

    @pytest.mark.parametrize("dims,row,dim", [
        ([0, 3, 1], 1, 3), ([0, 2, 2**62], 2, 2**62)])
    def test_dimension_past_the_vocabulary(self, tmp_path, dims, row, dim):
        self.refused(tmp_path, rf"ddc_dims\.npy: row {row}: dimension past "
                     rf"the 3 fragments of the vocabulary: {dim}$",
                     **{DDC_DIMS_FILE: np.array(dims)})

    def test_a_row_may_start_below_the_last_of_the_row_before(self,
                                                              tmp_path):
        save_csr(tmp_path, [0, 2, 2, 4], [3, 5, 0, 1], [1.0] * 4)
        assert read_csr(tmp_path, 3, 6)[1].tolist() == [3, 5, 0, 1]
