"""Combined scoring, ranking, and the similarity matrix."""

from __future__ import annotations

import io
import math
import platform
import random
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lodrec import (
    METHODS,
    WITH_LOD,
    WITHOUT_LOD,
    CorpusIndex,
    UnknownIdError,
    combined_similarity,
    engine,
    recommend,
    write_matrix_tsv,
)
from lodrec.engine import _gather, _score_row, matrix_blocks

from conftest import (
    Vectors,
    cell_by_cell_tsv,
    checkout_env,
    dense_cosine,
    former_glue,
    former_top_k,
    hierarchy_corpus,
    kernel_matrix,
    random_micro_corpus,
    sparse_cosine,
)


def brute_force_ranking(index: CorpusIndex, query: str, method: str):
    """Independent full sort: defined scores desc, ties by id, None last."""
    scored = []
    for other in index.ids:
        if other == query:
            continue
        s = combined_similarity(index, query, other)
        scored.append((other, s.for_method(method)))
    defined = sorted((p for p in scored if p[1] is not None),
                     key=lambda p: (-p[1], p[0]))
    undefined = sorted(p for p in scored if p[1] is None)
    return defined + undefined


def matrix_tsv(index: CorpusIndex, method: str = WITH_LOD) -> str:
    out = io.StringIO()
    write_matrix_tsv(index, out, method)
    return out.getvalue()


def two_doc_vectors(a, b):
    return {"i": (np.asarray(a, dtype=float), 1),
            "j": (np.asarray(b, dtype=float), 1)}


def pair_similarity(docs, codes=None, weights=engine.DEFAULT_WEIGHTS,
                    j: str = "j"):
    """``combined_similarity`` of ("i", ``j``) on an index of the videos
    "i" and "j"."""
    index = Vectors(["i", "j"], docs, codes or {}, weights).index()
    return combined_similarity(index, "i", j)


class TestCombinedSimilarity:
    def test_mean_of_both_branches(self):
        # both cosines exactly 0.8: (4,3)x(1,0) and {1.5,2}x{0,2.5}
        docs = two_doc_vectors([4.0, 3.0], [1.0, 0.0])
        s = pair_similarity(docs, {"i": {0: 1.5, 1: 2.0}, "j": {1: 2.5}})
        assert s.s_text == 0.8
        assert s.s_ddc == 0.8
        assert s.s_lod == 0.8
        assert s.s_lod == (s.s_text + s.s_ddc) / 2
        assert not s.fallback_applied

    def test_fallback_to_text_branch(self):
        docs = two_doc_vectors([4.0, 3.0], [1.0, 0.0])
        s = pair_similarity(docs, {"i": {0: 1.0}, "j": {}})
        assert s.s_ddc is None
        assert s.s_lod == s.s_text == 0.8
        assert s.fallback_applied

    def test_fallback_to_fragment_branch(self):
        docs = {"i": (np.zeros(2), 0), "j": (np.array([1.0, 0.0]), 1)}
        s = pair_similarity(docs, {"i": {0: 1.0}, "j": {0: 2.0}})
        assert s.s_text is None
        assert s.s_lod == s.s_ddc == pytest.approx(1.0, abs=1e-12)
        assert s.fallback_applied

    def test_both_undefined(self):
        docs = {"i": (np.zeros(2), 0), "j": (np.zeros(2), 0)}
        s = pair_similarity(docs)
        assert s.s_lod is None
        assert not s.fallback_applied

    def test_self_pair_scores_one(self):
        docs = two_doc_vectors([1.0, 2.0], [1.0, 2.0])
        s = pair_similarity(docs, {"i": {0: 1.0, 2: 0.5},
                                   "j": {0: 1.0, 2: 0.5}})
        assert s.s_lod == pytest.approx(1.0, abs=1e-12)

    def test_exact_mean_invariant_on_random_indices(self):
        rng = random.Random(61)
        for _ in range(20):
            index = random_micro_corpus(rng).index()
            for i in index.ids:
                for j in index.ids:
                    s = combined_similarity(index, i, j)
                    if s.s_text is not None and s.s_ddc is not None:
                        assert s.s_lod == (s.s_text + s.s_ddc) / 2
                        assert not s.fallback_applied

    def test_custom_weights(self):
        docs = two_doc_vectors([4.0, 3.0], [1.0, 0.0])
        ddc = {"i": {0: 1.0}, "j": {0: 3.0}}
        s = pair_similarity(docs, ddc, weights=(1.0, 3.0))
        assert s.s_lod == (1.0 * s.s_text + 3.0 * s.s_ddc) / 4.0

    def test_unknown_id_rejected(self):
        docs = two_doc_vectors([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(UnknownIdError, match="ghost"):
            pair_similarity(docs, j="ghost")

    @pytest.mark.parametrize("weights", [(-1.0, 1.0), (0.0, 0.0)])
    def test_invalid_weights_rejected(self, weights):
        docs = two_doc_vectors([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            pair_similarity(docs, weights=weights)

    @pytest.mark.parametrize("weights", [(math.nan, 0.5), (0.5, math.inf)])
    def test_non_finite_weights_rejected(self, weights):
        # A NaN weight made every score NaN and the ranking arbitrary.
        docs = two_doc_vectors([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            pair_similarity(docs, weights=weights)


class TestKernel:
    @pytest.mark.parametrize("weights", [
        (math.nan, 1.0), (1.0, math.nan), (0.5, math.inf), (-1.0, 1.0),
        (0.0, 0.0)])
    def test_index_refuses_bad_weights_at_construction(self, weights):
        # Refused before any query: recommend and matrix never see them.
        base = hierarchy_corpus()
        with pytest.raises(ValueError, match="finite"):
            replace(base, weights=weights).index()

    def test_routes_match_scalar_oracles(self):
        """Each route of the kernel agrees with the reference cosine of
        ``conftest`` (numpy for text, ``fsum`` for codes) within 1e-10, on
        acceptance 4's 100 random micro-corpora."""
        rng = random.Random(103)
        for _ in range(100):
            corpus = random_micro_corpus(rng)
            index = corpus.index()
            for i in index.ids:
                for j in index.ids:
                    s = combined_similarity(index, i, j)
                    (v_i, used_i), (v_j, used_j) = (corpus.docs[i],
                                                    corpus.docs[j])
                    text_ref = (None if used_i == 0 or used_j == 0
                                else dense_cosine(v_i, v_j))
                    for got, ref in (
                            (s.s_text, text_ref),
                            (s.s_ddc, sparse_cosine(
                                corpus.codes[i], corpus.codes[j]))):
                        if ref is None:
                            assert got is None
                        else:
                            assert abs(got - ref) <= 1e-10
            # the draws acceptance 4 makes, so the next corpus is the same
            rng.choice(index.ids)
            rng.randint(1, len(index) - 1)

    @pytest.mark.parametrize("dim", [engine.MAX_TEXT_DIM,
                                     engine.MAX_TEXT_DIM + 1])
    def test_text_dimension_limit_at_construction(self, dim):
        # OpenBLAS splits a ddot longer than 10,000 across its threads.
        assert engine.MAX_TEXT_DIM == 10_000
        rng = np.random.default_rng(71)
        docs = {vid: (rng.normal(size=dim), 1) for vid in ("a", "b")}
        if dim <= engine.MAX_TEXT_DIM:
            index = Vectors(["a", "b"], docs).index()
            s = combined_similarity(index, "a", "b")
            assert s.s_text == _score_row(index, 0)[0][1]
            return
        message = (f"word vectors have dimension {dim}, above the limit of "
                   "10000: OpenBLAS splits a longer dot product across its "
                   "threads")
        with pytest.raises(ValueError, match=message):
            Vectors(["a", "b"], docs).index()

    @pytest.mark.parametrize("ptr, dims, match", [
        ([0, 2, 3], [4, 4, 1], "strictly ascending"),  # a repeated dimension
        ([0, 2, 3], [4, 1, 1], "strictly ascending"),  # a descending one
        ([0, 1, 2], [-1, 0], "non-negative"),
        ([0, 1], [0], "disagree on the number of rows"),  # one row short
        ([0, 1, 3], [0, 1], "disagree on the number of rows"),
    ])
    def test_index_refuses_malformed_code_rows(self, ptr, dims, match):
        # Rows are read by position, and each row's dimensions in order.
        with pytest.raises(ValueError, match=match):
            CorpusIndex(["a", "b"], np.ones((2, 3)), np.ones(2),
                        np.array(ptr), np.array(dims),
                        np.ones(len(dims)))

    @pytest.mark.parametrize("dim", [1, 3, 300])
    def test_unit_rows_start_on_a_64_byte_boundary(self, dim):
        # Whatever the heap layout: the query speed depends on it.
        for n in (1, 2, 7):
            index = _random_text_corpus(np.random.default_rng(n), n=n,
                                        dim=dim).index()
            assert index.unit_text.ctypes.data % 64 == 0
            assert index.unit_text.flags.c_contiguous

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_gather_matches_its_former_formula(self, data):
        """``_gather`` gives, for any range of whole rows, the bits of the
        terms that the kernel first gathered through positions computed
        from the postings' offsets at each query."""

        def former_gather(index, lo, hi):
            q_dims = index.row_dim[lo:hi]
            starts = index.dim_ptr[q_dims]
            counts = index.dim_ptr[q_dims + 1] - starts
            take = (np.repeat(starts - np.cumsum(counts) + counts, counts)
                    + np.arange(counts.sum()))
            return index.post_row[take], index.post_weight[take] * np.repeat(
                index.row_weight[lo:hi], counts)

        n = data.draw(st.integers(1, 12))
        n_dims = data.draw(st.integers(0, 6))
        rows = [data.draw(st.dictionaries(
            st.integers(0, n_dims - 1), st.sampled_from([0.0, 0.5, 1.0, 2.0]),
            max_size=n_dims)) if n_dims else {} for _ in range(n)]
        index = CorpusIndex(
            [f"v{r}" for r in range(n)], np.ones((n, 1)), np.ones(n),
            np.concatenate(([0], np.cumsum([len(row) for row in rows]))),
            np.array([d for row in rows for d in sorted(row)], dtype=np.intp),
            np.array([row[d] for row in rows for d in sorted(row)],
                     dtype=np.float64))
        # One row, the first and the last among them, any block of rows,
        # and the whole index.
        for start in range(n + 1):
            for stop in range(start, n + 1):
                lo, hi = index.row_ptr[start], index.row_ptr[stop]
                for new, old in zip(_gather(index, lo, hi),
                                    former_gather(index, lo, hi)):
                    assert np.array_equal(_bits(new), _bits(old))

    def test_index_rejects_non_finite_vectors(self):
        base = hierarchy_corpus()
        docs = dict(base.docs)
        docs["a2"] = (np.array([1.0, np.nan, 0.0, 0.0]), 1)
        with pytest.raises(ValueError, match="non-finite"):
            replace(base, docs=docs).index()


def _with_ghost(corpus: Vectors) -> Vectors:
    """``corpus`` plus a video with neither text nor fragment evidence."""
    dim = next(iter(corpus.docs.values()))[0].shape[0]
    return replace(
        corpus, ids=corpus.ids + ["ghost"],
        docs={**corpus.docs, "ghost": (np.zeros(dim), 0)},
        codes={**corpus.codes, "ghost": {}})


class TestRecommend:
    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(67)
        for _ in range(30):
            index = random_micro_corpus(rng).index()
            query = rng.choice(index.ids)
            k = rng.randint(1, len(index) - 1)
            for method in (WITH_LOD, WITHOUT_LOD):
                expected = brute_force_ranking(index, query, method)[:k]
                got = recommend(query, index, k, method=method)
                assert got.ranked == expected

    def test_full_k_returns_all_candidates(self):
        index = hierarchy_corpus().index()
        rec = recommend("a1", index, k=3)
        assert len(rec.ranked) == 3
        assert "a1" not in [vid for vid, _ in rec.ranked]

    def test_ties_break_by_ascending_id(self):
        index = hierarchy_corpus().index()
        # b1 and b2 tie for a1 under without_lod (identical text evidence)
        rec = recommend("a1", index, k=3, method=WITHOUT_LOD)
        assert [vid for vid, _ in rec.ranked] == ["a2", "b1", "b2"]

    def test_k_out_of_range(self):
        index = hierarchy_corpus().index()
        with pytest.raises(ValueError):
            recommend("a1", index, k=0)
        with pytest.raises(ValueError):
            recommend("a1", index, k=4)

    def test_unknown_query(self):
        with pytest.raises(UnknownIdError):
            recommend("nope", hierarchy_corpus().index(), k=1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            recommend("a1", hierarchy_corpus().index(), k=1, method="hybrid")

    def test_methods_agree_when_fragment_branch_is_undefined(self):
        rng = random.Random(71)
        for _ in range(20):
            index = random_micro_corpus(rng).index()
            for i in index.ids:
                for j in index.ids:
                    if i == j:
                        continue
                    s = combined_similarity(index, i, j)
                    if s.s_ddc is None:
                        assert s.for_method(WITH_LOD) == \
                            s.for_method(WITHOUT_LOD)

    def test_repeat_runs_are_bit_identical(self):
        index = hierarchy_corpus().index()
        first = recommend("a1", index, k=3)
        second = recommend("a1", index, k=3)
        assert first.ranked == second.ranked

    def test_json_shape(self):
        rec = recommend("a1", hierarchy_corpus().index(), k=2)
        obj = rec.to_json_obj()
        assert set(obj) == {"query", "method", "k", "results"}
        assert all(set(r) == {"id", "score"} for r in obj["results"])

    def test_a_miss_scores_its_row_once(self, monkeypatch):
        """A ``with_lod`` miss makes one text product if its query has
        text and none if not, and one code sum over the postings of the
        query's dimensions if it has codes and none if not."""
        index = _three_block_index()
        n = len(index)
        dims = [_dims(index, r) for r in range(n)]
        df = {d: sum(d in row for row in dims) for d in set().union(*dims)}
        text_cells, code_terms = _count_kernel_calls(monkeypatch)
        for q, query in enumerate(index.ids):
            text_cells.clear()
            code_terms.clear()
            recommend(query, index, 10, WITH_LOD)
            assert text_cells == ([n] if index.has_text[q] else [])
            assert code_terms == ([(sum(df[d] for d in dims[q]), n)]
                                  if index.has_codes[q] else [])


def _count_kernel_calls(monkeypatch) -> tuple[list, list]:
    """Patch ``np.vecdot`` and ``np.bincount`` to record, per call, the
    rows of the text product and the (terms, minlength) of the code
    sum, in two lists that the caller reads."""
    vecdot, bincount = np.vecdot, np.bincount
    text_cells, code_terms = [], []

    def counting_vecdot(a, b, **kwargs):
        text_cells.append(len(a))
        return vecdot(a, b, **kwargs)

    def counting_bincount(x, weights=None, minlength=0):
        code_terms.append((len(x), minlength))
        return bincount(x, weights, minlength)

    monkeypatch.setattr(np, "vecdot", counting_vecdot)
    monkeypatch.setattr(np, "bincount", counting_bincount)
    return text_cells, code_terms


def _dims(index: CorpusIndex, r: int) -> set[int]:
    """Row ``r``'s fragment dimensions."""
    return set(index.row_dim[index.row_ptr[r]:index.row_ptr[r + 1]].tolist())


class TestHierarchySensitivity:
    def test_deep_shared_fragment_outranks_shallow(self):
        index = hierarchy_corpus().index()
        deep = combined_similarity(index, "a1", "a2")
        shallow = combined_similarity(index, "b1", "b2")
        # text branches identical, so only fragment evidence separates them
        assert deep.s_text == shallow.s_text
        assert deep.for_method(WITH_LOD) > shallow.for_method(WITH_LOD)
        assert deep.for_method(WITHOUT_LOD) == shallow.for_method(WITHOUT_LOD)


class TestSimilarityMatrix:
    def test_symmetric_with_unit_diagonal(self):
        index = hierarchy_corpus().index()
        matrix = kernel_matrix(index, WITH_LOD)
        assert np.array_equal(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0, atol=1e-12)

    def test_elementwise_oracle(self):
        rng = random.Random(73)
        index = random_micro_corpus(rng).index()
        matrix = kernel_matrix(index, WITH_LOD)
        for r, i in enumerate(index.ids):
            for c, j in enumerate(index.ids):
                s = combined_similarity(index, i, j)
                expected = s.for_method(WITH_LOD)
                if expected is None:
                    assert np.isnan(matrix[r, c])
                else:
                    assert matrix[r, c] == expected

    def test_no_evidence_video_row_is_all_undefined(self):
        index = _with_ghost(hierarchy_corpus()).index()
        matrix = kernel_matrix(index, WITH_LOD)
        assert np.all(np.isnan(matrix[-1]))
        assert np.all(np.isnan(matrix[:, -1]))

    def test_symmetric_and_equal_to_recommend(self):
        rng = random.Random(83)
        for _ in range(20):
            index = _with_ghost(random_micro_corpus(rng)).index()
            for method in (WITH_LOD, WITHOUT_LOD):
                matrix = kernel_matrix(index, method)
                assert np.array_equal(matrix, matrix.T, equal_nan=True)
                for r, query in enumerate(index.ids):
                    rec = recommend(query, index, len(index) - 1, method)
                    for vid, score in rec.ranked:
                        cell = matrix[r, index.ids.index(vid)]
                        if score is None:
                            assert np.isnan(cell)
                        else:
                            assert score == cell
            assert np.all(np.isnan(matrix[-1]))

    def test_tsv_is_the_cell_by_cell_format(self):
        """Pins the output of the former cell-by-cell writer, byte for byte."""
        index = _with_ghost(random_micro_corpus(random.Random(89))).index()
        matrix = kernel_matrix(index, WITH_LOD)
        lines = ["\t" + "\t".join(index.ids)]
        for r, vid in enumerate(index.ids):
            cells = ["" if np.isnan(matrix[r, c])
                     else repr(float(matrix[r, c]))
                     for c in range(len(index.ids))]
            lines.append(vid + "\t" + "\t".join(cells))
        assert matrix_tsv(index) == "\n".join(lines) + "\n"

    def test_tsv_export(self):
        index = _with_ghost(hierarchy_corpus()).index()
        text = matrix_tsv(index)
        lines = text.strip("\n").split("\n")
        assert lines[0].split("\t") == ["", "a1", "a2", "b1", "b2", "ghost"]
        last = lines[-1].split("\t")
        assert last[0] == "ghost"
        assert all(cell == "" for cell in last[1:])
        a1_row = lines[1].split("\t")
        assert float(a1_row[1]) == pytest.approx(1.0, abs=1e-12)


def _bits(a) -> np.ndarray:
    """The IEEE bit patterns of ``a``: equal only if every bit is."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _ranked_bits(ranked):
    return [(vid, None if s is None else _bits(s).item()) for vid, s in ranked]


def lexsort_ranking(scores: np.ndarray, q: int, ids: list[str], k: int):
    """The former selection: one 3-key ``np.lexsort`` over every row
    (undefined last, then descending score, then ascending id), the
    query's row dropped, the first k kept."""
    rank = {vid: r for r, vid in enumerate(sorted(ids))}
    id_rank = np.array([rank[vid] for vid in ids])
    undefined = np.isnan(scores)
    order = np.lexsort((id_rank, np.where(undefined, 0.0, -scores),
                        undefined))
    order = order[order != q][:k]
    return [(ids[c], None if undefined[c] else float(scores[c]))
            for c in order.tolist()]


def _with_reuploads(corpus: Vectors, vids: list[str],
                    rng: random.Random) -> Vectors:
    """``corpus`` plus two copies of each of ``vids`` at random places, as
    ``a_<id>`` and ``<id>_re``, so their scores tie exactly."""
    ids = list(corpus.ids)
    docs, codes = dict(corpus.docs), dict(corpus.codes)
    for vid in vids:
        for copy in (f"a_{vid}", f"{vid}_re"):
            ids.insert(rng.randint(0, len(ids)), copy)
            docs[copy] = docs[vid]
            if vid in codes:
                codes[copy] = codes[vid]
    return replace(corpus, ids=ids, docs=docs, codes=codes)


_SCORE_POOL = [math.nan, 0.0, -0.0, 0.5, -0.5, 1.0, 0.25]


class TestSelection:
    """``recommend`` keeps the rows at or below the k-th key of a
    partition; it must return the full lexsort's top k exactly."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_partition_matches_full_lexsort(self, data):
        n = data.draw(st.integers(2, 12))
        scores = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(_SCORE_POOL), st.floats(-1, 1)),
            min_size=n, max_size=n)))
        ids = data.draw(st.permutations([f"v{i:02d}" for i in range(n)]))
        q = data.draw(st.integers(0, n - 1))
        index = Vectors(ids, {vid: (np.ones(1), 1) for vid in ids}).index()
        with mock.patch.object(engine, "_method_scores",
                               lambda *_: scores.copy()):
            for method in METHODS:
                for k in range(1, n):
                    rec = recommend(ids[q], index, k, method)
                    assert _ranked_bits(rec.ranked) == _ranked_bits(
                        lexsort_ranking(scores, q, ids, k))

    def test_recommend_matches_full_lexsort_on_micro_indexes(self):
        rng = random.Random(109)
        for _ in range(25):
            corpus = random_micro_corpus(rng)
            index = _with_ghost(_with_reuploads(
                corpus, rng.sample(corpus.ids, min(3, len(corpus.ids))),
                rng)).index()
            for method in METHODS:
                matrix = kernel_matrix(index, method)
                for q, query in enumerate(index.ids):
                    for k in range(1, len(index)):
                        rec = recommend(query, index, k, method)
                        assert _ranked_bits(rec.ranked) == _ranked_bits(
                            lexsort_ranking(matrix[q], q, index.ids, k))

    def test_glue_keeps_its_bits_on_micro_indexes(self):
        """The NaN fills, the combine, the fallback mask and the order key
        give the bits of their first form (``conftest.former_glue`` and
        ``former_top_k``) from the same text products, for both methods,
        with a ghost video and re-uploads in every index."""
        rng = random.Random(113)
        for _ in range(25):
            base = replace(
                random_micro_corpus(rng),
                weights=rng.choice([(0.5, 0.5), (0.3, 0.9), (1.0, 0.0)]))
            index = _with_ghost(_with_reuploads(
                base, rng.sample(base.ids, min(3, len(base.ids))),
                rng)).index()
            for q, query in enumerate(index.ids):
                text_dots = np.vecdot(index.unit_text, index.unit_text[q])
                s_text, s_ddc, s_lod, fallback = former_glue(
                    index, q, index.weights, text_dots)
                got = _score_row(index, q)
                for new, old in zip(got, (s_text, s_ddc, s_lod)):
                    assert np.array_equal(_bits(new), _bits(old))
                text_only = _score_row(index, q, WITHOUT_LOD)
                assert np.array_equal(_bits(text_only[0]), _bits(s_text))
                assert text_only[1:] == (None, None)
                assert [combined_similarity(index, query, vid)
                        .fallback_applied
                        for vid in index.ids] == fallback.tolist()
                for method, scores in ((WITH_LOD, s_lod),
                                       (WITHOUT_LOD, s_text)):
                    for k in range(1, len(index)):
                        rec = recommend(query, index, k, method)
                        assert _ranked_bits(rec.ranked) == _ranked_bits(
                            former_top_k(scores, q, index.ids,
                                         index.id_rank, k))

    def test_ties_straddle_the_kth_place(self):
        corpus = _with_reuploads(hierarchy_corpus(), ["a2"], random.Random(3))
        full = recommend("a1", corpus.index(), len(corpus.ids) - 1).ranked
        assert [vid for vid, _ in full[:3]] == ["a2", "a2_re", "a_a2"]
        assert full[0][1] == full[1][1] == full[2][1] > full[3][1]
        for k in (1, 2, 3):
            assert recommend("a1", corpus.index(), k).ranked == full[:k]
        # A stored list that ends inside the three-way tie: k = 3 selects
        # afresh past it, and k = 1 and 2 cut the longer list it leaves.
        index = corpus.index()
        for k in (2, 3, 1, 2):
            assert recommend("a1", index, k).ranked == full[:k]


def _memo_corpora():
    """The hierarchy corpus, then seeded random micro corpora with
    re-uploads (exact ties) and a video with no evidence."""
    yield hierarchy_corpus()
    rng = random.Random(131)
    for _ in range(12):
        corpus = random_micro_corpus(rng)
        yield _with_ghost(_with_reuploads(
            corpus, rng.sample(corpus.ids, min(2, len(corpus.ids))), rng))


class TestMemo:
    """An index answers a repeated (query, method) from its memo of the
    largest answer given for that row; those answers must be the scored
    ones."""

    def test_warm_answers_equal_fresh_ones(self):
        rng = random.Random(139)
        for corpus in _memo_corpora():
            n = len(corpus.ids)
            # Each fresh index answers each (query, method) once.
            fresh = {}
            for k in range(1, n):
                index = corpus.index()
                for method in METHODS:
                    for query in corpus.ids:
                        fresh[query, method, k] = _ranked_bits(
                            recommend(query, index, k, method).ranked)
            shuffled = rng.sample(range(1, n), n - 1)
            for first in sorted({1, min(3, n - 1), n - 1}):
                for ks in (range(1, n), range(n - 1, 0, -1), shuffled):
                    warm = corpus.index()
                    for k in (first, *ks):
                        for method in METHODS:
                            for query in corpus.ids:
                                rec = recommend(query, warm, k, method)
                                assert (_ranked_bits(rec.ranked)
                                        == fresh[query, method, k])
                    assert len(warm._top) == 2 * n

    def test_changing_an_answer_changes_no_other(self):
        index = hierarchy_corpus().index()
        expected = recommend("a1", index, 3).ranked.copy()
        first = recommend("a1", index, 3)
        first.ranked[0] = ("b2", 0.0)
        first.ranked.reverse()
        first.ranked.append(("zz", 1.0))
        second = recommend("a1", index, 2)
        second.ranked.clear()
        second.k, second.query_id, second.method = 0, "b1", WITHOUT_LOD
        second.ranked = [("zz", 1.0)]
        again = recommend("a1", index, 3)
        assert again.ranked == expected
        assert recommend("a1", index, 2).ranked == expected[:2]
        assert (again.query_id, again.method, again.k) == ("a1", WITH_LOD, 3)

    def test_bad_calls_still_raise_on_a_warm_memo(self):
        index = hierarchy_corpus().index()
        for method in METHODS:
            for query in index.ids:
                recommend(query, index, 3, method)
        with pytest.raises(UnknownIdError):
            recommend("nope", index, 1)
        for k in (0, -1, 4):
            with pytest.raises(ValueError, match="out of range"):
                recommend("a1", index, k)
        with pytest.raises(ValueError, match="unknown method"):
            recommend("a1", index, 1, method="hybrid")

    def test_memo_holds_no_more_than_was_asked(self):
        """At most one list per (row, method).  Until the memo answers a
        call, each is as long as the largest k asked of its row; after,
        none is longer than the largest k asked of its method."""
        rng = random.Random(137)
        for corpus in _memo_corpora():
            n = len(corpus.ids)
            index = corpus.index()
            largest, per_method, repeated = {}, {}, False
            for _ in range(6 * n):
                query, method = rng.choice(corpus.ids), rng.choice(METHODS)
                k = rng.randint(1, n - 1)
                row = index.position(query), method
                repeated = repeated or len(index._top.get(row, ())) >= k
                recommend(query, index, k, method)
                largest[row] = max(k, largest.get(row, 0))
                per_method[method] = max(k, per_method.get(method, 0))
                held = {row: len(top) for row, top in index._top.items()}
                assert len(held) <= 2 * n
                if not repeated:
                    assert held == largest
                assert all(held[row] >= size for row, size in largest.items())
                assert all(size <= per_method[method]
                           for (_, method), size in held.items())

    def test_a_miss_fills_its_block_once_the_memo_has_answered(
            self, monkeypatch):
        corpus = max(_memo_corpora(), key=lambda c: len(c.ids))
        n = len(corpus.ids)
        fresh = {(query, method, k): recommend(query, corpus.index(), k,
                                               method).ranked
                 for query in corpus.ids for method in METHODS
                 for k in (2, 3)}
        scored = []
        kernel = engine._score_row

        def counted(index, q, method=WITH_LOD):
            scored.append(q)
            return kernel(index, q, method)
        monkeypatch.setattr(engine, "_score_row", counted)
        for size in (1, 2, 3, 4, n):
            monkeypatch.setattr(engine, "MATRIX_BLOCK_ROWS", size)
            index = corpus.index()

            def ask(query, k, method=WITH_LOD):
                scored.clear()
                assert recommend(query, index, k, method).ranked \
                    == fresh[query, method, k][:k]
                return scored.copy()

            def block(q, k, method=WITH_LOD):
                """The rows a call on row ``q`` scores, in order."""
                def short(r):
                    return len(index._top.get((r, method), ())) < k
                if not short(q):
                    return []
                start = q - q % size
                return [q] + [r for r in range(start, min(start + size, n))
                              if r != q and short(r)]

            # A caller that asks each query once scores only its rows.
            for q, query in enumerate(corpus.ids[:3]):
                assert ask(query, 2) == [q]
            assert ask(corpus.ids[0], 2) == []
            for q in (n - 1, 4, 5):
                expected = block(q, 2)
                assert ask(corpus.ids[q], 2) == expected
                start = q - q % size
                assert all((r, WITH_LOD) in index._top
                           for r in range(start, min(start + size, n)))
                for r in expected:
                    assert ask(corpus.ids[r], 2) == []
            expected = block(4, 3)
            assert ask(corpus.ids[4], 3) == expected
            expected = block(4, 2, WITHOUT_LOD)
            assert ask(corpus.ids[4], 2, WITHOUT_LOD) == expected
            assert len(index._top) <= 2 * n
            assert all(len(top) <= 3 for top in index._top.values())

    def test_a_hit_runs_no_kernel(self, monkeypatch):
        index = hierarchy_corpus().index()
        answers = {(query, method, k): recommend(query, index, k, method)
                   for query in index.ids for method in METHODS
                   for k in (1, 2)}

        def no_kernel(*_):
            raise AssertionError("the kernel ran")
        monkeypatch.setattr(engine, "_score_row", no_kernel)
        for (query, method, k), first in answers.items():
            assert recommend(query, index, k, method) == first
        with pytest.raises(AssertionError, match="the kernel ran"):
            recommend("a1", index, 3)  # longer than the stored list


def _random_text_corpus(rng: np.random.Generator, n: int = 160,
                        dim: int = 300) -> Vectors:
    """Random doc vectors, some zero and some with no token found."""
    docs = {}
    for r in range(n):
        vid = f"d{r:03d}"
        kind = rng.random()
        vector = np.zeros(dim) if kind < 0.05 else rng.normal(size=dim)
        docs[vid] = (vector, 0 if kind > 0.95 else 1)
    return Vectors(list(docs), docs)


ODD_AND_EVEN_DIMS = [1, 3, 7, 300, 301]


class TestTextRoute:
    """A text score is one ``ddot`` of its two rows: the same bits in any
    row subset, in either order, at every row length (an odd D starts
    the rows at different alignments), and close to the former row-wise
    product.  A BLAS mat-vec (``U @ U[q]``, ``einsum`` with
    ``optimize``) fails the subset check."""

    @pytest.mark.parametrize("dim", ODD_AND_EVEN_DIMS)
    def test_subset_rows_keep_their_bits(self, dim):
        rng = np.random.default_rng(97)
        full = _random_text_corpus(rng, dim=dim)
        matrix = kernel_matrix(full.index(), WITHOUT_LOD)
        n = len(full.ids)
        for _ in range(60):
            rows = rng.permutation(n)[:rng.integers(1, n + 1)]
            sub = replace(full, ids=[full.ids[r] for r in rows]).index()
            for q in rng.permutation(len(rows))[:4].tolist():
                s_text = _score_row(sub, q)[0]
                assert np.array_equal(_bits(s_text),
                                      _bits(matrix[rows[q], rows]))

    @pytest.mark.parametrize("dim", ODD_AND_EVEN_DIMS)
    def test_exactly_symmetric(self, dim):
        matrix = kernel_matrix(_random_text_corpus(
            np.random.default_rng(101), dim=dim).index(), WITHOUT_LOD)
        assert np.array_equal(_bits(matrix), _bits(matrix.T))

    def test_pair_scores_equal_the_recommend_row_at_odd_dim(self):
        rng = np.random.default_rng(107)
        text = _random_text_corpus(rng, n=60, dim=301)
        codes = {vid: {int(d): float(rng.random())
                       for d in rng.choice(12, 3)}
                 for vid in text.ids if rng.random() < 0.7}
        index = replace(text, codes=codes, weights=(0.3, 0.9)).index()
        for query in rng.choice(index.ids, 8, replace=False).tolist():
            for method in METHODS:
                ranked = recommend(query, index, len(index) - 1,
                                   method).ranked
                pairs = [(vid, combined_similarity(index, query, vid)
                          .for_method(method)) for vid, _ in ranked]
                assert _ranked_bits(pairs) == _ranked_bits(ranked)

    def test_within_1e15_of_the_former_rowwise_product(self):
        index = _random_text_corpus(np.random.default_rng(103)).index()
        matrix = kernel_matrix(index, WITHOUT_LOD)
        assert not index.has_text.all() and index.has_text.any()
        for q in range(len(index)):
            if not index.has_text[q]:
                assert np.isnan(matrix[q]).all()
                continue
            former = (index.unit_text * index.unit_text[q]).sum(axis=1)
            assert np.array_equal(np.isnan(matrix[q]), ~index.has_text)
            assert np.abs(matrix[q] - former)[index.has_text].max() <= 1e-15


def _one_video_index() -> CorpusIndex:
    return Vectors(["solo"], {"solo": (np.array([0.3, -0.4]), 1)}).index()


def _three_block_index() -> CorpusIndex:
    """130 videos, so 3 blocks at the default size, the last of 2 rows:
    random text (some rows undefined), random codes on most videos,
    unequal weights, two videos uploaded twice more (exact ties) and a
    video with no evidence."""
    rng = np.random.default_rng(137)
    text = _random_text_corpus(rng, n=125, dim=7)
    codes = {vid: {int(d): float(rng.random())
                   for d in rng.choice(12, 3)}
             for vid in text.ids if rng.random() < 0.7}
    corpus = replace(text, codes=codes, weights=(0.3, 0.9))
    return _with_ghost(_with_reuploads(
        corpus, ["d004", "d077"], random.Random(139))).index()


def _one_route_blocks_index() -> CorpusIndex:
    """150 videos, so 3 blocks at the default size: no video of the first
    block has codes, no video of the second has text, and most videos of
    the third have both."""
    rng = np.random.default_rng(151)
    corpus = _random_text_corpus(rng, n=150, dim=7)
    rows = engine.MATRIX_BLOCK_ROWS
    docs = {vid: (vector, 0) if rows <= r < 2 * rows else (vector, used)
            for r, (vid, (vector, used)) in enumerate(corpus.docs.items())}
    codes = {vid: {int(d): float(rng.random())
                   for d in rng.choice(12, 3)}
             for vid in corpus.ids[rows:] if rng.random() < 0.8}
    return replace(corpus, docs=docs, codes=codes).index()


def matrix_writer_bound(n: int, rows: int) -> int:
    """The bound README states on ``write_matrix_tsv``'s peak memory, in
    bytes, for N = ``n`` videos in blocks of ``rows``: 25 bytes for each
    of the at most ceil(N/2) * floor(N/2) cells whose text it holds, 64
    for each string that holds ``rows`` of them, and 192 for each cell
    of the block it formats."""
    held = (n + 1) // 2 * (n // 2)
    return 25 * held + 64 * (held // rows + n) + 192 * rows * n


class TestStreamedMatrix:
    """``lodrec matrix`` formats and writes one block of kernel rows at a
    time, and formats each unordered pair once; neither the bytes nor the
    matrix depend on the block size."""

    @pytest.mark.parametrize("make", [
        lambda: _with_ghost(random_micro_corpus(random.Random(89))).index(),
        lambda: _with_ghost(hierarchy_corpus()).index(),
        _one_video_index,
        _three_block_index,
        _one_route_blocks_index,
    ], ids=["micro_ghost", "hierarchy_ghost", "one_video", "three_blocks",
            "one_route_blocks"])
    def test_bytes_do_not_depend_on_block_size(self, monkeypatch, make):
        index = make()
        n = len(index)
        default = engine.MATRIX_BLOCK_ROWS
        for method in METHODS:
            dense = kernel_matrix(index, method)
            expected = cell_by_cell_tsv(index.ids, dense)
            assert expected.startswith("\t" + "\t".join(index.ids) + "\n")
            for rows in sorted({1, 2, 3, default, n - 1, n, n + 1} - {0}):
                monkeypatch.setattr(engine, "MATRIX_BLOCK_ROWS", rows)
                start = 0
                for block in matrix_blocks(index, method):
                    stop = min(start + rows, n)
                    assert block.dtype == np.float64
                    assert np.array_equal(_bits(block),
                                          _bits(dense[start:stop, start:]))
                    start = stop
                assert start == n
                assert matrix_tsv(index, method) == expected

    def test_one_route_blocks_index_has_what_it_is_built_to_have(self):
        index = _one_route_blocks_index()
        rows = engine.MATRIX_BLOCK_ROWS
        assert len(index) == 150
        assert not index.has_codes[:rows].any()
        assert not index.has_text[rows:2 * rows].any()
        assert index.has_text[:rows].any() and index.has_codes[rows:].any()
        assert (index.has_text & index.has_codes)[2 * rows:].mean() > 0.5

    def test_no_cell_left_of_a_block_is_scored(self, monkeypatch):
        index = _three_block_index()
        n, rows = len(index), engine.MATRIX_BLOCK_ROWS
        text_cells, code_terms = _count_kernel_calls(monkeypatch)
        blocks = list(matrix_blocks(index, WITH_LOD))
        monkeypatch.undo()
        dims = [_dims(index, r) for r in range(n)]
        starts = range(0, n, rows)
        assert [b.shape for b in blocks] == [
            (min(rows, n - s), n - s) for s in starts]
        # One text product per cell from the block's first column on...
        assert text_cells == [n - r // rows * rows for r in range(n)
                              if index.has_text[r]]
        # ...and one code product per shared dimension of such a cell.
        assert code_terms == [
            (sum(len(dims[r] & dims[c]) for r in range(s, min(s + rows, n))
                 for c in range(s, n)), min(rows, n - s) * (n - s))
            for s in starts]

    def test_unknown_method_is_refused_before_anything_is_written(self):
        index = _three_block_index()
        with pytest.raises(ValueError, match="unknown method"):
            matrix_blocks(index, "bogus")
        out = io.StringIO()
        with pytest.raises(ValueError, match="unknown method"):
            write_matrix_tsv(index, out, "bogus")
        assert out.getvalue() == ""

    def test_three_block_index_has_what_it_is_built_to_have(self):
        index = _three_block_index()
        n = len(index)
        assert n == 130 and n // engine.MATRIX_BLOCK_ROWS == 2
        assert index.weights == (0.3, 0.9)
        matrix = kernel_matrix(index, WITH_LOD)
        assert np.isnan(matrix[index.position("ghost")]).all()
        assert not index.has_text.all() and not index.has_codes.all()
        for vid in ("d004", "d077"):
            rows = [index.position(v) for v in (vid, f"a_{vid}", f"{vid}_re")]
            assert np.array_equal(_bits(matrix[rows[0]]),
                                  _bits(matrix[rows[1]]))
            assert np.array_equal(_bits(matrix[rows[0]]),
                                  _bits(matrix[rows[2]]))

    @pytest.mark.parametrize("n, rows", [
        (300, engine.MATRIX_BLOCK_ROWS), (800, 8)],
        ids=["default_block", "8_row_blocks"])
    def test_peak_memory_within_the_stated_bound(self, monkeypatch, n,
                                                 rows):
        monkeypatch.setattr(engine, "MATRIX_BLOCK_ROWS", rows)
        index = _random_text_corpus(np.random.default_rng(149), n=n,
                                    dim=7).index()

        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

        out = Sink()
        tracemalloc.start()
        try:
            write_matrix_tsv(index, out, WITHOUT_LOD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size > 16 * n * n  # the text of every cell went out
        assert peak <= matrix_writer_bound(n, rows)

    def test_each_block_is_written_before_the_next_is_scored(
            self, monkeypatch):
        index = _with_ghost(random_micro_corpus(random.Random(101))).index()
        monkeypatch.setattr(engine, "MATRIX_BLOCK_ROWS", 2)
        kernel, scored = engine._score_block, []

        def counting_kernel(index, start, stop, method):
            scored.extend(range(start, stop))
            return kernel(index, start, stop, method)

        monkeypatch.setattr(engine, "_score_block", counting_kernel)
        writes = []

        class Out:
            def write(self, text):
                writes.append((len(scored), text.count("\n")))

        write_matrix_tsv(index, Out())
        assert writes[0] == (0, 1)  # the header, before any row is scored
        written = 0
        for n_scored, lines in writes[1:]:
            written += lines
            assert lines <= 2 and n_scored == written
        assert written == len(index)

    def test_empty_index(self):
        index = Vectors([], {}).index()
        assert list(matrix_blocks(index)) == []
        assert matrix_tsv(index) == "\t\n"


# OpenBLAS core types and the CPU flag each needs, per /proc/cpuinfo.
_CORE_TYPE_FLAGS = {"Haswell": "avx2", "Sandybridge": "avx", "Prescott": "pni"}

# Run in a child process: every cell of ``matrix_blocks`` has the bits of
# the ``recommend`` score of its pair, both methods.
_BLOCKS_EQUAL_RECOMMEND = textwrap.dedent("""
    import numpy as np
    from lodrec.engine import (METHODS, CorpusIndex, matrix_blocks,
                               recommend)

    rng = np.random.default_rng(173)
    n, dim = 150, 301
    text = rng.normal(size=(n, dim))
    text[rng.random(n) < 0.05] = 0.0
    codes = [sorted(set(rng.choice(12, 3).tolist()))
             if rng.random() < 0.7 else [] for _ in range(n)]
    index = CorpusIndex(
        [f"v{r:03d}" for r in range(n)], text,
        (rng.random(n) > 0.05).astype(np.int64),
        np.cumsum([0] + [len(c) for c in codes]),
        np.array([d for c in codes for d in c], dtype=np.intp),
        rng.random(sum(map(len, codes))), weights=(0.3, 0.9))
    for method in METHODS:
        start = 0
        for block in matrix_blocks(index, method):
            for i, row in enumerate(block.tolist()):
                r = start + i
                scores = dict(recommend(index.ids[r], index, n - 1,
                                        method).ranked)
                for c, cell in enumerate(row, start):
                    if c != r:
                        want = scores[index.ids[c]]
                        assert (cell != cell if want is None
                                else cell.hex() == want.hex()), (r, c)
            start += len(block)
        assert start == n
    print("equal")
""")


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo", encoding="ascii",
                  errors="replace") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.partition(":")[2].split())
    except OSError:
        pass
    return set()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OpenBLAS core types named here are x86-64's")
@pytest.mark.parametrize("core", list(_CORE_TYPE_FLAGS))
def test_blocks_equal_recommend_under_other_blas_kernels(core):
    """Each OpenBLAS kernel adds a ``ddot`` in its own order, so the text
    bits depend on the CPU; within one process the matrix and
    ``recommend`` must still agree bit for bit.  The golden digests are
    not checked here: they hold for one kernel only."""
    if _CORE_TYPE_FLAGS[core] not in _cpu_flags():
        pytest.skip(f"this CPU cannot run OpenBLAS's {core} kernels")
    out = subprocess.run(
        [sys.executable, "-c", _BLOCKS_EQUAL_RECOMMEND],
        env={**checkout_env(), "OPENBLAS_CORETYPE": core},
        capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout) == (0, "equal\n"), out.stderr
