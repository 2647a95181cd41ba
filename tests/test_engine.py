"""Combined scoring, ranking, and the similarity matrix."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from lodrec import (
    WITH_LOD,
    WITHOUT_LOD,
    CorpusIndex,
    DocVector,
    UnknownIdError,
    combined_similarity,
    ddc_similarity,
    matrix_to_tsv,
    recommend,
    similarity_matrix,
    text_similarity,
)

from conftest import hierarchy_index, random_micro_index


def brute_force_ranking(index: CorpusIndex, query: str, method: str):
    """Independent full sort: defined scores desc, ties by id, None last."""
    scored = []
    for other in index.ids:
        if other == query:
            continue
        s = combined_similarity(query, other, index.doc_vectors,
                                index.ddc_vectors, index.weights)
        scored.append((other, s.for_method(method)))
    defined = sorted((p for p in scored if p[1] is not None),
                     key=lambda p: (-p[1], p[0]))
    undefined = sorted(p for p in scored if p[1] is None)
    return defined + undefined


def two_doc_vectors(a, b):
    return {"i": DocVector("i", np.asarray(a, dtype=float), 1, 0),
            "j": DocVector("j", np.asarray(b, dtype=float), 1, 0)}


class TestCombinedSimilarity:
    def test_mean_of_both_branches(self):
        # both cosines exactly 0.8: (4,3)x(1,0) and {1.5,2}x{0,2.5}
        docs = two_doc_vectors([4.0, 3.0], [1.0, 0.0])
        s = combined_similarity(
            "i", "j", docs,
            {"i": _sparse("i", {0: 1.5, 1: 2.0}),
             "j": _sparse("j", {1: 2.5})})
        assert s.s_text == 0.8
        assert s.s_ddc == 0.8
        assert s.s_lod == 0.8
        assert s.s_lod == (s.s_text + s.s_ddc) / 2
        assert not s.fallback_applied

    def test_fallback_to_text_branch(self):
        docs = two_doc_vectors([4.0, 3.0], [1.0, 0.0])
        s = combined_similarity("i", "j", docs,
                                {"i": _sparse("i", {0: 1.0}),
                                 "j": _sparse("j", {})})
        assert s.s_ddc is None
        assert s.s_lod == s.s_text == 0.8
        assert s.fallback_applied

    def test_fallback_to_fragment_branch(self):
        docs = {"i": DocVector("i", np.zeros(2), 0, 1),
                "j": DocVector("j", np.array([1.0, 0.0]), 1, 0)}
        s = combined_similarity("i", "j", docs,
                                {"i": _sparse("i", {0: 1.0}),
                                 "j": _sparse("j", {0: 2.0})})
        assert s.s_text is None
        assert s.s_lod == s.s_ddc == pytest.approx(1.0, abs=1e-12)
        assert s.fallback_applied

    def test_both_undefined(self):
        docs = {"i": DocVector("i", np.zeros(2), 0, 1),
                "j": DocVector("j", np.zeros(2), 0, 1)}
        s = combined_similarity("i", "j", docs, {})
        assert s.s_lod is None
        assert not s.fallback_applied

    def test_self_pair_scores_one(self):
        docs = two_doc_vectors([1.0, 2.0], [1.0, 2.0])
        s = combined_similarity("i", "j", docs,
                                {"i": _sparse("i", {0: 1.0, 2: 0.5}),
                                 "j": _sparse("j", {0: 1.0, 2: 0.5})})
        assert s.s_lod == pytest.approx(1.0, abs=1e-12)

    def test_exact_mean_invariant_on_random_indices(self):
        rng = random.Random(61)
        for _ in range(20):
            index = random_micro_index(rng)
            for i in index.ids:
                for j in index.ids:
                    s = combined_similarity(i, j, index.doc_vectors,
                                            index.ddc_vectors, index.weights)
                    if s.s_text is not None and s.s_ddc is not None:
                        assert s.s_lod == (s.s_text + s.s_ddc) / 2
                        assert not s.fallback_applied

    def test_custom_weights(self):
        docs = two_doc_vectors([4.0, 3.0], [1.0, 0.0])
        ddc = {"i": _sparse("i", {0: 1.0}), "j": _sparse("j", {0: 3.0})}
        s = combined_similarity("i", "j", docs, ddc, weights=(1.0, 3.0))
        assert s.s_lod == (1.0 * s.s_text + 3.0 * s.s_ddc) / 4.0

    def test_unknown_id_rejected(self):
        docs = two_doc_vectors([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(UnknownIdError, match="ghost"):
            combined_similarity("i", "ghost", docs, {})

    @pytest.mark.parametrize("weights", [(-1.0, 1.0), (0.0, 0.0)])
    def test_invalid_weights_rejected(self, weights):
        docs = two_doc_vectors([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            combined_similarity("i", "j", docs, {}, weights=weights)

    def test_mixed_vocabularies_rejected(self):
        from lodrec import VocabularyMismatchError
        docs = two_doc_vectors([1.0, 0.0], [0.0, 1.0])
        ddc = {"i": _sparse("i", {0: 1.0}), "j": _sparse("j", {0: 1.0})}
        ddc["j"].fingerprint = "other"
        with pytest.raises(VocabularyMismatchError):
            combined_similarity("i", "j", docs, ddc)

    def test_dimension_mismatch_rejected(self):
        from lodrec import DimensionMismatchError
        docs = {"i": DocVector("i", np.ones(2), 1, 0),
                "j": DocVector("j", np.ones(3), 1, 0)}
        with pytest.raises(DimensionMismatchError):
            combined_similarity("i", "j", docs, {})

    @pytest.mark.parametrize("weights", [(math.nan, 0.5), (0.5, math.inf)])
    def test_non_finite_weights_rejected(self, weights):
        # A NaN weight made every score NaN and the ranking arbitrary.
        docs = two_doc_vectors([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            combined_similarity("i", "j", docs, {}, weights=weights)
        base = hierarchy_index()
        index = CorpusIndex(ids=base.ids, doc_vectors=base.doc_vectors,
                            ddc_vectors=base.ddc_vectors, weights=weights)
        with pytest.raises(ValueError, match="finite"):
            recommend("a1", index, k=3)
        with pytest.raises(ValueError, match="finite"):
            similarity_matrix(index)


class TestKernel:
    def test_routes_match_scalar_oracles(self):
        """Each route of the kernel agrees with the scalar ``fsum`` cosine
        within 1e-10, on acceptance 4's 100 random micro-corpora."""
        rng = random.Random(103)
        for _ in range(100):
            index = random_micro_index(rng)
            for i in index.ids:
                for j in index.ids:
                    s = combined_similarity(i, j, index.doc_vectors,
                                            index.ddc_vectors, index.weights)
                    for got, ref in (
                            (s.s_text, text_similarity(index.doc_vectors[i],
                                                       index.doc_vectors[j])),
                            (s.s_ddc, ddc_similarity(index.ddc_vectors[i],
                                                     index.ddc_vectors[j]))):
                        if ref is None:
                            assert got is None
                        else:
                            assert abs(got - ref) <= 1e-10
            # the draws acceptance 4 makes, so the next corpus is the same
            rng.choice(index.ids)
            rng.randint(1, len(index) - 1)

    def test_index_rejects_non_finite_vectors(self):
        base = hierarchy_index()
        docs = dict(base.doc_vectors)
        docs["a2"] = DocVector("a2", np.array([1.0, np.nan, 0.0, 0.0]), 1, 0)
        with pytest.raises(ValueError, match="non-finite"):
            CorpusIndex(ids=base.ids, doc_vectors=docs,
                        ddc_vectors=base.ddc_vectors)


def _sparse(vid, weights):
    from lodrec import DdcVector
    return DdcVector(video_id=vid, weights=weights, fingerprint="fp")


def _with_ghost(index: CorpusIndex) -> CorpusIndex:
    """A new index: ``index`` plus a video with neither text nor fragment
    evidence (an index is immutable once built)."""
    from lodrec import DdcVector
    fp = next(iter(index.ddc_vectors.values())).fingerprint
    dim = next(iter(index.doc_vectors.values())).vector.shape[0]
    return CorpusIndex(
        ids=index.ids + ["ghost"],
        doc_vectors={**index.doc_vectors,
                     "ghost": DocVector("ghost", np.zeros(dim), 0, 2)},
        ddc_vectors={**index.ddc_vectors,
                     "ghost": DdcVector(video_id="ghost", weights={},
                                        fingerprint=fp)},
        weights=index.weights)


class TestRecommend:
    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(67)
        for _ in range(30):
            index = random_micro_index(rng)
            query = rng.choice(index.ids)
            k = rng.randint(1, len(index) - 1)
            for method in (WITH_LOD, WITHOUT_LOD):
                expected = brute_force_ranking(index, query, method)[:k]
                got = recommend(query, index, k, method=method)
                assert got.ranked == expected

    def test_full_k_returns_all_candidates(self):
        index = hierarchy_index()
        rec = recommend("a1", index, k=3)
        assert len(rec.ranked) == 3
        assert "a1" not in [vid for vid, _ in rec.ranked]

    def test_ties_break_by_ascending_id(self):
        index = hierarchy_index()
        # b1 and b2 tie for a1 under without_lod (identical text evidence)
        rec = recommend("a1", index, k=3, method=WITHOUT_LOD)
        assert [vid for vid, _ in rec.ranked] == ["a2", "b1", "b2"]

    def test_k_out_of_range(self):
        index = hierarchy_index()
        with pytest.raises(ValueError):
            recommend("a1", index, k=0)
        with pytest.raises(ValueError):
            recommend("a1", index, k=4)

    def test_unknown_query(self):
        with pytest.raises(UnknownIdError):
            recommend("nope", hierarchy_index(), k=1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            recommend("a1", hierarchy_index(), k=1, method="hybrid")

    def test_methods_agree_when_fragment_branch_is_undefined(self):
        rng = random.Random(71)
        for _ in range(20):
            index = random_micro_index(rng)
            for i in index.ids:
                for j in index.ids:
                    if i == j:
                        continue
                    s = combined_similarity(i, j, index.doc_vectors,
                                            index.ddc_vectors, index.weights)
                    if s.s_ddc is None:
                        assert s.for_method(WITH_LOD) == \
                            s.for_method(WITHOUT_LOD)

    def test_repeat_runs_are_bit_identical(self):
        index = hierarchy_index()
        first = recommend("a1", index, k=3)
        second = recommend("a1", index, k=3)
        assert first.ranked == second.ranked

    def test_json_shape(self):
        rec = recommend("a1", hierarchy_index(), k=2)
        obj = rec.to_json_obj()
        assert set(obj) == {"query", "method", "k", "results"}
        assert all(set(r) == {"id", "score"} for r in obj["results"])


class TestHierarchySensitivity:
    def test_deep_shared_fragment_outranks_shallow(self):
        index = hierarchy_index()
        deep = combined_similarity("a1", "a2", index.doc_vectors,
                                   index.ddc_vectors)
        shallow = combined_similarity("b1", "b2", index.doc_vectors,
                                      index.ddc_vectors)
        # text branches identical, so only fragment evidence separates them
        assert deep.s_text == shallow.s_text
        assert deep.for_method(WITH_LOD) > shallow.for_method(WITH_LOD)
        assert deep.for_method(WITHOUT_LOD) == shallow.for_method(WITHOUT_LOD)


class TestSimilarityMatrix:
    def test_symmetric_with_unit_diagonal(self):
        index = hierarchy_index()
        matrix = similarity_matrix(index)
        assert np.array_equal(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0, atol=1e-12)

    def test_elementwise_oracle(self):
        rng = random.Random(73)
        index = random_micro_index(rng)
        matrix = similarity_matrix(index)
        for r, i in enumerate(index.ids):
            for c, j in enumerate(index.ids):
                s = combined_similarity(i, j, index.doc_vectors,
                                        index.ddc_vectors, index.weights)
                expected = s.for_method(WITH_LOD)
                if expected is None:
                    assert np.isnan(matrix[r, c])
                else:
                    assert matrix[r, c] == expected

    def test_no_evidence_video_row_is_all_undefined(self):
        index = _with_ghost(hierarchy_index())
        matrix = similarity_matrix(index)
        assert np.all(np.isnan(matrix[-1]))
        assert np.all(np.isnan(matrix[:, -1]))

    def test_symmetric_and_equal_to_recommend(self):
        rng = random.Random(83)
        for _ in range(20):
            index = _with_ghost(random_micro_index(rng))
            for method in (WITH_LOD, WITHOUT_LOD):
                matrix = similarity_matrix(index, method)
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
        index = _with_ghost(random_micro_index(random.Random(89)))
        matrix = similarity_matrix(index)
        lines = ["\t" + "\t".join(index.ids)]
        for r, vid in enumerate(index.ids):
            cells = ["" if np.isnan(matrix[r, c])
                     else repr(float(matrix[r, c]))
                     for c in range(len(index.ids))]
            lines.append(vid + "\t" + "\t".join(cells))
        assert matrix_to_tsv(index, matrix) == "\n".join(lines) + "\n"

    def test_tsv_export(self):
        index = _with_ghost(hierarchy_index())
        text = matrix_to_tsv(index, similarity_matrix(index))
        lines = text.strip("\n").split("\n")
        assert lines[0].split("\t") == ["", "a1", "a2", "b1", "b2", "ghost"]
        last = lines[-1].split("\t")
        assert last[0] == "ghost"
        assert all(cell == "" for cell in last[1:])
        a1_row = lines[1].split("\t")
        assert float(a1_row[1]) == pytest.approx(1.0, abs=1e-12)
