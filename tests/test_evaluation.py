"""Rating CSV parsing, contingency stats, and the chi-square test."""

from __future__ import annotations

import random

import numpy as np
import pytest
import scipy.stats

from lodrec import (
    LEVELS,
    METHODS,
    ParseError,
    aggregate,
    build_report,
    chi_square,
    engine,
    evaluation,
    load_ratings,
    relative_deltas,
)
from lodrec.errors import EvaluationError
from lodrec.evaluation import ContingencyTable, RatingRecord

from conftest import RATINGS_CSV

STUDY_WITH = (411, 461, 673, 455)
STUDY_WITHOUT = (407, 440, 597, 556)


@pytest.fixture(scope="module")
def study_ratings():
    return load_ratings(RATINGS_CSV)


@pytest.fixture(scope="module")
def study_table(study_ratings):
    return aggregate(study_ratings)


def record(method="with_lod", rating=3, participant="p1"):
    return RatingRecord(participant=participant, query_id="q001",
                        recommended_id="v1", method=method, rating=rating)


class TestLoadRatings:
    def test_study_fixture(self, study_ratings):
        assert len(study_ratings) == 4000
        assert {r.method for r in study_ratings} == set(METHODS)
        assert {r.rating for r in study_ratings} == {0, 1, 2, 3}
        first = study_ratings[0]
        assert first.participant.startswith("p")
        assert first.query_id.startswith("q")

    def test_header_only_gives_empty_list(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("participant,query_id,recommended_id,method,rating\n")
        assert load_ratings(path) == []

    def test_missing_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("p1,q1,v1,with_lod,3\n")
        with pytest.raises(ParseError, match="header"):
            load_ratings(path)

    def test_reordered_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("rating,participant,query_id,recommended_id,method\n")
        with pytest.raises(ParseError, match="expected header"):
            load_ratings(path)

    @pytest.mark.parametrize("bad_row,message", [
        ("p1,q1,v1,with_lod,5", "outside 0-3"),
        ("p1,q1,v1,with_lod,-1", "outside 0-3"),
        ("p1,q1,v1,with_lod,good", "non-integer"),
        ("p1,q1,v1,lod,3", "unknown method"),
        ("p1,q1,v1,with_lod,", "incomplete"),
        ("p1,q1,r1,with_lod,3,oops", "more fields than the header"),
    ])
    def test_bad_rows_carry_line_numbers(self, tmp_path, bad_row, message):
        path = tmp_path / "r.csv"
        path.write_text(
            "participant,query_id,recommended_id,method,rating\n"
            "p1,q1,v1,with_lod,3\n"
            f"{bad_row}\n")
        with pytest.raises(ParseError, match=message) as exc:
            load_ratings(path)
        assert ":3:" in str(exc.value)


class TestAggregate:
    def test_study_table(self, study_table):
        assert tuple(study_table.row("with_lod")) == STUDY_WITH
        assert tuple(study_table.row("without_lod")) == STUDY_WITHOUT
        assert int(study_table.counts.sum()) == 4000

    def test_empty_input_gives_zero_table(self):
        table = aggregate([])
        assert table.counts.shape == (2, 4)
        assert int(table.counts.sum()) == 0

    def test_one_record_per_level(self):
        table = aggregate([record(rating=r) for r in (0, 1, 2, 3)])
        assert tuple(table.row("with_lod")) == (1, 1, 1, 1)
        assert tuple(table.row("without_lod")) == (0, 0, 0, 0)

    def test_methods_are_the_engine_constants(self):
        assert evaluation.METHODS is engine.METHODS
        assert evaluation.METHODS == ("with_lod", "without_lod")  # row order

    def test_column_order_is_high_to_none(self):
        table = aggregate([record(rating=3), record(rating=3),
                           record(rating=0)])
        assert LEVELS == ("high", "medium", "low", "none")
        assert tuple(table.row("with_lod")) == (2, 0, 0, 1)

    def test_permutation_invariance(self, study_ratings):
        shuffled = study_ratings.copy()
        random.Random(5).shuffle(shuffled)
        assert np.array_equal(aggregate(shuffled).counts,
                              aggregate(study_ratings).counts)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2x4"):
            ContingencyTable(counts=np.zeros((3, 4), dtype=np.int64))


class TestRelativeDeltas:
    def test_study_values(self, study_table):
        deltas = relative_deltas(study_table)
        assert deltas["high"] == pytest.approx(0.97, abs=0.01)
        assert deltas["medium"] == pytest.approx(4.56, abs=0.01)
        assert deltas["low"] == pytest.approx(11.29, abs=0.01)
        assert deltas["none"] == pytest.approx(-18.17, abs=0.01)

    def test_identical_rows_are_all_zero(self):
        table = ContingencyTable(counts=np.array([[5, 6, 7, 8],
                                                  [5, 6, 7, 8]]))
        assert relative_deltas(table) == {
            "high": 0.0, "medium": 0.0, "low": 0.0, "none": 0.0}

    def test_zero_denominators_are_none(self):
        table = ContingencyTable(counts=np.array([[2, 0, 0, 0],
                                                  [1, 0, 0, 0]]))
        deltas = relative_deltas(table)
        assert deltas["high"] == pytest.approx(50.0)
        assert deltas["medium"] is None
        assert deltas["low"] is None
        assert deltas["none"] is None

    def test_sign_convention(self):
        # enriched gains 10 high ratings and sheds 10 unrated ones
        table = ContingencyTable(counts=np.array([[30, 5, 5, 10],
                                                  [20, 5, 5, 20]]))
        deltas = relative_deltas(table)
        assert deltas["high"] > 0
        assert deltas["none"] < 0


class TestChiSquare:
    def test_study_values(self, study_table):
        result = chi_square(study_table)
        assert result.statistic == pytest.approx(15.147057449282737,
                                                 abs=1e-9)
        assert result.df == 3
        assert result.p_value == pytest.approx(0.0016951944119971305,
                                               abs=1e-12)

    def test_identical_rows_give_zero_statistic(self):
        result = chi_square(np.array([[5, 6, 7, 8], [5, 6, 7, 8]]))
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_perfect_association_2x2(self):
        result = chi_square(np.array([[10, 0], [0, 10]]))
        assert result.statistic == pytest.approx(20.0, abs=1e-12)
        assert result.df == 1

    def test_zero_column_rejected_with_indices(self):
        with pytest.raises(EvaluationError, match=r"\[1, 3\]"):
            chi_square(np.array([[4, 0, 2, 0], [3, 0, 1, 0]]))

    def test_row_swap_invariance(self, study_table):
        swapped = chi_square(study_table.counts[::-1])
        original = chi_square(study_table)
        assert swapped.statistic == pytest.approx(original.statistic,
                                                  rel=1e-14)

    def test_column_permutation_invariance(self, study_table):
        perm = [2, 0, 3, 1]
        permuted = chi_square(study_table.counts[:, perm])
        original = chi_square(study_table)
        assert permuted.statistic == pytest.approx(original.statistic,
                                                   rel=1e-14)

    def test_plain_nested_lists_accepted(self):
        result = chi_square([[10, 0], [0, 10]])
        assert result.statistic == pytest.approx(20.0, abs=1e-12)

    def test_non_2d_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            chi_square(np.array([1, 2, 3]))

    def test_against_scipy_on_random_tables(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            counts = rng.integers(1, 200, size=(2, 4))
            ours = chi_square(counts)
            ref_stat, ref_p, ref_df, _ = scipy.stats.chi2_contingency(
                counts, correction=False)
            assert ours.statistic == pytest.approx(ref_stat, rel=1e-12)
            assert ours.df == ref_df
            assert ours.p_value == pytest.approx(ref_p, abs=1e-12)


class TestBuildReport:
    def test_study_report(self, study_ratings):
        report = build_report(study_ratings)
        assert report["n_ratings"] == 4000
        assert report["table"]["counts"] == [list(STUDY_WITH),
                                             list(STUDY_WITHOUT)]
        assert report["table"]["methods"] == list(METHODS)
        assert report["chi_square"]["df"] == 3
        assert "error" not in report["chi_square"]
        assert "delta_errors" not in report
        assert report["relative_deltas_percent"]["low"] == \
            pytest.approx(11.29, abs=0.01)

    def test_chi_square_error_is_embedded(self):
        ratings = [record(method=m, rating=3) for m in METHODS]
        report = build_report(ratings)
        assert "error" in report["chi_square"]
        assert "column" in report["chi_square"]["error"]

    def test_delta_errors_listed_per_level(self):
        ratings = [record(rating=3), record(method="without_lod", rating=0)]
        report = build_report(ratings)
        assert set(report["delta_errors"]) == {"medium", "low"}
        assert report["relative_deltas_percent"]["medium"] is None

    def test_report_is_json_serializable(self, study_ratings):
        import json
        text = json.dumps(build_report(study_ratings))
        assert "chi_square" in text
