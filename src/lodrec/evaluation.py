"""Rating ingestion, contingency aggregation, and the chi-square test.

Ratings arrive as CSV rows ``participant,query_id,recommended_id,method,
rating`` (header required) with ratings 0-3 (none/low/medium/high).  The
2x4 method-by-relevance table feeds two statistics: per-level relative
deltas between the methods, and Pearson's chi-square independence test
with the p-value from the upper regularized incomplete gamma.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import METHODS, WITH_LOD, WITHOUT_LOD  # METHODS: table rows
from .errors import EvaluationError, ParseError
from .special import regularized_gamma_q

LEVELS = ("high", "medium", "low", "none")  # column order of the table
RATING_TO_LEVEL = {3: "high", 2: "medium", 1: "low", 0: "none"}

_CSV_FIELDS = ("participant", "query_id", "recommended_id", "method", "rating")


@dataclass(frozen=True)
class RatingRecord:
    participant: str
    query_id: str
    recommended_id: str
    method: str
    rating: int


@dataclass
class ContingencyTable:
    """2x4 count matrix, rows per METHODS, columns per LEVELS."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (len(METHODS), len(LEVELS)):
            raise ValueError(
                f"expected a {len(METHODS)}x{len(LEVELS)} table, "
                f"got shape {self.counts.shape}")

    def row(self, method: str) -> np.ndarray:
        return self.counts[METHODS.index(method)]

    def to_json_obj(self) -> dict:
        return {
            "methods": list(METHODS),
            "levels": list(LEVELS),
            "counts": self.counts.tolist(),
        }


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float


def load_ratings(path) -> list[RatingRecord]:
    path = Path(path)
    records = []
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise ParseError(path, 1, "missing CSV header")
        if tuple(reader.fieldnames) != _CSV_FIELDS:
            raise ParseError(
                path, 1,
                f"expected header {','.join(_CSV_FIELDS)}, "
                f"got {','.join(reader.fieldnames)}")
        for row in reader:
            line_no = reader.line_num
            if None in row:  # DictReader files extra fields under None
                raise ParseError(path, line_no, "more fields than the header")
            if any(row.get(k) in (None, "") for k in _CSV_FIELDS):
                raise ParseError(path, line_no, "incomplete row")
            method = row["method"]
            if method not in METHODS:
                raise ParseError(path, line_no,
                                 f"unknown method {method!r}")
            try:
                rating = int(row["rating"])
            except ValueError:
                raise ParseError(path, line_no,
                                 f"non-integer rating {row['rating']!r}") from None
            if rating not in RATING_TO_LEVEL:
                raise ParseError(path, line_no,
                                 f"rating {rating} outside 0-3")
            records.append(RatingRecord(
                participant=row["participant"],
                query_id=row["query_id"],
                recommended_id=row["recommended_id"],
                method=method,
                rating=rating,
            ))
    return records


def aggregate(ratings: list[RatingRecord]) -> ContingencyTable:
    """Count ratings per (method, relevance level)."""
    counts = np.zeros((len(METHODS), len(LEVELS)), dtype=np.int64)
    for r in ratings:
        row = METHODS.index(r.method)
        col = LEVELS.index(RATING_TO_LEVEL[r.rating])
        counts[row, col] += 1
    return ContingencyTable(counts=counts)


def relative_deltas(table: ContingencyTable) -> dict[str, float | None]:
    """Per-level percentage change when switching to the enriched method.

    The numerator is always (with - without), so gains are positive and
    losses negative.  The denominator is mixed: the enriched method's
    count for high/medium/low, the baseline count for none.  Only this
    combination reproduces all four published percentages, so it is
    locked in here and by a dedicated test.  None marks a level whose
    denominator is zero.
    """
    with_row = table.row(WITH_LOD)
    without_row = table.row(WITHOUT_LOD)
    deltas: dict[str, float | None] = {}
    for col, level in enumerate(LEVELS):
        w, wo = int(with_row[col]), int(without_row[col])
        denom = wo if level == "none" else w
        deltas[level] = (w - wo) / denom * 100.0 if denom else None
    return deltas


def chi_square(table) -> ChiSquareResult:
    """Pearson's chi-square independence test on a count table.

    Accepts a ContingencyTable or any 2-D array of counts.  Cells whose
    expected count is zero (possible only when a whole row is zero)
    contribute nothing.
    """
    counts = np.asarray(getattr(table, "counts", table), dtype=np.float64)
    if counts.ndim != 2:
        raise ValueError("chi_square needs a 2-D count table")
    col_totals = counts.sum(axis=0)
    if np.any(col_totals == 0):
        zero_cols = [int(i) for i in np.flatnonzero(col_totals == 0)]
        raise EvaluationError(f"zero column total at column(s) {zero_cols}")
    row_totals = counts.sum(axis=1)
    grand = counts.sum()
    expected = np.outer(row_totals, col_totals) / grand
    mask = expected > 0
    statistic = float(
        ((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum())
    df = (counts.shape[0] - 1) * (counts.shape[1] - 1)
    p_value = regularized_gamma_q(df / 2.0, statistic / 2.0)
    return ChiSquareResult(statistic=statistic, df=df, p_value=p_value)


def build_report(ratings: list[RatingRecord]) -> dict:
    """Full evaluation report as a JSON-ready dict.

    Statistical preconditions that fail (zero column totals, zero delta
    denominators) are reported inside the respective section instead of
    aborting the whole report.
    """
    table = aggregate(ratings)
    report: dict = {"n_ratings": len(ratings), "table": table.to_json_obj()}

    deltas = relative_deltas(table)
    report["relative_deltas_percent"] = deltas
    undefined = [level for level, d in deltas.items() if d is None]
    if undefined:
        report["delta_errors"] = {
            level: "division by zero (empty denominator count)"
            for level in undefined
        }

    try:
        result = chi_square(table)
        report["chi_square"] = {
            "statistic": result.statistic,
            "df": result.df,
            "p_value": result.p_value,
        }
    except EvaluationError as e:
        report["chi_square"] = {"error": str(e)}
    return report


__all__ = [
    "LEVELS", "METHODS", "RATING_TO_LEVEL",
    "ChiSquareResult", "ContingencyTable", "RatingRecord",
    "aggregate", "build_report", "chi_square", "load_ratings",
    "relative_deltas",
]
