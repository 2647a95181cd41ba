"""Similarity and recommendation toolkit for tagged video metadata.

The package scores video pairs two ways: a text route over mean word
embeddings of titles, tags, and abstracts, and a knowledge route over
tf-idf vectors of hierarchical classification-code fragments obtained
by resolving tags against an authority-file snapshot.  Both routes are
combined into a single score with a deterministic fallback when one
side is undefined.

The top level exports what the demos, the tools and the README use:
the pipeline calls, scoring and recommendation, the evaluation steps,
the types in their signatures, and the errors a caller catches.
Everything else lives in the submodules.
"""

from .authority import enrich, load_snapshot
from .corpus import load_corpus
from .ddc import ZERO_PRESERVING, fragment_code
from .embeddings import tokenize
from .engine import (
    METHODS,
    WITH_LOD,
    WITHOUT_LOD,
    CorpusIndex,
    Recommendation,
    SimilarityScore,
    combined_similarity,
    recommend,
    write_matrix_tsv,
)
from .errors import LodrecError, ParseError, UnknownIdError
from .evaluation import (
    LEVELS,
    aggregate,
    build_report,
    chi_square,
    load_ratings,
    relative_deltas,
)
from .pipeline import (
    ConfigError,
    PipelineConfig,
    load_config,
    load_index,
    override_config,
    run_index,
    run_ingest,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CorpusIndex",
    "LEVELS",
    "LodrecError",
    "METHODS",
    "ParseError",
    "PipelineConfig",
    "Recommendation",
    "SimilarityScore",
    "UnknownIdError",
    "WITH_LOD",
    "WITHOUT_LOD",
    "ZERO_PRESERVING",
    "aggregate",
    "build_report",
    "chi_square",
    "combined_similarity",
    "enrich",
    "fragment_code",
    "load_config",
    "load_corpus",
    "load_index",
    "load_ratings",
    "load_snapshot",
    "override_config",
    "recommend",
    "relative_deltas",
    "run_index",
    "run_ingest",
    "tokenize",
    "write_matrix_tsv",
]
