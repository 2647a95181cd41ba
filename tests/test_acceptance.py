"""Acceptance gate: one test per shipped guarantee, one visible line each.

Every test prints ``acceptance N: PASS/FAIL - <what it checks>`` through
the capture bypass, so the gate status is readable in any pytest run.
Tolerances here are the contract; the unit suites may check tighter.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from lodrec import (
    WITH_LOD,
    WITHOUT_LOD,
    aggregate,
    chi_square,
    combined_similarity,
    load_config,
    load_ratings,
    recommend,
    relative_deltas,
    run_index,
    run_ingest,
)
from lodrec.ddc_vectors import fragment_rows
from lodrec.embeddings import doc_vectors
from lodrec.pipeline import MANIFEST_FILE
from lodrec.special import regularized_gamma_q

from conftest import (
    RATINGS_CSV,
    Vectors,
    dense_cosine,
    hierarchy_corpus,
    make_enriched,
    random_embedding_table,
    random_micro_corpus,
    write_toy_config,
)


@pytest.fixture
def report(capsys):
    @contextmanager
    def _report(n: int, desc: str):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"acceptance {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    return _report


def test_acceptance_1_chi_square_on_study_ratings(report):
    with report(1, "chi-square statistic, df, and p-value on the shipped "
                   "ratings fixture, under one second"):
        start = time.perf_counter()
        table = aggregate(load_ratings(RATINGS_CSV))
        result = chi_square(table)
        elapsed = time.perf_counter() - start
        assert result.statistic == pytest.approx(15.1471, abs=0.0005)
        assert result.df == 3
        assert result.p_value == pytest.approx(0.001695, abs=5e-6)
        assert elapsed < 1.0


def test_acceptance_2_per_level_relative_deltas(report):
    with report(2, "per-level relative deltas on the shipped ratings "
                   "fixture match the published percentages"):
        deltas = relative_deltas(aggregate(load_ratings(RATINGS_CSV)))
        assert deltas["high"] == pytest.approx(0.97, abs=0.01)
        assert deltas["medium"] == pytest.approx(4.56, abs=0.01)
        assert deltas["low"] == pytest.approx(11.29, abs=0.01)
        assert deltas["none"] == pytest.approx(-18.17, abs=0.01)


def test_acceptance_3_fragment_vocabulary_worked_example(report):
    with report(3, "codes 005.74 and 005.133 fragment into exactly the "
                   "six-entry level-prefix vocabulary"):
        enriched = make_enriched({"w1": [["005.74", "005.133"]]})
        fragments = fragment_rows(enriched)[0]
        assert [(f.level, f.prefix) for f in fragments] == [
            (1, "5"), (2, "51"), (2, "57"),
            (3, "513"), (3, "574"), (4, "5133")]


def brute_force_ranking(index, query, method):
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


def test_acceptance_4_sparse_cosine_and_ranking_oracles(report):
    with report(4, "on 100 random micro-corpora the kernel's sparse code "
                   "cosine matches a dense oracle within 1e-10 and top-k "
                   "matches a brute-force sort exactly"):
        rng = random.Random(103)
        for _ in range(100):
            corpus = random_micro_corpus(rng)
            index = corpus.index()
            dim = 1 + max((d for v in corpus.codes.values() for d in v),
                          default=0)

            def dense(v):
                arr = np.zeros(dim)
                for d, w in v.items():
                    arr[d] = w
                return arr

            for i in index.ids:
                for j in index.ids:
                    sparse = combined_similarity(index, i, j).s_ddc
                    ref = dense_cosine(dense(corpus.codes[i]),
                                       dense(corpus.codes[j]))
                    if sparse is None:
                        assert ref is None
                    else:
                        assert abs(sparse - ref) <= 1e-10

            query = rng.choice(index.ids)
            k = rng.randint(1, len(index) - 1)
            for method in (WITH_LOD, WITHOUT_LOD):
                expected = brute_force_ranking(index, query, method)[:k]
                assert recommend(query, index, k, method=method).ranked \
                    == expected


def test_acceptance_5_hierarchy_depth_sensitivity(report):
    with report(5, "a pair sharing a deep code outranks a pair sharing "
                   "only the top-level class, and only when code evidence "
                   "is used"):
        index = hierarchy_corpus().index()
        deep = combined_similarity(index, "a1", "a2")
        shallow = combined_similarity(index, "b1", "b2")
        assert deep.for_method(WITH_LOD) > shallow.for_method(WITH_LOD)
        assert deep.for_method(WITHOUT_LOD) == shallow.for_method(WITHOUT_LOD)


def test_acceptance_6_embedding_determinism(report):
    with report(6, "doc vectors reproduce single-token embeddings exactly, "
                   "are bit-identical under token permutation, and the "
                   "kernel's text cosines stay within [-1, 1] + 1e-12"):
        rng = random.Random(107)
        table = random_embedding_table(rng, dim=8, n_tokens=20)
        tokens = sorted(table.vectors)

        _, _, single = doc_vectors([[tokens[0]]], table)
        assert np.array_equal(single[0], table.vectors[tokens[0]])

        for trial in range(50):
            words = rng.choices(tokens, k=rng.randint(2, 12))
            shuffled = words.copy()
            rng.shuffle(shuffled)
            used, _, (a, b, other) = doc_vectors(
                [words, shuffled, rng.choices(tokens, k=5)], table)
            assert np.array_equal(a, b), trial

            pair = Vectors(["a", "c"], {"a": (a, used[0]),
                                        "c": (other, used[2])}).index()
            s = combined_similarity(pair, "a", "c").s_text
            assert s is not None and abs(s) <= 1.0 + 1e-12


def test_acceptance_7_index_build_determinism(report, tmp_path):
    with report(7, "two full index builds over the same inputs, in two "
                   "directories, write byte-identical index directories"):
        digests = []
        for run in ("one", "two"):
            run_dir = tmp_path / run
            run_dir.mkdir()
            config = load_config(write_toy_config(run_dir))
            run_ingest(config)
            run_index(config)
            digests.append({
                path.name: hashlib.md5(path.read_bytes()).hexdigest()
                for path in config.index_dir.iterdir()
            })
        assert MANIFEST_FILE in digests[0]
        assert digests[0] == digests[1]


def test_acceptance_8_p_value_against_integration_oracle(report):
    with report(8, "the survival function behind the p-value matches "
                   "direct numerical integration within 1e-6 on 20 random "
                   "chi-square argument pairs"):
        rng = random.Random(109)
        for _ in range(20):
            df = rng.randint(1, 10)
            x = rng.uniform(0.01, 50.0)
            a = df / 2.0
            ours = regularized_gamma_q(a, x)
            integral, _ = scipy.integrate.quad(
                lambda t: t ** (a - 1.0) * math.exp(-t - math.lgamma(a)),
                x, math.inf)
            assert ours == pytest.approx(integral, abs=1e-6)
            # second, independent reference route; tighter bound
            assert ours == pytest.approx(scipy.special.gammaincc(a, x),
                                         abs=1e-12)
