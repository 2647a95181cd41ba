"""Fast tests of the benchmark itself: generator, oracle and runner.

They run on the tiny make-up and on ``data/toy`` in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import unicodedata
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
for path in (str(REPO / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import workloads  # noqa: E402
from lodrec import cli, engine, pipeline  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    spec = workloads.TINY[name]
    a = workloads.generate(name, 3, tmp_path / "a", spec=spec)
    b = workloads.generate(name, 3, tmp_path / "b", spec=spec)
    c = workloads.generate(name, 4, tmp_path / "c", spec=spec)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a.videos == b.videos
    assert a.vectors.keys() == b.vectors.keys()
    assert all(np.array_equal(a.vectors[t], b.vectors[t]) for t in a.vectors)
    assert np.array_equal(a.queries, b.queries)
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


# -- the oracle against lodrec on the shipped toy data ----------------------

_TOKEN = re.compile(r"[^\W_]+")


def _norm(text: str) -> str:
    return unicodedata.normalize("NFC", text).casefold()


def _toy_truth(toy: Path) -> workloads.Truth:
    """The toy inputs restated from the documented formats, without lodrec."""
    snapshot = {}
    for line in (toy / "authority.tsv").read_text("utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            surface, _gnd, *codes = line.split("\t")
            snapshot[" ".join(_norm(surface).split())] = [
                c for c in (codes[0] if codes else "").split(";") if c]
    stop = frozenset(_norm(w.strip()) for w in
                     (toy / "stoplist.txt").read_text("utf-8").splitlines()
                     if w.strip() and not w.startswith("#"))
    rows = (toy / "embeddings.txt").read_text("utf-8").splitlines()[1:]
    vectors = {}
    for row in rows:
        token, *values = row.split()
        vectors.setdefault(_norm(token), np.array([float(v) for v in values]))
    videos = []
    for line in (toy / "corpus.jsonl").read_text("utf-8").splitlines():
        obj = json.loads(line)
        if obj["language"] != "de":  # the toy config filters to German
            continue
        surfaces = [t["surface"] for t in obj["tags"]]
        tokens = [t for text in [obj["title"], *surfaces, obj["abstract"]]
                  for t in map(str.casefold, _TOKEN.findall(
                      unicodedata.normalize("NFC", text)))
                  if len(t) >= 2 and not t.isdigit()]
        keys = [" ".join(_norm(s).split()) for s in surfaces]
        found = [k for k in keys if k in snapshot]
        videos.append(workloads.Video(
            id=obj["id"], title=obj["title"], abstract=obj["abstract"],
            tags=[(t["surface"], t["provenance"]) for t in obj["tags"]],
            tokens=tokens, codes=[c for k in found for c in snapshot[k]],
            resolved=len(found), unresolved=len(keys) - len(found)))
    return workloads.Truth(videos=videos, vectors=vectors, stopwords=stop,
                           dim=len(next(iter(vectors.values()))),
                           queries=np.arange(len(videos)))


def test_oracle_agrees_with_lodrec_on_toy(tmp_path):
    toy = tmp_path / "toy"
    shutil.copytree(REPO / "data" / "toy", toy)
    config_path = str(toy / "config.txt")
    out = {}
    for command in ("ingest", "index", "matrix"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([command, "--config", config_path]) == 0
        out[command] = buf.getvalue()
    (tmp_path / "matrix.tsv").write_text(out["matrix"], encoding="utf-8")

    truth = _toy_truth(toy)
    ref = oracle.Oracle(truth)
    ref.check_summary(json.loads(out["index"]))
    ref.check_doc_vectors(toy / "index" / "doc_vectors.tsv", ref.ids)
    ref.check_matrix(tmp_path / "matrix.tsv")
    index = pipeline.load_index(pipeline.load_config(config_path))
    k = len(ref.ids) - 1  # whole rankings
    for query in ref.ids:
        for method in (oracle.WITH_LOD, oracle.WITHOUT_LOD):
            rec = engine.recommend(query, index, k, method=method)
            ref.check_ranking(query, rec.ranked, method, k)


def test_oracle_rejects_a_wrong_ranking(tmp_path):
    truth = workloads.generate("auto_tags", 5, tmp_path,
                               spec=workloads.TINY["auto_tags"])
    ref = oracle.Oracle(truth)
    q = int(np.argmax(ref.tokens_used > 0))  # a query with defined scores
    row = ref.s_lod[q]
    order = sorted((j for j in range(len(ref.ids)) if j != q),
                   key=lambda j: (np.isnan(row[j]), -np.nan_to_num(row[j]),
                                  ref.ids[j]))
    right = [(ref.ids[j], None if np.isnan(row[j]) else float(row[j]))
             for j in order[:5]]
    ref.check_ranking(ref.ids[q], right, oracle.WITH_LOD, 5)
    swapped = [right[1], right[0]] + right[2:]
    with pytest.raises(oracle.CheckFailed):
        ref.check_ranking(ref.ids[q], swapped, oracle.WITH_LOD, 5)
    shifted = [(vid, s + 1e-6) for vid, s in right]
    with pytest.raises(oracle.CheckFailed):
        ref.check_ranking(ref.ids[q], shifted, oracle.WITH_LOD, 5)


# -- the runner, on the tiny make-up, in a copy of the checkout ------------

@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(REPO / "src" / "lodrec", root / "src" / "lodrec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "runs"))
    return root


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=120)


def _names(section: str) -> set[str]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[section]}


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_runner_prints_every_metric(checkout, name, trace, section):
    done = _run(checkout, "--workload", name, "--seed", "2", "--seconds",
                "0.1", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _names(section)
    assert all(isinstance(m["value"], (int, float)) and m["unit"]
               for m in result["metrics"].values())


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "runs"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
