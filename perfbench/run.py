#!/usr/bin/env python3
"""Offline benchmark of lodrec: build, cold load, recommend stream, matrix.

    python3 perfbench/run.py --workload rdf_catalog --seed 1 --seconds 10 --trace 0

One workload runs in this one process, against the lodrec under ``src/``
of the checkout that holds this file.  Its inputs are generated from the
seed (see ``workloads.py``), and lodrec is driven only through the calls
its users make: ``lodrec ingest``, ``lodrec index`` and ``lodrec matrix``
through ``lodrec.cli.main``, and ``pipeline.load_index`` and
``engine.recommend`` as a library.  Every output is checked against the
oracle in ``oracle.py``.

Times are wall times scaled by a reference probe measured next to them,
so that the host's changes of speed cancel out (see ``clock.py``); the
raw wall times are printed on the lines before the result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the phases
once plain and once traced, prints the per-layer metrics and the tracing
overhead, and writes every span to ``perfbench/runs/<workload>/trace.json.gz``.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import workloads
from clock import Clock, scale, scaled
from oracle import WITH_LOD, WITHOUT_LOD, Oracle, check_properties
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3       # setup_s is the median of these
REBUILDS = 7         # build_s is the median of these
MATRIX_REPS = 8      # matrix_s is the median of these
LOAD_REPS = 15       # load_s is the median of these
ROUND = 100          # queries per round of the stream; runs make whole rounds
MIN_ROUNDS = 2       # at least 200 queries, so p95 has ten samples beyond it
K = 10
TRACE_LOADS = 5      # the traced run's fixed work: one build, five loads,
TRACE_ROUNDS = 1     # one round of queries and one matrix
PROBE_EVERY = 5      # queries between two probes in the stream
CHECK_QUERIES = 10   # sampled queries checked against the oracle per method
DOC_SAMPLE = 25      # sampled doc vectors checked against the oracle
# How much of the probe's change of speed a build is scaled by.  An
# rdf_catalog build is mostly the parse of a 30k-row table, which the host's
# fast state sped up about 1.1x where it sped the probe up 1.6x; an
# auto_tags build moves with the probe.
BUILD_SCALE_POWER = {"rdf_catalog": 0.5, "auto_tags": 1.0}


class BenchError(RuntimeError):
    """An operation failed where the run cannot go on."""


def _import_lodrec():
    if not (SRC / "lodrec" / "__init__.py").is_file():
        raise BenchError(f"no lodrec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lodrec
    from lodrec import cli, engine, pipeline
    if Path(lodrec.__file__).resolve().parent != SRC / "lodrec":
        raise BenchError(f"imported lodrec from {lodrec.__file__}, not {SRC}")
    return cli, engine, pipeline


class Run:
    def __init__(self, workload: str, seed: int, work: Path, spec=None):
        self.cli, self.engine, self.pipeline = _import_lodrec()
        self.workload, self.seed, self.work = workload, seed, work
        self.spec = spec or workloads.WORKLOADS[workload]
        self.inputs, self.out = work / "inputs", work / "out"
        self.config_path = self.inputs / "config.txt"
        self.index_dir = self.inputs / "index"
        self.attempted = self.failed = 0
        self.stdout_bytes = 0
        self.truth = None
        self.clock = Clock()
        self.answers: list[tuple[str, list]] = []
        self.matrix_digests: set[str] = set()

    # -- phases: samples are (wall seconds, probe times), see clock.py ------

    def setup(self) -> tuple[float, list[float]]:
        def generate():
            self.truth = workloads.generate(self.workload, self.seed,
                                            self.inputs, spec=self.spec)
        return self.clock.measure(generate)

    def _cli(self, argv: list[str], stdout_name: str) -> None:
        path = self.out / stdout_name
        with open(path, "w", encoding="utf-8") as out, \
                open(self.out / "stderr.log", "a", encoding="utf-8") as err, \
                redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(argv + ["--config", str(self.config_path)])
        self.attempted += 1
        self.stdout_bytes += path.stat().st_size
        if code != 0:
            self.failed += 1
            raise BenchError(f"lodrec {argv[0]} exited {code}; see "
                             f"{self.out / 'stderr.log'}")

    def build(self) -> tuple[float, list[float]]:
        shutil.rmtree(self.index_dir, ignore_errors=True)

        def ingest_and_index():
            self._cli(["ingest"], "ingest.json")
            self._cli(["index"], "index.json")
        return self.clock.measure(ingest_and_index)

    def load(self, reps: int) -> list[tuple[float, list[float]]]:
        config = self.pipeline.load_config(self.config_path)

        def load():
            self.index = self.pipeline.load_index(config)
        times = []
        for _ in range(reps):
            self.index = None
            times.append(self.clock.measure(load))
            self.attempted += 1
        return times

    def stream(self, seconds: float,
               max_rounds: int | None) -> list[tuple[float, float]]:
        """Closed loop, one client: the next query waits for the answer.

        Returns ``(scaled, raw)`` seconds per query; each block of
        PROBE_EVERY queries is scaled by the four probes nearest it."""
        ids = self.index.ids
        queries = [ids[p] for p in self.truth.queries]
        if self.spec.query_skew == 0 and len(ids) >= MIN_ROUNDS * ROUND:
            # Uniform: no video is asked twice.
            queries = queries[:len(ids) - len(ids) % ROUND]
        latencies: list[tuple[float, float]] = []
        self.answers = []
        began = time.perf_counter()
        rounds = 0
        while True:
            gc.collect()
            probes, raw = [self.clock.probe()], []
            for n, q in enumerate(queries[rounds * ROUND:(rounds + 1) * ROUND]):
                start = time.perf_counter()
                rec = self.engine.recommend(q, self.index, K,
                                            method=self.engine.WITH_LOD)
                raw.append(time.perf_counter() - start)
                self.answers.append((q, rec.ranked))
                if n % PROBE_EVERY == PROBE_EVERY - 1:
                    probes.append(self.clock.probe())
            for n, t in enumerate(raw):
                # Probes j and j + 1 bracket block j; one more on each side.
                j = n // PROBE_EVERY
                latencies.append((t * scale(probes[max(j - 1, 0):j + 3]), t))
            rounds += 1
            self.attempted += ROUND
            if max_rounds is not None:
                if rounds >= max_rounds:
                    break
            elif rounds >= MIN_ROUNDS and (
                    time.perf_counter() - began >= seconds
                    or (rounds + 1) * ROUND > len(queries)):
                break
        return latencies

    def matrix(self, reps: int) -> list[tuple[float, list[float]]]:
        """``lodrec matrix`` runs, with this process held on one CPU.

        ``threads`` keeps its default, the CPU count, and its scoring
        threads take turns at the GIL.  Spread over the CPUs, each turn
        waits for a sleeping CPU to wake, and that wait is the host's: on
        the 2-CPU reference machine one matrix took 3.3 s in some processes
        and 5.5 s in others.  On one CPU a turn is a local context switch;
        the probes around each run are taken there too.
        """
        times = []
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            for _ in range(reps):
                times.append(self.clock.measure(
                    lambda: self._cli(["matrix"], "matrix.tsv")))
                self.matrix_digests.add(_digest([self.out / "matrix.tsv"]))
        finally:
            os.sched_setaffinity(0, cpus)
        return times

    # -- outputs -----------------------------------------------------------

    def artifacts(self) -> list[Path]:
        return sorted(p for p in self.index_dir.iterdir() if p.is_file())

    def digest(self) -> str:
        return _digest(self.artifacts())

    def check(self) -> None:
        """lodrec's outputs against the oracle, and properties of answers."""
        oracle = Oracle(self.truth)
        with open(self.out / "index.json", encoding="utf-8") as f:
            oracle.check_summary(json.load(f))
        rng = np.random.default_rng([self.seed, 7])
        ids = oracle.ids
        oracle.check_doc_vectors(
            self.index_dir / "doc_vectors.tsv",
            [ids[i] for i in rng.choice(len(ids), DOC_SAMPLE, replace=False)])

        first: dict[str, list] = {}
        for q, ranked in self.answers:
            check_properties(q, ranked, K)
            if q not in first:
                oracle.check_ranking(q, ranked, WITH_LOD, K)
                first[q] = ranked
            elif ranked != first[q]:
                raise AssertionError(f"{q}: two answers to one query differ")

        if len(self.matrix_digests) != 1:
            raise AssertionError("repeated lodrec matrix runs differ")
        matrix = oracle.check_matrix(self.out / "matrix.tsv")
        for q in _check_queries(oracle, self.truth, rng):
            for method in (WITH_LOD, WITHOUT_LOD):
                rec = self.engine.recommend(q, self.index, K, method=method)
                oracle.check_ranking(q, rec.ranked, method, K)
                if method != WITH_LOD:
                    continue
                row = matrix[oracle.position[q]]
                for vid, score in rec.ranked:
                    cell = row[oracle.position[vid]]
                    if not (score == cell or (score is None and np.isnan(cell))):
                        raise AssertionError(
                            f"matrix cell {q},{vid} is {cell!r}, "
                            f"recommend says {score!r}")


def _digest(paths: list[Path]) -> str:
    """blake2b over the names and bytes of ``paths``."""
    h = hashlib.blake2b(digest_size=16)
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _check_queries(oracle, truth, rng) -> list[str]:
    """A seeded sample, plus re-uploads (exact ties) and videos that lack
    a route (fallback, or nothing to rank by)."""
    ids = oracle.ids
    sample = [ids[i] for i in rng.choice(len(ids), CHECK_QUERIES, replace=False)]
    groups: dict[tuple, list[str]] = {}
    for v in truth.videos:
        groups.setdefault((v.title, v.abstract, tuple(v.tags)), []).append(v.id)
    dups = [vid for g in groups.values() if len(g) > 1 for vid in g[:1]]
    no_text = [vid for i, vid in enumerate(ids) if oracle.tokens_used[i] == 0]
    no_code = [vid for i, vid in enumerate(ids) if not oracle.tfidf[i].any()]
    return list(dict.fromkeys(sample + dups[:4] + no_text[:2] + no_code[:2]))


def _quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _say(message: str) -> None:
    print(message, flush=True)


def _median(samples, column: int = 0) -> float:
    return statistics.median(x[column] for x in samples)


def timed(run: Run, seconds: float) -> tuple[dict, bool]:
    """The end-to-end metrics; raw wall times are printed alongside."""
    setups = scaled([run.setup() for _ in range(SETUP_REPS)])
    # Builds and matrix runs alternate, so that a slow spell of the host
    # falls on samples of both rather than on every sample of one.
    builds, matrices = [], []
    for i in range(REBUILDS):
        builds.append(run.build())
        matrices += run.matrix(MATRIX_REPS // REBUILDS
                               + (i < MATRIX_REPS % REBUILDS))
    builds = scaled(builds, BUILD_SCALE_POWER[run.workload])
    matrices = scaled(matrices)
    digest = run.digest()
    loads = scaled(run.load(LOAD_REPS))
    latencies = run.stream(seconds, max_rounds=None)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = [t for t, _ in latencies]
    lat_wall = [t for _, t in latencies]
    _say(f"index digest {digest}")
    _say(f"{len(run.truth.videos)} videos; scaled (wall) times: "
         f"setup {_median(setups):.3f} ({_median(setups, 1):.3f}) s, "
         f"build {_median(builds):.3f} ({_median(builds, 1):.3f}) s, "
         f"load {_median(loads):.4f} ({_median(loads, 1):.4f}) s, "
         f"matrix {_median(matrices):.3f} ({_median(matrices, 1):.3f}) s")
    _say(f"recommend: {len(latencies)} queries, p50 "
         f"{statistics.median(lat) * 1e3:.2f} "
         f"({statistics.median(lat_wall) * 1e3:.2f}) ms, p95 "
         f"{_quantile(lat, 95) * 1e3:.2f} ({_quantile(lat_wall, 95) * 1e3:.2f}) "
         f"ms; probe median {statistics.median(run.clock.probes) * 1e3:.3f} ms")
    metrics = {
        "setup_s": _metric(_median(setups), "s"),
        "build_s": _metric(_median(builds), "s"),
        "load_s": _metric(_median(loads), "s"),
        "recommend_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        # The tail is set by the host's slow spells whatever the state of
        # the run, and scaling it by the probe made it noisier: wall time.
        "recommend_p95_ms": _metric(_quantile(lat_wall, 95) * 1e3, "ms"),
        "matrix_s": _metric(_median(matrices), "s"),
        "index_mb": _metric(sum(p.stat().st_size for p in run.artifacts())
                            / 2**20, "MiB"),
        "peak_rss_mb": _metric(peak_rss, "MiB"),
    }
    return metrics, _checked(run)


def traced(run: Run) -> tuple[dict, bool]:
    """The per-layer metrics, from a traced pass after a plain one."""
    def phases() -> dict[str, float]:
        build = scaled([run.build()], BUILD_SCALE_POWER[run.workload])[0][0]
        load = _median(scaled(run.load(TRACE_LOADS)))
        latencies = run.stream(0, max_rounds=TRACE_ROUNDS)
        return {"build_s": build, "load_s": load,
                "recommend_mean_ms": statistics.mean(
                    t for t, _ in latencies) * 1e3,
                "matrix_s": scaled(run.matrix(1))[0][0]}

    run.setup()
    plain = phases()
    digest = run.digest()
    _say(f"index digest {digest}")
    correct = _checked(run)
    tracer = Tracer()
    run.stdout_bytes = 0
    tracer.install()
    try:
        with_trace = phases()
    finally:
        tracer.uninstall()
    if run.digest() != digest or len(run.matrix_digests) != 1:
        print("check failed: the traced build or matrix differs from the "
              "plain one", file=sys.stderr)
        correct = False
    overhead = {k: with_trace[k] / plain[k] for k in plain}
    _say("tracing overhead, scaled times (traced / plain): " + ", ".join(
        f"{k} {plain[k]:.4g} -> {with_trace[k]:.4g} ({overhead[k]:.2f}x)"
        for k in plain))
    truth = run.truth
    rows_used = len({t for v in truth.videos for t in v.tokens
                     if t not in truth.stopwords and t in truth.vectors})
    metrics = tracer.metrics(run.stdout_bytes, rows_used)
    path = run.work / "trace.json.gz"
    n_spans = tracer.write(path, {
        "workload": run.workload, "seed": run.seed, "plain": plain,
        "traced": with_trace, "overhead": overhead, "metrics": metrics})
    _say(f"trace: {n_spans} spans in {path}")
    return metrics, correct


def _checked(run: Run) -> bool:
    try:
        run.check()
    except AssertionError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return False
    _say("check: outputs agree with the oracle")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the recommend stream runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="the tiny make-up, for the benchmark's own tests")
    args = parser.parse_args(argv)

    work = HERE / "runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    spec = workloads.TINY[args.workload] if args.tiny else None
    began = time.perf_counter()
    try:
        run = Run(args.workload, args.seed, work, spec=spec)
        metrics, correct = traced(run) if args.trace else timed(run,
                                                                args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _say(f"{args.workload} seed {args.seed}: {run.attempted} operations, "
         f"{run.failed} failed, {time.perf_counter() - began:.1f} s in all")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
