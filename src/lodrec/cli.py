"""Command-line entry point.

Subcommands wire the pipeline end to end: ``ingest`` -> ``index`` ->
``recommend`` / ``matrix``, plus ``evaluate`` for rating files.  Every
command reads its settings from a ``--config`` file with flags winning
over file values, prints machine-parseable JSON (or TSV for ``matrix``)
on stdout, and keeps human diagnostics on stderr.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error,
141 stdout closed by its reader before the output was complete.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ddc
from .engine import METHODS, WITH_LOD, recommend, write_matrix_tsv
from .errors import LodrecError
from .evaluation import build_report, load_ratings
from .pipeline import (
    ConfigError,
    load_config,
    load_index,
    override_config,
    run_index,
    run_ingest,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command SIGPIPE killed


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 1
        raise UsageError(message)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, ensure_ascii=False))


def _build_parser() -> _Parser:
    parser = _Parser(prog="lodrec",
                     description="Metadata-based video similarity pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", required=True,
                       help="pipeline config file (key = value lines)")

    p_ingest = sub.add_parser("ingest", help="load, filter, and persist the corpus")
    add_config_flags(p_ingest)

    p_index = sub.add_parser("index", help="build all index artifacts")
    add_config_flags(p_index)
    p_index.add_argument("--mode", choices=ddc.MODES, default=None,
                         help="code fragmentation mode")
    p_index.add_argument("--limit-embeddings", type=int, default=None,
                         help="load at most N embedding rows")

    p_rec = sub.add_parser("recommend", help="top-k similar videos for a query")
    add_config_flags(p_rec)
    p_rec.add_argument("query_id", help="video id to recommend for")
    p_rec.add_argument("--k", type=int, default=None,
                       help="number of recommendations")
    p_rec.add_argument("--method", choices=METHODS, default=WITH_LOD)

    p_mat = sub.add_parser("matrix", help="pairwise similarity matrix as TSV")
    add_config_flags(p_mat)
    p_mat.add_argument("--method", choices=METHODS, default=WITH_LOD)

    p_eval = sub.add_parser("evaluate", help="aggregate ratings and run the test")
    p_eval.add_argument("ratings_path", help="ratings CSV file")

    return parser


def _cmd_ingest(args) -> int:
    config = _config_from_args(args)
    summary = run_ingest(config)
    if summary["retained"] == 0:
        _warn("language filter retained no records")
    _emit(summary)
    return EXIT_OK


def _cmd_index(args) -> int:
    config = _config_from_args(args, fragmentation_mode=args.mode,
                               limit_embeddings=args.limit_embeddings)
    summary = run_index(config)
    if summary["videos"] == 0:
        _warn("the corpus has no videos; the index is empty")
    elif summary["vocabulary_size"] == 0:
        _warn("no tags resolved to classification codes; "
              "vocabulary is empty and all similarity falls back to text")
    if summary["unresolved_tags"]:
        _warn(f"{summary['unresolved_tags']} of "
              f"{summary['unresolved_tags'] + summary['resolved_tags']} "
              "tags had no authority entry")
    _emit(summary)
    return EXIT_OK


def _cmd_recommend(args) -> int:
    config = _config_from_args(args)
    index = load_index(config)
    k = args.k if args.k is not None else config.k
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    max_k = len(index) - 1
    if max_k < 1:
        raise LodrecError("index contains fewer than two videos")
    if k > max_k:
        _warn(f"k={k} exceeds corpus size - 1; clamping to {max_k}")
        k = max_k
    rec = recommend(args.query_id, index, k, method=args.method)
    _emit(rec.to_json_obj())
    return EXIT_OK


def _cmd_matrix(args) -> int:
    config = _config_from_args(args)
    index = load_index(config)
    write_matrix_tsv(index, sys.stdout, method=args.method)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    ratings = load_ratings(args.ratings_path)
    report = build_report(ratings)
    _emit(report)
    if "error" in report["chi_square"]:
        _warn(f"chi-square test failed: {report['chi_square']['error']}")
        return EXIT_DATA
    return EXIT_OK


def _config_from_args(args, **overrides):
    return override_config(load_config(args.config), **overrides)


_COMMANDS = {
    "ingest": _cmd_ingest,
    "index": _cmd_index,
    "recommend": _cmd_recommend,
    "matrix": _cmd_matrix,
    "evaluate": _cmd_evaluate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (UsageError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout (``lodrec matrix | head``): stop
        # quietly.  The interpreter flushes stdout again at exit, so point
        # it at devnull, or that flush fails too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (LodrecError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # invariant violation; keep the traceback
        import traceback
        traceback.print_exc()
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
