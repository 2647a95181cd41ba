"""The top-level API: it holds what the demos, tools and README import,
and the demos run against it."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import subprocess
import sys

import pytest

import lodrec

from conftest import REPO, checkout_env

DEMOS = sorted((REPO / "demos").glob("*.py"))

# Kept at the top level although no caller imports them by name: the
# types in the signatures of exported functions, and the errors a caller
# catches.
SIGNATURE_TYPES = {"CorpusIndex", "Recommendation", "SimilarityScore",
                   "PipelineConfig"}
ERRORS = {"LodrecError", "ParseError", "ConfigError", "UnknownIdError"}


# The modules that start threads or processes, or take over signals.
CONCURRENCY = {"multiprocessing", "threading", "_thread", "signal",
               "subprocess", "concurrent"}
# The os functions that fork or start a process.
OS_PROCESS = re.compile(r"fork|spawn|posix_spawn|system|popen|exec")


def names_imported_from_lodrec(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "lodrec"
            and node.level == 0 for alias in node.names}


def caller_sources() -> list[str]:
    """The demos, the tools and the README's Python code blocks."""
    scripts = DEMOS + sorted((REPO / "tools").glob("*.py"))
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return ([p.read_text(encoding="utf-8") for p in scripts]
            + re.findall(r"```python\n(.*?)```", readme, re.S))


def test_all_is_what_callers_import():
    used = set().union(*map(names_imported_from_lodrec, caller_sources()))
    assert len(set(lodrec.__all__)) == len(lodrec.__all__)
    assert set(lodrec.__all__) == used | SIGNATURE_TYPES | ERRORS
    for name in lodrec.__all__:
        assert getattr(lodrec, name) is not None, name


SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(lodrec.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_names_what_it_defines(name):
    """A deleted name cannot stay exported, nor a name twice."""
    module = importlib.import_module(f"lodrec.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == [], name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, timeout=60, env=checkout_env())
    assert result.returncode == 0, result.stderr


def process_starts(path) -> list[str]:
    """The modules of ``CONCURRENCY`` that ``path`` imports, and the os
    functions it names that fork or start a process."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] in CONCURRENCY]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in CONCURRENCY:
                found.append(node.module)
            elif node.module == "os":
                found += [f"os.{alias.name}" for alias in node.names
                          if OS_PROCESS.match(alias.name)]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "os"
              and OS_PROCESS.match(node.attr)):
            found.append(f"os.{node.attr}")
    return found


def test_package_starts_no_thread_or_process():
    """Every module runs in its caller's one thread and process."""
    for path in sorted((REPO / "src" / "lodrec").glob("*.py")):
        assert process_starts(path) == [], path.name


# The modules that unpickle, which can run code that a file names.
PICKLE = {"pickle", "_pickle", "shelve"}


def unsafe_loads(source: str) -> list[str]:
    """The pickle modules that ``source`` imports, and each ``np.load``
    call in it that does not pass ``allow_pickle=False``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] in PICKLE]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in PICKLE:
                found.append(node.module)
            elif node.module == "numpy":
                found += [f"numpy.{alias.name}" for alias in node.names
                          if alias.name == "load"]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "load"
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id in ("np", "numpy")
              and not any(k.arg == "allow_pickle"
                          and isinstance(k.value, ast.Constant)
                          and k.value.value is False
                          for k in node.keywords)):
            found.append(f"{ast.unparse(node)} on line {node.lineno}")
    return found


@pytest.mark.parametrize("source,found", [
    ("np.load(f, allow_pickle=False)", []),
    ("np.load(f)", ["np.load(f) on line 1"]),
    ("numpy.load(f, allow_pickle=True)",
     ["numpy.load(f, allow_pickle=True) on line 1"]),
    ("np.load(f, allow_pickle=flag)",
     ["np.load(f, allow_pickle=flag) on line 1"]),
    ("from numpy import load", ["numpy.load"]),
    ("import pickle", ["pickle"]),
    ("from _pickle import loads", ["_pickle"]),
    ("json.load(f)", []),
])
def test_unsafe_loads_finds_what_it_is_meant_to(source, found):
    assert unsafe_loads(source) == found


def test_package_unpickles_nothing():
    """Every array the package reads is a plain array: no file it loads
    can make it run code."""
    for path in sorted((REPO / "src" / "lodrec").glob("*.py")):
        assert unsafe_loads(path.read_text(encoding="utf-8")) == [], path.name


# Calls that write a file: numpy's savers, ``tofile``, ``write_text`` and
# ``write_bytes``, and ``open`` (builtin, ``io.open`` or a path's) in a
# mode that is not plainly a read.  ``os.open`` takes flags, not a mode.
WRITE_CALLS = {"save", "savez", "savez_compressed", "savetxt", "tofile",
               "write_text", "write_bytes"}


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        modes = call.args[1:2]
    elif isinstance(func.value, ast.Name) and func.value.id == "os":
        return False
    elif isinstance(func.value, ast.Name) and func.value.id == "io":
        modes = call.args[1:2]
    else:
        modes = call.args[:1]
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                    and not set(m.value) & set("wax+")) for m in modes)


def file_writes(source: str) -> list[tuple[str | None, str]]:
    """Each call in ``source`` that writes a file, as (the function it is
    in, or None at module level; the call and its line)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = (node.func.attr if isinstance(node.func, ast.Attribute)
                    else getattr(node.func, "id", None))
            if name in WRITE_CALLS or (name == "open"
                                       and _opens_for_writing(node)):
                found.append((function, f"{ast.unparse(node)} on line "
                              f"{node.lineno}"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("source,found", [
    ("open(p)", []),
    ("open(p, 'rb')", []),
    ("open(p, encoding='utf-8')", []),
    ("io.open(p, mode='r')", []),
    ("p.open()", []),
    ("os.open(os.devnull, os.O_WRONLY)", []),
    ("np.load(f, allow_pickle=False)", []),
    ("def f():\n    open(p, 'w')", [("f", "open(p, 'w') on line 2")]),
    ("open(p, mode='a')", [(None, "open(p, mode='a') on line 1")]),
    ("io.open(p, 'r+b')", [(None, "io.open(p, 'r+b') on line 1")]),
    ("p.open('xb')", [(None, "p.open('xb') on line 1")]),
    ("open(p, m)", [(None, "open(p, m) on line 1")]),
    ("np.save(p, a)", [(None, "np.save(p, a) on line 1")]),
    ("numpy.savez(p, a=a)", [(None, "numpy.savez(p, a=a) on line 1")]),
    ("a.tofile(p)", [(None, "a.tofile(p) on line 1")]),
    ("class C:\n    def g(self):\n        p.write_text(t)",
     [("g", "p.write_text(t) on line 3")]),
    ("p.write_bytes(b)", [(None, "p.write_bytes(b) on line 1")]),
])
def test_file_writes_finds_what_it_is_meant_to(source, found):
    assert file_writes(source) == found


def test_only_the_artifact_writer_writes_files():
    """Every file the package writes reaches disk through
    ``pipeline._write``, whole or not at all."""
    for path in sorted((REPO / "src" / "lodrec").glob("*.py")):
        writes = file_writes(path.read_text(encoding="utf-8"))
        if path.name == "pipeline.py":
            writes = [(f, call) for f, call in writes if f != "_write"]
        assert writes == [], path.name
