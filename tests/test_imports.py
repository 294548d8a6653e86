import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bevmap"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


_CONCURRENCY = {"threading", "concurrent", "multiprocessing"}


def _concurrency_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] in _CONCURRENCY]
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] in _CONCURRENCY:
            found.append(node.module)
    return found


def test_only_tensorad_imports_concurrency():
    # threads have one owner: the sampler's pool in tensorad
    found = {path.name: _concurrency_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods and name != "tensorad.py"} == {}


def _uses(source: str, name: str) -> dict[str, set[str]]:
    """Per top-level function, the attributes read from `name` (a bare use reads "")."""
    found: dict[str, set[str]] = {}
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == name:
                found.setdefault(where, set()).add(node.attr)
            elif isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
                found.setdefault(where, set()).add("")
    return found


def test_pool_hand_offs_go_through_one_helper():
    # `_on_pool` runs every task in a copy of the caller's context, so numpy's
    # error state holds on the pool threads too
    assert _uses((SRC / "tensorad.py").read_text(), "_POOL") == {"_on_pool": {"", "map", "submit"}}


def test_scene_files_are_read_in_one_place():
    # `_load_scene_dir` checks and fingerprints what it reads, so every
    # command that reads scenes gets both
    assert _uses((SRC / "cli.py").read_text(), "load_scene") == {"_load_scene_dir": {""}}


def test_every_benchmark_patch_resolves():
    # the benchmark wraps these names where callers look them up; deleting
    # one breaks its trace
    spec = importlib.util.spec_from_file_location("bench_trace", ROOT / "perfbench" / "bench_trace.py")
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in bench_trace.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_scipy_optimize_and_spatial_load_where_they_run():
    # together ~27 MB of RSS that a forward-only run never uses
    script = """
import importlib, pathlib, sys
import numpy as np
import bevmap
for path in sorted(pathlib.Path(bevmap.__file__).parent.glob("*.py")):
    importlib.import_module("bevmap." + path.stem)
from bevmap import attention, matching
from bevmap.tensorad import Tensor
rng = np.random.default_rng(0)
levels = [Tensor(rng.normal(size=(16, 8, 8))), Tensor(rng.normal(size=(16, 4, 4)))]
params = attention.init_msda_params(attention.VARIANT_VANILLA, 2, 2, 2, 16, seed=1)
attention.msda(Tensor(rng.normal(size=(5, 16))), levels, Tensor(rng.uniform(size=(5, 2))), params)
print(sorted(m for m in ("scipy.optimize", "scipy.spatial") if m in sys.modules))
cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
print(matching.hungarian(cost).pairs)
from scipy.optimize import linear_sum_assignment
print([(int(r), int(c)) for r, c in zip(*linear_sum_assignment(cost))])
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    loaded, pairs, solver = run.stdout.splitlines()
    assert loaded == "[]"
    assert [(g, q) for g, q, _ in ast.literal_eval(pairs)] == ast.literal_eval(solver) == [(0, 1), (1, 0), (2, 2)]
