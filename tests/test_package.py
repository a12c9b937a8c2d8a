"""Package surface: every module imports on its own, and every name a
module exports exists and is used by the package itself."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import shiftpose

MODULES = [m.name for m in pkgutil.iter_modules(shiftpose.__path__, "shiftpose.")]

# exported names with no caller in the package yet, each kept for a planned one
UNUSED_EXPORTS = {
    # the parameter counts against active and deformable convolution that
    # the shortcut-variant rows will report (ROADMAP item 3)
    "fsm_param_count",
    # the local baseline that keypoint accuracy is compared against
    # (ROADMAP item 1)
    "matched_filter_locate",
    # the benchmark's inference workload decodes with it, and keypoint
    # accuracy will (ROADMAP item 1)
    "decode_heatmap",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_module_imports_on_its_own(name):
    # the package root imports no submodule, so an import cycle shows only
    # for the entry point that starts it: import each one in a fresh process
    src = str(pathlib.Path(shiftpose.__file__).parents[1])
    subprocess.run([sys.executable, "-c", f"import {name}"], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_training_imports_no_thread_pool():
    """The worker of ``autodiff._halves`` is made on the first split, so
    importing the command line and running a product below
    ``_SPLIT_WORK`` (a 6-MFLOP conv) loads no ``concurrent.futures`` and
    starts no thread."""
    src = str(pathlib.Path(shiftpose.__file__).parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, threading, numpy as np, shiftpose.cli\n"
         "from shiftpose import autodiff as ad\n"
         "ad.conv1x1(ad.tensor(np.ones((1, 64, 16, 12), np.float32)),\n"
         "           ad.Parameter(np.ones((256, 64), np.float32)))\n"
         "print('concurrent.futures' in sys.modules, threading.active_count())"],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}).stdout
    assert loaded == "False 1\n"


def test_a_toy_step_and_evaluation_start_no_thread():
    """Every product, pass, normalization, max-pool and sigmoid of a
    default-config training step (its module inserted) and of an
    evaluation works below ``_SPLIT_WORK``: the desk-scale step runs on
    one thread, with no ``concurrent.futures``."""
    src = str(pathlib.Path(shiftpose.__file__).parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, threading\n"
         "from dataclasses import replace\n"
         "from shiftpose.config import RunConfig, build_datasets, build_network\n"
         "from shiftpose.training import Trainer\n"
         "cfg = RunConfig()\n"
         "trainer = Trainer(build_network(cfg), replace(cfg.trainer, insertion_iteration=0),\n"
         "                  *build_datasets(cfg))\n"
         "trainer.step()\n"
         "trainer.evaluate()\n"
         "print('concurrent.futures' in sys.modules, threading.active_count())"],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}).stdout
    assert loaded == "False 1\n"


def test_no_module_reads_an_environment_variable():
    """Every setting is an argument, a command flag or a config field."""
    readers = []
    for path in sorted(pathlib.Path(shiftpose.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else \
                node.name if isinstance(node, ast.alias) else None
            if name in ("environ", "environb", "getenv", "getenvb"):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def _defined_name(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
            and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return None


def test_every_exported_name_has_a_caller_in_the_package():
    """A name listed in any ``__all__`` is read somewhere in the package
    outside its own definition; an import alone is not a use."""
    exported, used = set(), set()
    for path in pathlib.Path(shiftpose.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            defined = _defined_name(stmt)
            if defined == "__all__":
                exported.update(ast.literal_eval(stmt.value))
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != defined:
                    used.add(name)
    assert sorted(exported - used - UNUSED_EXPORTS) == []
