"""No module imports a name it never uses, and no module exports a name it
does not define.

No linter ships with the project, so this scan stands in for one: it parses
every module under ``src/uclab``, ``tests`` and ``demos`` and fails on a
module-level import whose bound name the file never references.  Names
listed in ``__all__`` count as used; ``from __future__`` imports are ignored.
Every name in a ``uclab`` module's ``__all__`` must resolve on that module,
so a deleted function cannot leave a stale export behind, and each function
or class there must be defined by that module, the package's ``__init__``
aside, so an exported name has one home.  A process that never solves an
eigenproblem, and one that runs weighted-inequality trials, loads no scipy,
and importing the library modules that the benchmark's workloads run loads
no ``uclab.cli``, the home of the acceptance gates.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/uclab", "tests", "demos")


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_module_level_imports():
    found = []
    for folder in SCANNED:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            rel = path.relative_to(ROOT)
            found += [f"{rel} {hit}" for hit in unused_imports(tree)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_flags_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "print(osp)\n"
    )
    assert unused_imports(tree) == ["line 2: os", "line 3: pi"]


def test_every_exported_name_resolves():
    stale = []
    for path in sorted((ROOT / "src/uclab").glob("*.py")):
        name = "uclab" if path.stem == "__init__" else f"uclab.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                  if not hasattr(module, attr)]
    assert not stale, "exported but not defined:\n" + "\n".join(stale)


def test_every_exported_function_and_class_is_defined_by_its_exporter():
    # one home per exported name; the package's __init__ re-exports the
    # quick-start names by design
    foreign = []
    for path in sorted((ROOT / "src/uclab").glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"uclab.{path.stem}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr, None)
            if (inspect.isfunction(obj) or inspect.isclass(obj)) \
                    and obj.__module__ != module.__name__:
                foreign.append(f"{module.__name__}.{attr} is {obj.__module__}.{attr}")
    assert not foreign, "exported from another module:\n" + "\n".join(foreign)


# a delta sweep, then one eigensolve, in a fresh interpreter; prints the scipy
# modules loaded after each and the number of eigenpairs returned
_SWEEP_THEN_SOLVE = """
import json, sys
import numpy as np
import uclab, uclab.cli, uclab.verifier, uclab.carleman, uclab.spectral, uclab.discretization
from uclab.constants import ModelParams
from uclab.fields import synthesize_random_field
from uclab.geometry import CubeDomain

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

dom = CubeDomain(2, 3.0, 1 / 16, "periodic")
p = ModelParams(d=2, theta1=1.0, theta2=0.0, G=1.0, delta=0.2, L=3.0)
uclab.verifier.delta_sweep(np.ones(dom.shape), dom, 1.0, [0.1, 0.2, 0.3, 0.4], p)
after_sweep = scipy_modules()
op = uclab.discretization.assemble(
    synthesize_random_field(0, CubeDomain(1, 3.0, 1 / 16, "periodic"), 1.3, norm_V=0.5))
pairs = len(uclab.spectral.eigensolve(op, count=3))
print(json.dumps({"after_sweep": after_sweep, "after_solve": scipy_modules(),
                  "variable": op.constant_coefficients is None, "pairs": pairs}))
"""


def test_a_sweep_loads_no_scipy_and_a_solve_does():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _SWEEP_THEN_SOLVE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["after_sweep"] == []
    assert out["variable"] and out["pairs"] == 3
    assert {"scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"} <= set(out["after_solve"])



def test_the_library_modules_load_no_cli():
    # with PYTHONDONTWRITEBYTECODE=1 each module a run loads is compiled
    # within its start-up time, so the gates stay off the library's path
    code = ("import sys, uclab.verifier, uclab.carleman, uclab.geometry; "
            "print('uclab.cli' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# a d = 1 and a d = 2 weighted-inequality trial, then Ein on both sides of
# the series cut, in a fresh interpreter
_TRIALS_THEN_EIN = """
import json, sys
import numpy as np
from uclab.carleman import carleman_trial, ein

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

for d in (1, 2):
    carleman_trial(0, d, 1 / 64)
after_trials = scipy_modules()
values = ein(np.array([0.5, 2.0])).tolist()
print(json.dumps({"after_trials": after_trials, "after_ein": scipy_modules(),
                  "values": values}))
"""


def test_a_carleman_trial_loads_no_scipy_and_ein_past_the_cut_does():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _TRIALS_THEN_EIN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["after_trials"] == []
    assert "scipy.special" in out["after_ein"]
    for x, got in zip((0.5, 2.0), out["values"]):
        ref = oracles.ein(x)
        err = abs(oracles.mp.mpf(got) - ref)
        assert err <= 2e-15 and err / ref <= 1e-15  # test_carleman's Ein tolerance
