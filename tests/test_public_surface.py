"""The public surface of ``repro`` is what runs.

Every public top-level function or class in ``src/repro`` must be
referenced by code under ``src/``, ``benchmarks/``, ``perfbench/`` or
``examples/``: a reference is a ``Name``, an ``Attribute`` or an
``ImportFrom`` alias naming it, outside its own definition and outside
the package ``__init__`` re-exports.  A name only tests use is deleted,
not maintained.  The exceptions are the oracles and comparators in
``ORACLES``, each kept for the reason given; the allowlist must name
exactly the defined names nothing outside ``tests/`` references, so it
cannot go stale.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Sequence

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
REFERENCE_ROOTS = [
    ROOT / name for name in ("src", "benchmarks", "perfbench", "examples")
]

ORACLES = {
    "ExactPlacement": (
        "branch-and-bound minimum-nodes optimum: the offline reference "
        "of the optimality-gap and competitive-ratio work (ROADMAP items "
        "9 and 10)"
    ),
    "exact_partition": (
        "exact multiway-partition optimum the RCKK gap is measured "
        "against (ROADMAP item 9)"
    ),
    "min_bins_possible": (
        "bin-packing lower bound for nodes in service (ROADMAP item 8)"
    ),
    "HypoexponentialLatency": (
        "closed-form end-to-end latency distribution the tail "
        "percentiles are checked against (ROADMAP item 6)"
    ),
    "RandomFitPlacement": (
        "uniform random feasible placement, the floor test_bfdsu and "
        "test_best_of compare BFDSU against"
    ),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules(root: Path) -> List[Path]:
    return [p for p in sorted(root.rglob("*.py")) if p.name != "__init__.py"]


def _names_in(node: ast.AST) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def public_defs(package: Path) -> Dict[str, List[Path]]:
    """``{name: [defining files]}`` of the public top-level functions and
    classes of ``package``, ``__init__`` modules excluded."""
    defs: Dict[str, List[Path]] = {}
    for path in _modules(package):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, _DEFINITIONS) and not stmt.name.startswith("_"):
                defs.setdefault(stmt.name, []).append(path)
    return defs


def unreferenced_public_defs(
    package: Path, roots: Sequence[Path]
) -> Dict[str, List[Path]]:
    """The public top-level defs of ``package`` that no non-``__init__``
    module under ``roots`` references outside their own definition."""
    referenced = set()
    for root in roots:
        for path in _modules(root):
            for stmt in ast.parse(path.read_text(), filename=str(path)).body:
                names = _names_in(stmt)
                if isinstance(stmt, _DEFINITIONS):
                    names.discard(stmt.name)
                referenced |= names
    return {
        name: paths
        for name, paths in public_defs(package).items()
        if name not in referenced
    }


@pytest.fixture(scope="module")
def unreferenced():
    return unreferenced_public_defs(PACKAGE, REFERENCE_ROOTS)


def _listing(defs: Dict[str, List[Path]]) -> str:
    return "\n".join(
        f"  {name} ({', '.join(str(p.relative_to(ROOT)) for p in paths)})"
        for name, paths in sorted(defs.items())
    )


def test_every_public_def_runs_outside_tests(unreferenced):
    unlisted = {
        name: paths for name, paths in unreferenced.items() if name not in ORACLES
    }
    assert not unlisted, (
        "public names that only tests use; delete them, or add an oracle "
        "to ORACLES with its reason:\n" + _listing(unlisted)
    )


def test_oracles_exist_and_only_tests_use_them(unreferenced):
    defined = public_defs(PACKAGE)
    missing = sorted(name for name in ORACLES if name not in defined)
    assert not missing, f"ORACLES names no longer defined: {missing}"
    used = sorted(name for name in ORACLES if name not in unreferenced)
    assert not used, (
        f"ORACLES names referenced outside tests/, drop them from the "
        f"allowlist: {used}"
    )


def test_scanner_flags_only_the_unreferenced_def(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from pkg.mod import used, unused, _private\n"
    )
    (package / "mod.py").write_text(
        "def used():\n"
        "    return 1\n"
        "\n"
        "def unused(n):\n"
        "    return unused(n - 1) if n else 0\n"
        "\n"
        "def _private():\n"
        "    return 2\n"
    )
    (tmp_path / "app.py").write_text("from pkg.mod import used\n\nused()\n")
    found = unreferenced_public_defs(package, [tmp_path])
    assert found == {"unused": [package / "mod.py"]}
