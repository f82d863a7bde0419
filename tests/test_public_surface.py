"""The public surface of ``repro`` is what runs.

Every public top-level function or class in ``src/repro``, and every
public method or property of a public class, must be referenced by code
under ``src/``, ``benchmarks/``, ``perfbench/`` or ``examples/``,
outside the package ``__init__`` re-exports.  A reference to a
top-level name is a ``Name``, an ``Attribute`` or an ``ImportFrom``
alias naming it; a reference to a member is an attribute access
(``obj.name``) only, so a local variable or function that shares a
dead member's name does not keep it.  A top-level name is not
referenced by its own definition, and a member is not referenced by
its own body.  A name only tests use is deleted, not
maintained.  The exceptions are the oracles and comparators in
``ORACLES`` (members as ``"Class.member"``), each kept for the reason
given; the allowlist must name exactly the defined names nothing
outside ``tests/`` references, so it cannot go stale.

References match by name, not by type.  So an override that a live
caller reaches through its base class (``place``, ``schedule``,
``assign``) is never flagged, and neither is a dead member whose name
is accessed as an attribute of something else (a live member or field
of the same name): that is the scan's known false negative.  A
top-level function referenced only inside a member of the same name
counts as unreferenced.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

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
    "NetworkModel.chain_fits": (
        "link-capacity verdict the engine's cached-route admission "
        "(DeploymentEngine._route_fits) is checked against"
    ),
    "ChainFeedbackModel.to_jackson_network": (
        "the chain as an explicit Jackson network, which "
        "mean_response_time_at and total_response_time are checked against"
    ),
    "JacksonSolution.mean_network_response_time": (
        "Little's-law network latency total_response_time is checked against"
    ),
    "ExperimentResult.from_dict": (
        "the inverse the round-trip tests check the live to_dict against"
    ),
    "ExperimentResult.filtered": (
        "selects the rows test_claims.py and test_figures.py check the "
        "paper's claims over"
    ),
    "PartitionResult.makespan": (
        "the multiway-partition objective the partition suites compare "
        "every heuristic and exact_partition by"
    ),
    "MMPP2.mean_rate": (
        "closed-form stationary arrival rate the sampled MMPP streams "
        "and the trace source's M/M/1 baseline are checked against"
    ),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)


def _modules(root: Path) -> List[Path]:
    return [p for p in sorted(root.rglob("*.py")) if p.name != "__init__.py"]


def _names_in(node: ast.AST) -> Tuple[set, set]:
    """The names ``node`` references, and the attribute names among
    them; inside a class, each member's own name does not count within
    that member's body."""
    names, attrs = set(), set()
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
        attrs.add(node.attr)
    elif isinstance(node, ast.ImportFrom):
        names.update(alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        sub_names, sub_attrs = _names_in(child)
        if isinstance(node, ast.ClassDef) and isinstance(child, _FUNCTIONS):
            sub_names.discard(child.name)
            sub_attrs.discard(child.name)
        names |= sub_names
        attrs |= sub_attrs
    return names, attrs


def _public(node: ast.AST) -> bool:
    return isinstance(node, _DEFINITIONS) and not node.name.startswith("_")


def public_defs(package: Path) -> Dict[str, List[Path]]:
    """``{name: [defining files]}`` of the public top-level functions and
    classes of ``package`` and, as ``"Class.member"``, the public
    methods and properties of its public classes; ``__init__`` modules
    excluded."""
    defs: Dict[str, List[Path]] = {}
    for path in _modules(package):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if not _public(stmt):
                continue
            keys = [stmt.name]
            if isinstance(stmt, ast.ClassDef):
                keys += [
                    f"{stmt.name}.{member.name}"
                    for member in stmt.body
                    if _public(member) and isinstance(member, _FUNCTIONS)
                ]
            for key in dict.fromkeys(keys):
                defs.setdefault(key, []).append(path)
    return defs


def unreferenced_public_defs(
    package: Path, roots: Sequence[Path]
) -> Dict[str, List[Path]]:
    """The public defs of ``package`` (see :func:`public_defs`) that no
    non-``__init__`` module under ``roots`` references outside their
    own definition."""
    referenced, accessed = set(), set()
    for root in roots:
        for path in _modules(root):
            for stmt in ast.parse(path.read_text(), filename=str(path)).body:
                names, attrs = _names_in(stmt)
                if isinstance(stmt, _DEFINITIONS):
                    names.discard(stmt.name)
                referenced |= names
                accessed |= attrs
    return {
        key: paths
        for key, paths in public_defs(package).items()
        # A member ("Class.member") is live only through an attribute.
        if key.rpartition(".")[2] not in (accessed if "." in key else referenced)
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


def test_scanner_flags_only_the_unreferenced_members(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from pkg.mod import Base, Child\n")
    (package / "mod.py").write_text(
        "class Base:\n"
        "    def run(self):\n"
        "        return self.step()\n"
        "\n"
        "    def step(self):\n"
        "        raise NotImplementedError\n"
        "\n"
        "    def unused(self, n):\n"
        "        return self.unused(n - 1) if n else 0\n"
        "\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "\n"
        "    def total(self):\n"
        "        return 4\n"
        "\n"
        "    def _private(self):\n"
        "        return 2\n"
        "\n"
        "\n"
        "class Child(Base):\n"
        "    def step(self):\n"
        "        return 3\n"
    )
    # ``total`` is a local variable and a function here, never an
    # attribute: ``Base.total`` stays unreferenced.
    (tmp_path / "app.py").write_text(
        "from pkg.mod import Child\n"
        "\n"
        "def total(items):\n"
        "    total = sum(items)\n"
        "    return total\n"
        "\n"
        "Child().run()\n"
        "total([1])\n"
    )
    found = unreferenced_public_defs(package, [tmp_path])
    assert found == {
        "Base.unused": [package / "mod.py"],
        "Base.size": [package / "mod.py"],
        "Base.total": [package / "mod.py"],
    }
