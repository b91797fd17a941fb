"""The library surface: the names ``latcop`` exports, and a reader in
``src/`` (or in the benchmark scripts) for every top-level definition."""

from __future__ import annotations

import ast
import re
import types
from pathlib import Path

import latcop

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = [
    "AlterEgo", "CapExceeded", "CatalogEntry", "ClassificationReport", "CoproductResult",
    "DReductSpec", "DistLatticeReduct", "FiniteAlgebra", "FinitePoset", "Homomorphism",
    "InternalError", "LatcopError", "LatticeAxiomError", "MembershipError",
    "MultisortedStructure", "ParseError", "PrimeFilter", "SeparationError", "Signature",
    "SignatureMismatch", "SortedRelation", "Term", "app", "build_alter_ego",
    "carrier_from_filter", "carriers_of", "coproduct", "d_reduct", "direct_product",
    "e_functor", "embeds", "find_single_generator", "flowchart_classify", "free_algebra",
    "hom_enumerate", "in_isp", "induced_subalgebra", "isomorphic", "make", "make_id",
    "maximal_subuniverses_in", "minimal_omega_certified", "natural_dual",
    "priestley_dual", "prime_filters", "reveng_priestley", "sep_condition",
    "simplify_generators", "structure_product", "subuniverse_closure", "subuniverses",
    "table1_suite", "var",
]


def unread_definitions(package: Path, bench: Path) -> list[str]:
    """The top-level functions and classes of the modules in ``package``,
    as ``module.name``, that nothing reads.  A reader is a ``Name`` load
    outside the definition's own body, or a ``from .module import`` of it,
    in any module but ``__init__`` (an export is not a read), or a mention
    of the name in the scripts of ``bench``.  Attribute names do not count."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    reads: list[tuple[str, str, int]] = []  # (module, name, line)
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.id, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                reads.extend((module, alias.name, node.lineno) for alias in node.names)
    mentioned = set()
    for path in bench.glob("*.py"):
        mentioned.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in mentioned:
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = range(first, node.end_lineno + 1)
            if not any(n == node.name and not (m == module and line in own) for m, n, line in reads):
                unread.append(f"{module}.{node.name}")
    return unread


def test_exports():
    names = sorted(n for n, v in vars(latcop).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == sorted(EXPORTS)


def test_every_definition_has_a_reader():
    assert unread_definitions(ROOT / "src" / "latcop", ROOT / "perfbench") == []


def test_check_finds_unread_definitions(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text("from .a import exported, imported, loop, used\n")
    (package / "a.py").write_text(
        "import functools\n"
        "\n"
        "def used():\n    return 1\n"
        "\n"
        "def loop(n):\n    return loop(n - 1) if n else used()\n"
        "\n"
        "@functools.cache\n"
        "def benched():\n    return 2\n"
        "\n"
        "def exported():\n    return 3\n"
        "\n"
        "def imported():\n    return 4\n"
        "\n"
        "class Attr:\n    pass\n"
    )
    (package / "b.py").write_text("from .a import imported\n\nx = object().Attr\n")
    (bench / "run.py").write_text("TARGETS = ['a.benched']\n")
    assert unread_definitions(package, bench) == ["a.loop", "a.exported", "a.Attr"]
