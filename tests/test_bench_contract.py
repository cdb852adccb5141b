"""The benchmark scripts in perfbench/ read the package by name.  Every name
they import from memlen, and every attribute they read off a name bound to
memlen, must exist, so that a change deleting one fails here rather than in
a benchmark run.  The scripts are parsed, not imported."""

import ast
import importlib
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))


def memlen_reads(tree: ast.AST) -> list[str]:
    """Dotted paths a script reads from memlen: its imports from the package
    and the attributes it reads off the names those imports bind."""
    bound: dict[str, str] = {}  # local name -> dotted path
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "memlen":
                    reads.append(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["memlen"] = "memlen"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "memlen":
            for alias in node.names:
                reads.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ):
            reads.append(f"{bound[node.value.id]}.{node.attr}")
    return reads


def resolves(path: str) -> bool:
    """Whether the dotted path names a module, or an attribute chain off the
    longest module prefix of it."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_scripts_read_memlen():
    # guards against a parse that finds nothing and passes vacuously
    reads = [r for script in SCRIPTS for r in memlen_reads(ast.parse(script.read_text()))]
    assert "memlen.backward.discrepancy_by_length" in reads
    assert "memlen._kernels.NUMBA_ENABLED" in reads


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_memlen_name_resolves(script):
    reads = memlen_reads(ast.parse(script.read_text(), filename=str(script)))
    assert [r for r in reads if not resolves(r)] == []


def test_a_missing_name_is_reported():
    tree = ast.parse("import memlen\nfrom memlen.backward import gone\nmemlen.absent()\n")
    missing = [r for r in memlen_reads(tree) if not resolves(r)]
    assert missing == ["memlen.backward.gone", "memlen.absent"]
