"""The benchmark scripts in perfbench/ read the package by name.  Every name
they import from memlen, and every attribute they read off a name bound to
memlen, must exist, and every keyword they pass to a memlen callable must
be one of its parameters, so that a change deleting either fails here
rather than in a benchmark run.  The scripts are parsed, not imported.  The
per-symbol call that the traced run times without an index must build
none."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))


def memlen_bindings(tree: ast.AST) -> tuple[list[str], dict[str, str]]:
    """A script's imports from memlen, as dotted paths, and the local name
    each import binds with the dotted path it binds it to."""
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
    return reads, bound


def memlen_reads(tree: ast.AST) -> list[str]:
    """Dotted paths a script reads from memlen: its imports from the package
    and the attributes it reads off the names those imports bind."""
    reads, bound = memlen_bindings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (path := bound_path(node, bound)):
            reads.append(path)
    return reads


def bound_path(node: ast.AST, bound: dict[str, str]) -> str | None:
    """The dotted path an expression names when it is a name bound to
    memlen or an attribute read off one; None otherwise."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        base = bound.get(node.value.id)
        return f"{base}.{node.attr}" if base else None
    return None


def memlen_calls(tree: ast.AST) -> list[tuple[str, list[str]]]:
    """Each call a script makes to a name bound to memlen, or to an
    attribute read off one: the callee's dotted path and the keywords
    passed.  Calls on other objects, such as instances, are not listed."""
    bound = memlen_bindings(tree)[1]
    return [
        (path, [kw.arg for kw in node.keywords if kw.arg is not None])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (path := bound_path(node.func, bound))
    ]


MISSING = object()


def resolve(path: str):
    """What the dotted path names: a module, or an attribute chain off the
    longest module prefix of it; MISSING if it names nothing."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return MISSING
            obj = getattr(obj, attr)
        return obj
    return MISSING


def resolves(path: str) -> bool:
    return resolve(path) is not MISSING


def unknown_keywords(calls: list[tuple[str, list[str]]]) -> list[tuple[str, str]]:
    """(callee, keyword) for each keyword passed to a memlen callable that
    has no parameter of that name.  A callee that does not resolve is left
    to the name check."""
    unknown = []
    for path, keywords in calls:
        obj = resolve(path)
        if callable(obj):
            params = inspect.signature(obj).parameters
            unknown += [(path, k) for k in keywords if k not in params]
    return unknown


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


def test_scripts_pass_keywords():
    # guards against a parse that finds no call and passes vacuously
    calls = [c for script in SCRIPTS for c in memlen_calls(ast.parse(script.read_text()))]
    assert ("memlen.decide_p", ["index"]) in calls
    assert ("memlen.forward.ReconstructionScheme", ["backward_estimator"]) in calls
    assert ("memlen.read_sample", ["fmt"]) in calls


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_keyword_is_a_parameter(script):
    tree = ast.parse(script.read_text(), filename=str(script))
    assert unknown_keywords(memlen_calls(tree)) == []


def test_a_missing_keyword_is_reported():
    tree = ast.parse(
        "import memlen\n"
        "from memlen import decide_p\n"
        "decide_p(s, p, index=i, gone=1)\n"
        "memlen.read_sample(p, fmt='bin', absent=2)\n"
        "scheme.decide(n=3, whatever=4)\n"
    )
    assert unknown_keywords(memlen_calls(tree)) == [
        ("memlen.decide_p", "gone"),
        ("memlen.read_sample", "absent"),
    ]


@pytest.mark.parametrize("k", [0, 1, 3])
def test_per_symbol_estimate_builds_no_index(monkeypatch, k):
    """perfbench/traced.py times ``estimate_cond_prob(sample, k, x)`` once
    per emitted symbol, with no index to hand it, so an index build inside
    that call is multiplied into the traced layers.  Building one there
    raised jump-wide ``condprob.fm_s`` from 70-93 ms to 378-388 ms (2-core
    VM, numpy fallback) and pushed ``trace.accounted_share`` above its
    0.8-1.25 band.  This test goes once the traced run passes its index to
    the call."""
    import memlen.counting
    from memlen import Sample, estimate_cond_prob, forward_index

    def refuse(*args, **kwargs):
        raise AssertionError("estimate_cond_prob built a CountIndex")

    sample = Sample.forward(np.arange(200) % 3)
    monkeypatch.setattr(memlen.counting.CountIndex, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a CountIndex"):
        forward_index(sample)  # the patch is in force
    assert estimate_cond_prob(sample, k, 1).support_count > 0
