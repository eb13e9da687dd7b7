"""The benchmark's own calls into toolmatch: every ``module.name`` chain that
``toolbench/workloads.py`` uses must still resolve, so removing or renaming a
name it reaches fails here rather than only in a benchmark run. The names the
tracer patches are checked by ``test_tracing_sites.py``."""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "toolbench" / "workloads.py"


def toolmatch_chains(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(modules imported from toolmatch, each longest dotted chain rooted at one of them)."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "toolmatch" for alias in node.names}
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in modules:
            chains.add(".".join([node.id, *reversed(parts)]))
    return modules, chains


def test_every_workload_chain_resolves():
    modules, chains = toolmatch_chains(ast.parse(WORKLOADS.read_text(encoding="utf-8")))
    assert modules == {"cli", "domain", "formats", "nn", "rng", "similarity", "training"}
    assert len(chains) >= 10
    missing = []
    for chain in sorted(chains):
        root, *names = chain.split(".")
        obj = importlib.import_module(f"toolmatch.{root}")
        for name in names:
            if not hasattr(obj, name):
                missing.append(chain)
                break
            obj = getattr(obj, name)
    assert not missing, f"toolbench/workloads.py uses names toolmatch no longer has: {missing}"
