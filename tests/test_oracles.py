"""The slow reference models in `oracles.py` stay in use."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_every_oracle_is_compared_against_somewhere():
    """Each public function of `oracles.py` is read by some test module, so
    no oracle outlives its last comparison."""
    tree = ast.parse((TESTS / "oracles.py").read_text())
    oracles = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert oracles
    used = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(oracles - used) == []
