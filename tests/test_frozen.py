"""Each frozen constant lives only in ``frozen.py``, which
``python tests/oracles.py > tests/frozen.py`` writes, and every one is read."""

import ast
import glob
import os

TESTS = os.path.dirname(os.path.abspath(__file__))


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def test_frozen_names_are_assigned_once_and_all_read():
    frozen = {target.id for node in parse(os.path.join(TESTS, "frozen.py")).body
              if isinstance(node, ast.Assign) for target in node.targets}
    assigned, read = {}, set()
    for path in sorted(glob.glob(os.path.join(TESTS, "test_*.py"))):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store) and node.id in frozen:
                    assigned.setdefault(node.id, []).append(os.path.basename(path))
                elif isinstance(node.ctx, ast.Load):
                    read.add(node.id)
    assert frozen, "frozen.py assigns no name"
    assert not assigned, f"test modules assign frozen names instead of importing them: {assigned}"
    assert frozen <= read, f"frozen.py defines names no test reads: {sorted(frozen - read)}"
