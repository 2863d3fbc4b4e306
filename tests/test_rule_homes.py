"""Each rule that has one home in ``src/`` keeps it: random streams are
built only by ``oracle.sample``, and a composite is flattened only by
``core._piecewise``, which every evaluation path calls."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "recalib")

# Callable name -> the one function, as module.qualname, that may call it.
HOMES = {
    "SeedSequence": "oracle.sample",
    "PCG64": "oracle.sample",
    "Generator": "oracle.sample",
    "flatten": "core._piecewise",
}


def calls_by_site() -> dict[str, list[str]]:
    """Each call in ``src/`` to a name in HOMES, as "module.qualname: name"
    for the function that makes it (module level reads as the module)."""
    found = {}

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in HOMES:
                found.setdefault(name, []).append(".".join((module, *scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as f:
            visit(ast.parse(f.read(), path), os.path.basename(path)[:-3], ())
    return found


def test_streams_are_built_and_composites_flattened_in_one_place():
    found = calls_by_site()
    stray = {name: [site for site in sites if site != HOMES[name]]
             for name, sites in found.items()}
    assert not any(stray.values()), stray
    # The homes themselves still make the calls, so the guard cannot pass
    # because a name was renamed away.
    assert set(found) == set(HOMES), sorted(found)
