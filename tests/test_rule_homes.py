"""Each rule that has one home in ``src/`` keeps it: random streams are
built only by ``oracle.sample``, a composite is flattened only by
``core._piecewise``, which every evaluation path calls, and right-closed
counts are read off sorted data only by ``core._tally``, the one
right-sided binary search, whose readers are the fit's bins and the
plug-in risk's bins and slices. No ``argsort`` or ``reduceat`` is called
anywhere: a stable order of the records would make a tied sample's
result depend on the order in which its records come."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "recalib")

# A right-sided ``searchsorted``, keyed apart from the left-sided lookups
# that place single scores in bins.
RIGHT = 'searchsorted(side="right")'

# Calls that no function in src/ may make.
BANNED = ("argsort", "reduceat")

# Call, by callable name or RIGHT -> the one function, as module.qualname,
# that may make it.
HOMES = {
    "SeedSequence": "oracle.sample",
    "PCG64": "oracle.sample",
    "Generator": "oracle.sample",
    "flatten": "core._piecewise",
    RIGHT: "core._tally",
}


def call_key(call: ast.Call):
    """The callable's name, or RIGHT for a searchsorted whose side, by
    keyword or by position, is the constant "right"."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "searchsorted":
        sides = [kw.value for kw in call.keywords if kw.arg == "side"] + call.args
        if any(isinstance(v, ast.Constant) and v.value == "right" for v in sides):
            return RIGHT
    return name


def calls_by_site() -> dict[str, list[str]]:
    """Each call in ``src/`` keyed in HOMES or BANNED, as "module.qualname"
    for the function that makes it (module level reads as the module)."""
    found = {}

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and ((key := call_key(node)) in HOMES or key in BANNED):
            found.setdefault(key, []).append(".".join((module, *scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as f:
            visit(ast.parse(f.read(), path), os.path.basename(path)[:-3], ())
    return found


def test_streams_are_built_and_composites_flattened_in_one_place():
    found = {name: sites for name, sites in calls_by_site().items() if name in HOMES}
    stray = {name: [site for site in sites if site != HOMES[name]]
             for name, sites in found.items()}
    assert not any(stray.values()), stray
    # The homes themselves still make the calls, so the guard cannot pass
    # because a name was renamed away.
    assert set(found) == set(HOMES), sorted(found)


def test_right_closed_counts_have_one_search():
    # One right-sided search in all of src/, made by core._tally; the
    # left-sided lookups of BinningScheme._cells and _bin_indices stay.
    found = calls_by_site()
    assert found.get(RIGHT) == ["core._tally"], found.get(RIGHT)


def test_no_record_order_path():
    # Sorted data is read only through sorted values and right-closed
    # runs, never through a permutation of the records.
    banned = {name: sites for name, sites in calls_by_site().items() if name in BANNED}
    assert not banned, banned
