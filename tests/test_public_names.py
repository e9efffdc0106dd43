"""src/ holds what the CLI and the public API reach: every public
top-level name of a module of ``latval`` is named by some module of
``src/latval`` other than by its own definition, or exported by
``latval.__all__``.  What only the tests use lives in the tests."""

import ast
from pathlib import Path

import latval

SRC = Path(latval.__file__).parent

# names that src/ does not use and that stay for now, with the reason
ALLOWED = {
    "io.spec_to_obj": "bench writes the evaluate workload's specs with it",
    "laws.d4_decompose": "bench's algebra workload times it",
    "laws.d4_compose": "bench's algebra workload builds its D4 inputs",
    "series.compose_univariate": "bench's algebra workload builds f1",
    "valuation.z_mT_closed": "a closed form that becomes a test oracle "
                             "once Z(mT) comes from cones",
}


def _defined(tree) -> list:
    """The public names bound at the top level of a module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def _named(tree) -> set:
    """Every name a module reads, as a name, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def unused_names() -> list:
    """["module.name", ...]: the public top-level names of src/latval that
    no module of it reads and latval.__all__ does not export."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    named = set().union(*map(_named, trees.values()))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in _defined(tree)
            if name not in named and name not in latval.__all__]


def test_every_public_name_of_src_is_used_in_src():
    unused = [n for n in unused_names()
              if not n.split(".")[1].startswith("cmd_") and n not in ALLOWED]
    assert unused == []


def test_the_allowed_names_are_still_unused_in_src():
    # a name that src/ comes to use leaves the allow-list
    assert set(ALLOWED) <= set(unused_names())
