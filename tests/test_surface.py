"""The public surface: each module's docstring names it on one ``Public:`` line."""

import ast
from pathlib import Path

import pytest

import passgain

PACKAGE = Path(passgain.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))

# Names called from outside the package's own code: the README's library tour
# and the spans of bench/tracing.py.
KEPT = {
    "channel": {"array_gain_exact"},
    "cli": {"SUBCOMMANDS", "main"},
    "coupling": {"gain_mc", "gain_mc_two_closed"},
    "experiments": {"write_csv"},
    "gain": {"find_xstar", "gain_limit", "gain_uniform", "max_gain_estimate",
             "optimal_antenna_number", "uniform_deltas", "upper_bound_closed"},
    "geometry": {"SystemConfig", "symmetric_uniform_layout"},
    "refine": {"build_refined_layout", "refined_half_deltas"},
}


def parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def public_line(tree):
    """The names on the docstring's ``Public:`` paragraph; "none" for none."""
    paragraphs = [p for p in ast.get_docstring(tree).split("\n\n") if p.startswith("Public:")]
    assert len(paragraphs) == 1, "expected one Public: paragraph"
    text = " ".join(paragraphs[0][len("Public:"):].split()).rstrip(".")
    return set() if text == "none" else {name.strip() for name in text.split(",")}


def defined_public(tree):
    """Top-level defs, classes and assignments whose names do not start with _."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("module", MODULES)
def test_public_line_lists_the_public_names(module):
    tree = parse(module)
    assert public_line(tree) == defined_public(tree)
    assert KEPT.get(module, set()) <= public_line(tree)


def test_package_exports_are_public():
    public = set().union(*(public_line(parse(m)) for m in MODULES))
    assert set(passgain.__all__) - {"__version__"} <= public
