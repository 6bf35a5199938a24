"""Each numerical primitive has exactly one implementation in the package.

The unitary DFT lives in ``spectral`` (``spatial_fft``, plus the
unnormalized ``multiplier_kernel``); rectangle increments of R live in
``covariance.cross_increments``; a symbol is evaluated on the grid only by
``spectral.symbol_on_grid``.  A new copy elsewhere fails here.  Every
definition is reached from somewhere: a function or class that nothing
else in the package names is either public or deleted, and so is a method
that the package never takes as an attribute.
"""

import ast
import re
from pathlib import Path

import spdelab

SOURCES = {p.name: p.read_text(encoding="utf-8")
           for p in sorted(Path(spdelab.__file__).parent.glob("*.py"))}


def test_fftn_only_in_spectral():
    hits = sorted({name for name, text in SOURCES.items()
                   if re.search(r"np\.fft\.i?fftn\b", text)})
    assert hits == ["spectral.py"]


def test_rectangle_increment_only_in_cross_increments():
    pattern = re.compile(r"\[1:,\s*1:\]\s*-\s*\w+\[1:,\s*:-1\]")
    hits = [(name, m.start()) for name, text in SOURCES.items()
            for m in pattern.finditer(text)]
    assert [name for name, _ in hits] == ["covariance.py"]
    text = SOURCES["covariance.py"]
    start = text.index("def cross_increments(")
    end = text.index("\ndef ", start + 1)
    assert start < hits[0][1] < end


def test_symbol_eval_only_in_symbol_on_grid():
    # symbols.py builds symbols from other symbols' eval; everywhere else a
    # symbol reaches the grid through symbol_on_grid (at_zero, NaN check,
    # one batched call per time column)
    pattern = re.compile(r"\.eval\(")
    hits = [(name, m.start()) for name, text in SOURCES.items()
            if name != "symbols.py" for m in pattern.finditer(text)]
    assert hits and {name for name, _ in hits} == {"spectral.py"}
    text = SOURCES["spectral.py"]
    start = text.index("def symbol_on_grid(")
    end = text.index("\ndef ", start + 1)
    assert all(start < pos < end for _, pos in hits)


# names with no caller in the package that tests/test_acceptance.py uses
ACCEPTANCE_ONLY = {"step_battery", "evolution_apply", "wiener_integral_path"}


def _definitions(tree):
    """(name, is_method) of module-level defs and classes and of non-dunder
    methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, True) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__"))


def test_every_definition_has_a_caller_or_is_public():
    # a method counts as used only where the package takes it as an
    # attribute (x.name), so a variable of the same name does not count for
    # it; a function or class also where it is named.  Prose never counts.
    trees = [ast.parse(text) for text in SOURCES.values()]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    allowed = set(spdelab.__all__) | ACCEPTANCE_ONLY
    unused = sorted(
        name for tree in trees for name, method in _definitions(tree)
        if name not in attrs
        and (method or name not in names and name not in allowed))
    assert unused == []
