"""Each numerical primitive has exactly one implementation in the package.

The unitary DFT lives in ``spectral`` (``spatial_fft``, its real-to-complex
pair ``spatial_rfft``/``spatial_irfft``, and the unnormalized
``multiplier_kernel``); rectangle increments of R live in
``covariance.cross_increments``; a symbol and its time primitive are
evaluated on the grid only by ``spectral._on_grid``, and finite-difference
partials only by ``symbols._scan``.  A new copy elsewhere
fails here.  Every definition is reached from somewhere: a function or
class that nothing else in the package names is deleted, unless it is one
of the few that only the tests call (``TEST_ONLY``; ``__all__`` exempts
nothing), and so is a method that the package never takes as an
attribute.  Every
module-level constant is read somewhere in the package.  Every option is
set: a parameter with a default that no call passes is a constant in
disguise.
Every value a run takes from outside, its config, flags and environment,
is checked by the ``Key`` rules of ``cli``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import spdelab
from spdelab import symbols

SOURCES = {p.name: p.read_text(encoding="utf-8")
           for p in sorted(Path(spdelab.__file__).parent.glob("*.py"))}
TESTS = {p.name: p.read_text(encoding="utf-8")
         for p in sorted(Path(__file__).parent.glob("*.py"))}


def test_fftn_only_in_spectral():
    # every numpy.fft call: fftn, rfftn, irfft and the rest
    hits = sorted({name for name, text in SOURCES.items()
                   if re.search(r"\bnp\.fft\.|\bnumpy\.fft\b", text)})
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
    # symbol reaches the grid through symbol_on_grid, and its time
    # primitive through the cumulative table, each only as the function
    # that spectral._on_grid evaluates (at_zero, NaN check, one batched
    # call per time column)
    pattern = re.compile(r"\.(eval|primitive)\b")
    hits = [(name, m) for name, text in SOURCES.items()
            if name != "symbols.py" for m in pattern.finditer(text)]
    assert {name for name, _ in hits} == {"spectral.py"}
    text = SOURCES["spectral.py"]

    def owner(pos):
        start = text.rindex("\ndef ", 0, pos) + len("\ndef ")
        return text[start:text.index("(", start)]
    assert sorted((m.group(1), owner(m.start())) for _, m in hits) == [
        ("eval", "symbol_on_grid"), ("primitive", "symbol_cumulative_integrals")]
    passed = re.findall(r"\b_on_grid\(\w+\.(eval|primitive)\b", text)
    assert len(passed) == len(hits)


def test_fd_partial_only_in_the_scan_evaluator():
    # the multiplier checkers build point sets and reduce what
    # symbols._scan returns; a loop of its own fd_partial calls, as the
    # rectangle scan had over its frozen values and sign patterns, fails
    # here, and so does a call through another name
    trees = {name: ast.parse(text) for name, text in SOURCES.items()}
    users = sorted((name, top.name) for name, tree in trees.items()
                   for top in tree.body if isinstance(top, ast.FunctionDef)
                   for node in ast.walk(top)
                   if isinstance(node, ast.Name) and node.id == "fd_partial")
    assert users == [("symbols.py", "_scan")]
    assert [node for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.alias) and node.name == "fd_partial"] == []


# definitions with no caller in the package that the tests use: the exact
# inner product and path integral the draws are checked against, the
# modewise residual diagnostic, and the acceptance step battery
TEST_ONLY = {"inner_H_U0", "mode_residual", "step_battery",
             "wiener_integral_path"}


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


def test_every_definition_has_a_caller():
    # a method counts as used only where the package takes it as an
    # attribute (x.name), so a variable of the same name does not count for
    # it; a function or class also where it is named.  Prose never counts,
    # and neither does a listing in __all__.
    trees = [ast.parse(text) for text in SOURCES.values()]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    unused = sorted(
        name for tree in trees for name, method in _definitions(tree)
        if name not in attrs
        and (method or name not in names and name not in TEST_ONLY))
    assert unused == []


def test_every_constant_is_read():
    # a module-level UPPER_CASE name that nothing in the package reads, as
    # rng's role tag of a deleted sampler was, is dead
    trees = [ast.parse(text) for text in SOURCES.values()]
    defined = {target.id for tree in trees for node in tree.body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign)
                              else [node.target])
               if isinstance(target, ast.Name)
               and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)}
    nodes = [node for tree in trees for node in ast.walk(tree)]
    read = {node.id for node in nodes if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)} \
        | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert sorted(defined - read) == []


# options that calls reach only through a variable: builtin_symbol(**params)
# calls the builtin symbol constructors, and cli's forcing `maker` one of
# battery's two forcings (lp_forcing is also called by name)
INDIRECT = {ctor.__name__ for ctor in symbols._BUILTIN_SYMBOLS.values()} \
    | {"lp_forcing_mixed"}
# options of functions in spdelab.__all__ that only a library caller sets:
# a report's name
PUBLIC_OPTIONS = {"apriori_estimate_check(name)", "g_operator_check(name)",
                  "lp_inequality_check(name)"}


def _options(tree):
    """(callee, positional params, params with a default) of every def and
    dataclass.  A method's callee is its name and its positional params
    skip self; an __init__'s callee is its class, as is a dataclass's."""
    owner = {id(item): node for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            yield (node.name, [f.target.id for f in fields],
                   [f.target.id for f in fields if f.value is not None])
        if isinstance(node, ast.FunctionDef):
            a = node.args
            pos = [x.arg for x in a.posonlyargs + a.args]
            opt = pos[len(pos) - len(a.defaults):] + [
                k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            cls = owner.get(id(node))
            if cls is None:
                yield node.name, pos, opt
            else:
                static = "staticmethod" in map(ast.unparse, node.decorator_list)
                yield (cls.name if node.name == "__init__" else node.name,
                       pos if static else pos[1:], opt)


def _calls(tree):
    """(callee, positional count, keywords) of every call; a *args passes
    every positional param, a **kwargs (keywords None) every keyword, and
    cls(...) in a class calls that class."""
    in_class = {id(call): node.name for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) for call in ast.walk(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) \
                or getattr(node.func, "attr", None)
            if name == "cls":
                name = in_class.get(id(node), name)
            n_pos = (float("inf") if any(isinstance(x, ast.Starred)
                                         for x in node.args)
                     else len(node.args))
            kws = {k.arg for k in node.keywords}
            yield name, n_pos, (None if None in kws else kws)


def test_every_option_is_set_by_some_call():
    # a default that no call in the package or its tests overrides is a
    # constant: it doubles the configurations a reader has to rule out
    trees = [ast.parse(text) for text in SOURCES.values()]
    calls = {}
    for tree in trees + [ast.parse(text) for text in TESTS.values()]:
        for name, n_pos, kws in _calls(tree):
            calls.setdefault(name, []).append((n_pos, kws))
    assert {o.split("(")[0] for o in PUBLIC_OPTIONS} <= set(spdelab.__all__)
    unset = {f"{name}({param})" for tree in trees
             for name, pos, opt in _options(tree)
             if name not in INDIRECT for param in opt
             if not any(kws is None or param in kws
                        or param in pos and pos.index(param) < n_pos
                        for n_pos, kws in calls.get(name, ()))}
    assert sorted(unset - PUBLIC_OPTIONS) == []


# the SchemaErrors that cli raises outside the Key rules of _check and
# _fill: the rules across keys that README.md lists, and a library error
# met while building objects from the config
CROSS_KEY_RULES = {
    "load_config": 1,              # the 4 GiB cap on one array
    "_symbol": 1,                  # a symbol has the grid's d
    "_window": 1,                  # the forcing window needs a < b
    "_forcing_arrays": 1,          # g noise needs a non-empty lambdas
    "_run_verify_goperator": 1,    # a time-independent psi
    "_schema_errors": 1,           # a library error, reported as SchemaError
}


def test_config_values_checked_only_by_the_key_rules():
    # an inline check beside the tables, as there were for the top-level
    # keys and SPDELAB_THREADS, fails here
    tree = ast.parse(SOURCES["cli.py"])
    owner = {id(node): getattr(top, "name", "<module>")
             for top in tree.body for node in ast.walk(top)}
    nodes = list(ast.walk(tree))
    raises = Counter(owner[id(node)] for node in nodes
                     if isinstance(node, ast.Raise)
                     and isinstance(node.exc, ast.Call)
                     and getattr(node.exc.func, "id", None) == "SchemaError")
    assert raises == Counter({"_check": 1, "_fill": 1, **CROSS_KEY_RULES})
    environ = {owner[id(node)] for node in nodes
               if isinstance(node, ast.Attribute)
               and node.attr in ("environ", "getenv")}
    assert environ == {"load_config"}


def test_every_allowance_names_something():
    # a stale entry in the lists above exempts nothing and misleads: each
    # names a definition, an option or a function of cli that exists
    trees = {name: ast.parse(text) for name, text in SOURCES.items()}
    defined = {name for tree in trees.values() for name, _ in _definitions(tree)}
    options = {f"{name}({param})" for tree in trees.values()
               for name, _, opt in _options(tree) for param in opt}
    assert sorted((TEST_ONLY | INDIRECT) - defined) == []
    assert sorted(PUBLIC_OPTIONS - options) == []
    assert sorted(set(CROSS_KEY_RULES)
                  - {name for name, _ in _definitions(trees["cli.py"])}) == []
    # a test-only name that the package has come to use is no longer
    # test-only
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    used = {node.id for node in nodes if isinstance(node, ast.Name)} \
        | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert sorted(TEST_ONLY & used) == []
