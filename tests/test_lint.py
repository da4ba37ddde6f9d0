"""Source-level checks on the library itself."""

import ast
from pathlib import Path

import bezreach

SRC = Path(__file__).resolve().parents[1] / "src" / "bezreach"


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so no check on the soundness
    # path may be one; raise a typed error instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py")), f"no library sources under {SRC}"
    assert not found, f"assert statements in the library: {found}"


def test_library_does_not_import_scipy():
    # NumPy is the only runtime dependency; SciPy serves the tests only.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imports in the library: {found}"


def test_single_rk4_implementation():
    # One fixed-step integrator, models.rk4; an RK4 stage `k4 = ...`
    # anywhere else in the library is a duplicate loop.
    found, helper = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "rk4" \
                    and path.name == "models.py":
                inside = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "k4" \
                    and isinstance(node.ctx, ast.Store):
                (helper if id(node) in inside else found).append(
                    f"{path.name}:{node.lineno}")
    assert helper, "models.rk4 no longer computes an RK4 stage k4"
    assert not found, f"RK4 stages outside models.rk4: {found}"


def test_rollout_has_one_loop():
    # The RK4 iteration with its divergence check is the rollout's only
    # Python loop; feedforward, disturbances and inputs are array code.
    tree = ast.parse((SRC / "sim.py").read_text())
    (fn,) = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "rollout"]
    nodes = list(ast.walk(fn))
    loops = [node.lineno for node in nodes if isinstance(node, (ast.For, ast.While))]
    comps = [node.lineno for node in nodes if isinstance(
        node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))]
    assert len(loops) == 1, f"sim.rollout loops at lines {loops}"
    assert not comps, f"sim.rollout comprehensions at lines {comps}"


def test_exports_match_all():
    # Every public name resolves, and the package imports exactly the
    # names it exports, so deleting an API cannot leave a dangling export.
    missing = [name for name in bezreach.__all__ if not hasattr(bezreach, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert set(imported) == set(bezreach.__all__)


def _cache_sites(tree):
    """(node, name, call) for every reference to functools.lru_cache or
    functools.cache, by import alias or attribute; call is the Call the
    reference is the function of, if any."""
    aliases = {"functools": "functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names
                            if a.name == "functools"})
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = aliases.get(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and aliases.get(node.value.id) == "functools":
            name = node.attr
        else:
            continue
        if name in ("lru_cache", "cache"):
            yield node, name, calls.get(id(node))


def test_every_cache_is_bounded():
    # Caches have a size limit: every functools.lru_cache in the library
    # is called with an integer-literal maxsize, and functools.cache
    # (unbounded) is not used at all.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node, name, call in _cache_sites(ast.parse(path.read_text(), filename=str(path))):
            size = None
            if call is not None:
                size = next((kw.value for kw in call.keywords if kw.arg == "maxsize"),
                            call.args[0] if call.args else None)
            if not (name == "lru_cache" and isinstance(size, ast.Constant)
                    and type(size.value) is int):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"caches without an integer maxsize: {found}"


def _is_zero(node):
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) \
        and node.value == 0


def test_range_checks_refuse_nan():
    # NaN compares False, so `if x <= 0: raise` lets a NaN x through;
    # a range check is written `if not x > 0: raise` instead.  Flags every
    # `< 0`, `<= 0` (or `0 >`, `0 >=`) outside a `not` in the test of an
    # `if` whose body raises.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.If) and any(
                    isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))):
                continue
            negated = {id(n) for op in ast.walk(node.test)
                       if isinstance(op, ast.UnaryOp) and isinstance(op.op, ast.Not)
                       for n in ast.walk(op.operand)}
            for cmp in ast.walk(node.test):
                if not isinstance(cmp, ast.Compare) or id(cmp) in negated:
                    continue
                terms = [cmp.left, *cmp.comparators]
                if any(isinstance(op, (ast.Lt, ast.LtE)) and _is_zero(right)
                       or isinstance(op, (ast.Gt, ast.GtE)) and _is_zero(left)
                       for left, op, right in zip(terms, cmp.ops, terms[1:])):
                    found.append(f"{path.name}:{cmp.lineno}")
    assert not found, f"range checks that let NaN through: {found}"


def test_cli_reads_integers_without_truncating():
    # `int(_number(...))` rounds a large integer through a float and
    # truncates 3.9 to 3; `int(_get(...))` turns true into 1 and raises a
    # bare TypeError on null.  Integer keys go through `cli._integer`.
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "int" and node.args and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Name)
        and node.args[0].func.id in ("_number", "_get")
    ]
    assert not found, f"integers read through int(...) of a config reader: {found}"
