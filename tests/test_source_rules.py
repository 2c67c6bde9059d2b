"""Rules on the library source itself that no behavioural test sees."""

import ast
import importlib
import json
import pathlib
import subprocess
import sys

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "tropstiefel"


def _reads(node):
    """Every name a statement reads, imports or calls by attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _binds(stmt):
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def test_no_assert_in_library_code():
    """``python -O`` strips ``assert``, so library code raises instead;
    ``raise AssertionError`` sanity checks stay allowed."""
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in library code: {found}"


def test_every_object_is_built_by_its_constructor():
    """No ``.__new__(`` call in ``src/``: an object built past its
    constructor is a second way in that the constructor's callers and
    tests never see."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"
    ]
    assert not found, f"objects built past their constructor: {found}"


def test_no_recursive_closure_in_library_code():
    """No function nested in another reads its own name: a recursive
    closure is a reference cycle, which keeps what it reads alive after the
    call until the cycle collector runs.  Recurse in a module-level
    function that takes what it reads as arguments."""
    found = [
        f"{path.name}:{inner.lineno} {inner.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(sub, ast.Name) and sub.id == inner.name for sub in ast.walk(inner))
    ]
    assert not found, f"recursive closures in library code: {found}"


# The only modules outside the package that ``src/`` may import.  Every op
# of the ``geometry`` benchmark, and every ``setup_s`` sample, is a cold
# ``import tropstiefel.cli``; with PYTHONDONTWRITEBYTECODE=1 set, that
# process compiles from source each module of the package its command
# loads, and runs each import those modules make at module level.  An
# import in ``core`` or ``cli`` is paid by every command, and one in
# another module by every command that loads it.  ``dataclasses`` alone,
# which pulls in ``inspect``, moved ``import tropstiefel.cli`` from 114 to
# 126–129 ms when every module was loaded at start-up (medians of 15 cold
# runs on a shared 2-core VM): a tenth more start-up for every command.
ALLOWED_IMPORTS = {"__future__", "fractions", "functools", "itertools", "json", "math", "random", "sys"}


def test_library_imports_only_the_allowed_modules():
    """Every absolute import in ``src/``, at any depth, names a module of
    ``ALLOWED_IMPORTS``; relative imports are the package itself."""
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add((path.name, node.module.split(".")[0]))
    assert found
    assert {module for _, module in found} <= ALLOWED_IMPORTS, sorted(f for f in found if f[1] not in ALLOWED_IMPORTS)


def test_no_private_name_unused_in_library_code():
    """A module-level private function, class or assignment (``_name``) that
    no code in ``src/`` reads outside its own definition is test code, and
    belongs in ``tests/``."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sorted(SOURCE.glob("*.py"))]
    assert trees
    statements = [stmt for tree in trees for stmt in tree.body]
    used = [set(_reads(stmt)) for stmt in statements]
    unused = [
        name
        for k, stmt in enumerate(statements)
        for name in _binds(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in seen for j, seen in enumerate(used) if j != k)
    ]
    assert not unused, f"private names no library code uses: {unused}"


def test_bound_encoding_read_only_in_geom():
    """``DifferenceBounds`` stores a bound as K·c, less 1 when strict; only
    ``geom`` reads that encoding (``bound``, ``scale``, ``unit``).  Other
    modules impose bounds with ``add``, test them with ``admits`` and read
    answers through the matrix's own methods."""
    files = [path for path in sorted(SOURCE.glob("*.py")) if path.name != "geom.py"]
    assert files
    found = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("bound", "scale", "unit")
    ]
    assert not found, f"the bound encoding read outside geom: {found}"


def test_lcm_only_in_core():
    """Scaling by a common denominator has one home: every ``lcm`` the
    library calls or imports is in ``core.py`` (``integer_form`` and
    ``common_denom``)."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if "lcm" in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None))
    ]
    assert not found, f"lcm outside core: {found}"


def test_subsets_listed_only_in_core():
    """The d-subsets of [n] have one home, ``core.subsets``: no other
    module calls ``combinations`` on a ``range(...)``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call) and "combinations" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        and node.args and isinstance(node.args[0], ast.Call) and getattr(node.args[0].func, "id", None) == "range"
    ]
    assert not found, f"d-subsets listed outside core: {found}"


def test_inf_read_only_in_core():
    """∞ is ``None`` in every form.  ``core`` binds ``INF = None`` for the
    places that parse and print a scalar; every other module writes and
    tests ``None``, and neither reads, imports nor binds the name ``INF``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if "INF" in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None))
    ]
    assert not found, f"INF read outside core: {found}"


BENCH_WORKLOADS = SOURCE.parents[1] / "bench" / "workloads.py"


def _methods(stmt):
    """The methods of a module-level class statement, dunder methods aside:
    those run with the class itself."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [m for m in stmt.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (m.name.startswith("__") and m.name.endswith("__"))]


def test_every_library_name_is_reached():
    """The library is what the CLI and the benchmark reach.  From every
    statement of ``cli.py`` and the names ``bench/workloads.py`` imports
    from the package, follow the names each reached module-level definition
    reads, and the methods it calls: a method other than a dunder is
    reached when a reached statement reads its name as an attribute, and a
    class statement reads its methods only once they are reached.  A
    module-level name or method of ``src/`` left unreached is a test
    reference, and belongs in ``tests/reference.py``."""
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sorted(SOURCE.glob("*.py"))}
    bench = ast.parse(BENCH_WORKLOADS.read_text(encoding="utf-8"), filename=str(BENCH_WORKLOADS))
    assert "cli.py" in modules
    definitions, methods = {}, {}
    for module, tree in modules.items():
        for stmt in tree.body:
            own = _methods(stmt)
            parts = [stmt] if not own else [*stmt.decorator_list, *stmt.bases, *stmt.keywords, *(s for s in stmt.body if s not in own)]
            for name in _binds(stmt):
                definitions.setdefault(name, []).append((f"{module[:-3]}.{name}", parts))
            for m in own:
                methods.setdefault(m.name, []).append((f"{module[:-3]}.{stmt.name}.{m.name}", [m]))
    names = {
        alias.name
        for node in ast.walk(bench)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tropstiefel"
        for alias in node.names
    }
    attributes, stack = set(), list(modules["cli.py"].body)
    stack += [part for name in names for _, parts in definitions.get(name, ()) for part in parts]
    while stack:
        node = stack.pop()
        for name in set(_reads(node)) - names:
            names.add(name)
            stack += [part for _, parts in definitions.get(name, ()) for part in parts]
        for attr in {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)} - attributes:
            attributes.add(attr)
            stack += [part for _, parts in methods.get(attr, ()) for part in parts]
    unreached = sorted(
        [label for name, places in definitions.items() for label, _ in places if name not in names and not label.startswith("cli.")]
        + [label for attr, places in methods.items() for label, _ in places if attr not in attributes]
    )
    assert not unreached, f"library names neither the CLI nor the benchmark reaches: {unreached}"


def test_benchmark_imports_resolve():
    """Every ``from tropstiefel… import name`` in ``bench/workloads.py`` and
    ``bench/run.py``, at any depth, imports and gives an attribute or a
    submodule of that module: a refactor of ``src/`` that moves such a name
    fails every benchmark run.  The traced ``TARGETS`` strings are not
    imports; the tracer skips a missing one by design."""
    imports = [
        (path.name, node.module, alias.name)
        for path in (BENCH_WORKLOADS, BENCH_WORKLOADS.with_name("run.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "tropstiefel"
        for alias in node.names
    ]
    assert imports
    missing = []
    for where, module, name in imports:
        try:
            if not hasattr(importlib.import_module(module), name):
                importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{where}: from {module} import {name}")
    assert not missing, f"benchmark imports that no longer resolve: {missing}"


def test_benchmark_smoke_runs_pass():
    """``bench/run.py --smoke`` passes its own checks on every workload that
    ``BENCHMARK.json`` lists: a change to what the library returns to the
    benchmark, and not only to the names it imports, fails here."""
    root = SOURCE.parents[1]
    for workload in json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]:
        argv = [sys.executable, "bench/run.py", "--workload", workload["name"], "--seed", "1", "--seconds", "1", "--smoke"]
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (workload["name"], proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, (workload["name"], proc.stdout)


def test_every_error_code_is_named_by_a_test():
    """Each code a library ``DomainError`` raises by name appears as a
    string constant in ``tests/test_cli.py``, so every refusal of input has
    a command that is asked for it by its code; a refusal no command can
    reach fails here."""
    raised = {
        node.args[0].value
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "DomainError"
        and node.args and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
    }
    cli_tests = pathlib.Path(__file__).resolve().parent / "test_cli.py"
    named = {
        node.value
        for node in ast.walk(ast.parse(cli_tests.read_text(encoding="utf-8"), filename=str(cli_tests)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert raised
    assert not raised - named, f"error codes no CLI test names: {sorted(raised - named)}"


# The true divisions the library holds, as (file, enclosing function,
# expression): each has a Fraction on its left.  Whole scalars are ints, and
# ``/`` between two ints gives a float, so a new quotient goes through
# ``core.quotient`` instead.
TRUE_DIVISIONS = {
    ("simplex.py", "_pivot", "ONE / tab[r][c]"),
    ("simplex.py", "_run_simplex", "tab[i][rhs] / a"),
}


def _true_divisions(node, where):
    """(enclosing function, source) of every ``/`` and ``/=`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
            yield where, ast.unparse(child)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _true_divisions(child, inner)


def test_true_division_only_at_the_allowed_sites():
    found = {
        (path.name, where, text)
        for path in sorted(SOURCE.glob("*.py"))
        for where, text in _true_divisions(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "<module>")
    }
    assert found
    assert not found - TRUE_DIVISIONS, f"true division outside the allowed sites: {sorted(found - TRUE_DIVISIONS)}"
    assert not TRUE_DIVISIONS - found, f"allowed sites that no longer divide: {sorted(TRUE_DIVISIONS - found)}"


def test_budget_errors_name_a_size():
    """Every ``DomainError("BUDGET_EXCEEDED", …)`` in ``src/`` has an
    f-string message that interpolates at least one value, so a budget
    error names the budget and the size that was requested."""
    calls = [
        (f"{path.name}:{node.lineno}", node)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "DomainError"
        and node.args and isinstance(node.args[0], ast.Constant) and node.args[0].value == "BUDGET_EXCEEDED"
    ]
    assert calls
    plain = [
        where for where, node in calls
        if len(node.args) < 2 or not isinstance(node.args[1], ast.JoinedStr)
        or not any(isinstance(part, ast.FormattedValue) for part in node.args[1].values)
    ]
    assert not plain, f"budget errors whose message names no value: {plain}"
