"""Import-time dependencies, checked in fresh interpreters."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import nearcentral

PACKAGE_DIR = Path(nearcentral.__file__).parent


def _fresh(code: str) -> object:
    # run `code` in a new interpreter that finds the package under test first
    path = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=60,
    )
    return json.loads(done.stdout)


def test_package_imports_only_the_standard_library() -> None:
    loaded = _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import nearcentral\n"
        "print(json.dumps([nearcentral.__file__, sorted(set(sys.modules) - before)]))\n"
    )
    origin, modules = loaded
    assert Path(origin).parent == PACKAGE_DIR
    outside = {
        top
        for top in (name.split(".")[0] for name in modules)
        if top != "nearcentral" and top not in sys.stdlib_module_names
    }
    assert not outside


def test_cli_import_skips_dataclasses_and_inspect() -> None:
    # both pull in ast, dis and tokenize, a cost every cold process would pay
    loaded = _fresh(
        "import json, sys\n"
        "import nearcentral.cli\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))\n"
    )
    assert loaded == []


def test_bench_worker_reads_only_exported_names() -> None:
    # the benchmark worker resolves `nc.<name>` on the package (the tests
    # cannot import bench/), so a name it reads must stay exported
    worker = PACKAGE_DIR.parents[1] / "bench" / "worker.py"
    tree = ast.parse(worker.read_text(encoding="utf-8"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "nc"
    }
    assert {"genchar", "genchar_strahov", "star_count"} <= read
    assert sorted(name for name in read if not hasattr(nearcentral, name)) == []


def test_the_genchar_function_keeps_its_name_over_the_submodule() -> None:
    # the function `nearcentral.genchar` shares its name with the submodule;
    # the benchmark worker calls `nc.genchar(...)` and reads its cache_info
    loaded = _fresh(
        "import json, sys\n"
        "import nearcentral.genchar\n"
        "import nearcentral as nc\n"
        "import nearcentral.genchar as g\n"
        "module = sys.modules['nearcentral.genchar']\n"
        "value = nc.genchar(nc.Partition((2, 1)), 2, nc.Partition((2, 1)), 2)\n"
        "print(json.dumps([nc.genchar is module.genchar, g is module.genchar,\n"
        "                  hasattr(nc.genchar, 'cache_info'), str(value)]))\n"
    )
    assert loaded == [True, True, True, "1/2"]


def test_permutations_sit_below_genchar_and_oracle() -> None:
    # a bare package object keeps nearcentral/__init__ from importing the rest
    loaded = _fresh(
        "import json, sys, types\n"
        "pkg = types.ModuleType('nearcentral')\n"
        f"pkg.__path__ = [{str(PACKAGE_DIR)!r}]\n"
        "sys.modules['nearcentral'] = pkg\n"
        "import nearcentral.permutations\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('nearcentral.')]))\n"
    )
    assert "nearcentral.permutations" in loaded
    assert "nearcentral.genchar" not in loaded
    assert "nearcentral.oracle" not in loaded


def _unused_imports(source: str) -> list[str]:
    # names bound by import statements that nothing in the module reads;
    # a name listed in __all__ is a re-export and counts as read
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    # quoted annotations such as "GroupAlgebraElement"
    for note in filter(None, annotations):
        for node in ast.walk(note):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                read.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_modules_use_every_name_they_import() -> None:
    # __init__ only re-exports, so it is left out
    unused = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not unused


def test_marked_shapes_are_listed_in_three_places_only() -> None:
    # a sum over the marked shapes of n reads genchar's cached table
    # (`_marked_shapes`); besides the table, only the `partitions --marked`
    # listing and the oracle, a verifier kept independent, may list them
    allowed = {("genchar.py", "_marked_shapes"), ("cli.py", "_cmd_partitions")}
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = (path.name, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if not isinstance(node, ast.Call) or where in allowed:
                    continue
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                if called == "enumerate_marked_partitions":
                    found.append(f"{path.name}:{node.lineno} in {where[1]}")
    assert not found


def test_symmetric_groups_are_walked_image_by_image() -> None:
    # the oracle's marked-class index lists S_n and the character sum walks
    # S_{n-1}, each depth first, one image at a time; everything else reads
    # the index, so no module calls `permutations`
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "permutations"
    ]
    assert not found


def test_oracle_inverts_no_permutation() -> None:
    # a marked class holds the inverse of each member, so the class product
    # needs no table of inverses
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "inverse"
    ]
    assert not found


def test_oracle_products_stay_in_integers() -> None:
    # group-algebra elements hold integer numerators keyed by image tuples,
    # so a product builds no Fraction and no Permutation per term
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text(encoding="utf-8"))
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_integerized" not in defined
    found = [
        f"{name}:{node.lineno}"
        for name in (
            "ga_multiply",
            "_class_product",
            "_class_map",
            "_constants_from",
            "_pair_counts",
            "_operator_columns",
            "_class_values",
            "_class_terms",
            "_from_class_values",
        )
        for node in ast.walk(defined[name])
        if isinstance(node, (ast.Name, ast.Attribute))
        and getattr(node, "id", getattr(node, "attr", None))
        in ("Fraction", "Permutation", "unchecked")
    ]
    assert not found


def test_modules_have_no_assert_statements() -> None:
    # `python -O` strips assert statements, so a check written as one vanishes
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def test_modules_read_no_environment() -> None:
    # every limit is a constant in the module that uses it, so no module
    # imports os or reads an environment variable
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [getattr(node, "id", getattr(node, "attr", ""))]
            else:
                continue
            if any(name.split(".")[0] == "os" or name == "environ" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


# the generic types a module-level type alias subscripts
_ALIASED = {"tuple", "list", "dict", "set", "frozenset", "type", "Callable", "Mapping"}


def _binds_no_state(value: ast.expr) -> bool:
    # a constant (literals and UPPER_CASE names joined by operators), a type
    # alias, a slot's own setter or object.__new__
    if all(
        isinstance(node, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop, ast.Load))
        or (isinstance(node, ast.Name) and node.id.isupper())
        for node in ast.walk(value)
    ):
        return True
    if isinstance(value, ast.Subscript):
        return getattr(value.value, "id", None) in _ALIASED
    return isinstance(value, ast.Attribute) and (
        value.attr == "__set__"
        or (value.attr == "__new__" and getattr(value.value, "id", None) == "object")
    )


def _module_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    # the statements run at import, inside module-level if and try blocks too
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_statements(getattr(node, field, []))


def test_modules_bind_no_mutable_state() -> None:
    # state a module binds and its code mutates is shared by every caller in
    # the process, so one call or test can change the next; every cache is a
    # functools.cache on a function, and a module binds only __all__,
    # constants, type aliases, slot setters and object.__new__
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _module_statements(tree.body):
            if isinstance(node, ast.Assign):
                names = [getattr(t, "id", None) for t in node.targets]
                if names == ["__all__"] or _binds_no_state(node.value):
                    continue
            elif isinstance(node, ast.AnnAssign):
                if node.value is None or _binds_no_state(node.value):
                    continue
            elif not isinstance(node, (ast.AugAssign, ast.For, ast.AsyncFor, ast.With)):
                continue
            found.append(f"{path.name}:{node.lineno}")
        found += [
            f"{path.name}:{node.lineno} global"
            for node in ast.walk(tree)
            if isinstance(node, ast.Global)
        ]
    assert not found


def test_exported_callables_take_no_limit_override() -> None:
    # run_verify's max_n is the largest n it verifies, not a limit
    found = [
        f"{name}({param})"
        for name, value in vars(nearcentral).items()
        if callable(value) and name != "run_verify"
        and not (isinstance(value, type) and issubclass(value, Exception))
        for param in inspect.signature(value).parameters
        if param in ("max_n", "max_sequences")
    ]
    assert not found


def _object_setattr_lines(tree: ast.AST) -> set[int]:
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    }


def test_only_checked_constructors_store_through_object_setattr() -> None:
    # object.__setattr__ looks the slot up by name on every call; objects
    # built from data valid by construction store through the slots' own
    # setters, so no unchecked path falls back to the slow store
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            line
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for method in cls.body
            if isinstance(method, ast.FunctionDef) and method.name == "__init__"
            for line in _object_setattr_lines(method)
        }
        found += [f"{path.name}:{line}" for line in sorted(_object_setattr_lines(tree) - allowed)]
    assert not found


def test_one_function_checks_a_mark() -> None:
    # only partitions._check_mark raises the not-a-part error, and the
    # marked-shape table answers sums over every marked shape, not lookups
    # of one: it holds no position index
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for top in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(top, ast.FunctionDef) or (path.name, top.name) == (
                "partitions.py", "_check_mark"
            ):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and "is not a part of" in ast.unparse(node):
                    found.append(f"{path.name}:{node.lineno} in {top.name}")
    assert not found
    genchar_module = importlib.import_module("nearcentral.genchar")
    assert "index" not in genchar_module._MarkedShapes._fields


def _refuses_in_range(node: ast.If) -> bool:
    # `if <test>: raise DomainError(..)` where the test orders a name or an
    # attribute, such as `if n < 1`, `if args.n < 0` or `if not 1 <= k <= n`
    raises = any(
        isinstance(child, ast.Raise)
        and isinstance(child.exc, ast.Call)
        and getattr(child.exc.func, "id", None) == "DomainError"
        for statement in node.body
        for child in ast.walk(statement)
    )
    orders = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    return raises and any(
        isinstance(compare, ast.Compare)
        and any(isinstance(op, orders) for op in compare.ops)
        and any(
            isinstance(side, (ast.Name, ast.Attribute))
            for side in (compare.left, *compare.comparators)
        )
        for compare in ast.walk(node.test)
    )


def test_one_function_checks_an_integer_argument() -> None:
    # partitions._check_int is the only test of what an integer argument is,
    # and it and _check_order are the only range and size refusals; the
    # CLI's _shape_arg words its own, to name the flag
    allowed = {
        ("partitions.py", "_check_int"),
        ("partitions.py", "_check_order"),
        ("cli.py", "_shape_arg"),
    }
    typed, refused = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for top in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(top, ast.FunctionDef):
                continue
            where = (path.name, top.name)
            for node in ast.walk(top):
                text = ast.unparse(node)
                if isinstance(node, ast.Compare) and text.startswith("type(") and (
                    text.endswith(" is not int")
                ):
                    typed.append(where)
                if where in allowed:
                    continue
                if isinstance(node, ast.If) and _refuses_in_range(node):
                    refused.append(f"{path.name}:{node.lineno} in {top.name}")
                if isinstance(node, ast.Raise) and any(
                    words in text
                    for words in ("is not a partition of", "different integers", "sizes differ")
                ):
                    refused.append(f"{path.name}:{node.lineno} in {top.name}")
    assert typed == [("partitions.py", "_check_int")]
    assert not refused


def test_one_base_holds_the_immutability_and_pickle_policy() -> None:
    # partitions._Value refuses attribute syntax and pickles by its slots,
    # once for the five value types, which define none of these themselves
    policy = {
        "__setattr__", "__delattr__", "__reduce__", "__reduce_ex__", "__getstate__",
        "__setstate__",
    }
    found, based = [], set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            if any(getattr(base, "id", None) == "_Value" for base in cls.bases):
                based.add(cls.name)
            if (path.name, cls.name) == ("partitions.py", "_Value"):
                continue
            found += [
                f"{path.name}:{method.lineno} {cls.name}.{method.name}"
                for method in cls.body
                if isinstance(method, ast.FunctionDef) and method.name in policy
            ]
    assert not found
    assert based == {
        "Partition", "MarkedPartition", "StandardTableau", "Permutation", "GroupAlgebraElement",
    }


def test_one_function_raises_every_refusal() -> None:
    # errors.refuse_past alone builds GuardExceeded: it compares a value with
    # its limit and words the refusal in the one frame
    def builds(node: ast.AST) -> bool:
        built = node.func if isinstance(node, ast.Call) else getattr(node, "exc", None)
        return getattr(built, "id", getattr(built, "attr", None)) == "GuardExceeded"

    found, allowed = [], 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(node)
            for top in ast.walk(tree)
            if isinstance(top, ast.FunctionDef) and (path.name, top.name) == (
                "errors.py", "refuse_past"
            )
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Call, ast.Raise)) and builds(node):
                if id(node) in inside:
                    allowed += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found
    assert allowed == 1
