"""The package's public names, its result types' fields, and the layer
functions the benchmark tracer wraps."""

import ast
import builtins
import dataclasses
import importlib
from pathlib import Path

import arck0
import arck0.cli  # the package does not import its CLI; the tracer wraps cli.main

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "Arc",
    "ExchangePair",
    "StandardTilting",
    "build_standard_tilting",
    "exchange_pair",
    "mutate",
    "palu_relations",
    "GroupPresentation",
    "cokernel_presentation",
    "K0Report",
    "OracleQuotient",
    "VerificationError",
    "arc_class",
    "compute_k0_cn",
    "euler_oracle",
    "standard_basis_arcs",
    "verify_closed_form",
    "compute_k0_completed",
    "f_matrix",
    "kernel_generator_arc",
    "verify_f_oracle",
]

# the fields of each result type, so that a dropped field cannot come back
# unnoticed; each one is read by the package, the CLI or the benchmark
FIELDS = {
    "K0Report": ["source", "basis", "_classes", "frontier"],
    "OracleQuotient": ["source", "basis", "_classes"],
    "StandardTilting": ["n", "arcs", "names", "leapfrogs", "_neighbours", "_label"],
    "ExchangePair": ["m", "m_star", "b_m", "b_m_star"],
}

# (defining module, function, modules that call it by that name): the
# tracer in perfbench/tracing.py wraps each one where it is called and
# silently skips a function that is gone, so its metrics would read 0
TRACED = [
    ("cli", "main", ["cli"]),
    ("completion", "verify_f_oracle", ["completion", "cli"]),
    ("k0", "compute_k0_cn", ["k0", "cli"]),
    ("k0", "euler_oracle", ["k0", "cli", "completion"]),
    ("tilting", "build_standard_tilting", ["tilting", "k0", "cli"]),
    ("tilting", "palu_relations", ["tilting", "k0"]),
    ("tilting", "mutate", ["tilting"]),
    ("snf", "cokernel_presentation", ["snf", "k0", "completion"]),
]


def test_public_names():
    assert arck0.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(arck0, name) is not None, name


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    # a public name that only the tests read is not part of any pipeline;
    # a read is a name or attribute in the code of src/arck0 or perfbench,
    # so a definition, an import, a docstring or a comment does not count
    read = set()
    for path in [*ROOT.glob("src/arck0/*.py"), *ROOT.glob("perfbench/*.py")]:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [name for name in arck0.__all__ if name not in read] == []


def test_result_type_fields():
    for name, fields in FIELDS.items():
        assert [f.name for f in dataclasses.fields(getattr(arck0, name))] == fields, name


def test_oracle_quotient_public_attributes():
    # FIELDS sees dataclass fields only, so a property or method that only
    # the tests read could be added unnoticed
    oracle = arck0.euler_oracle(1, 2)
    public = {name for name in dir(oracle) if not name.startswith("_")}
    assert public == {"source", "presentation", "basis", "arcs", "class_of"}


def test_k0_report_public_attributes():
    report = arck0.compute_k0_cn(1, None, 2)
    public = {name for name in dir(report) if not name.startswith("_")}
    assert public == {"source", "presentation", "frontier", "basis", "arcs", "class_of"}


def test_traced_layer_functions_exist():
    for home, attr, callers in TRACED:
        fn = getattr(getattr(arck0, home), attr)
        assert callable(fn), (home, attr)
        for caller in callers:
            assert getattr(getattr(arck0, caller), attr) is fn, (caller, attr)
    assert callable(arck0.k0.OracleQuotient.class_of)
    # the tracer looks these modules up even though their counters read 0
    assert arck0.arcs.__name__ == "arck0.arcs"
    assert arck0.circle.__name__ == "arck0.circle"


def test_every_raise_is_a_class_the_cli_maps_to_an_exit_code():
    # cli.main turns ValueError into exit 2 and VerificationError into exit 1,
    # each with one error: line; any other class would end in a traceback.
    # The package raises exactly these two, one per failure kind, and
    # VerificationError is the only exception class it defines.
    others = []
    defined = []
    for path in sorted(ROOT.glob("src/arck0/*.py")):
        module = importlib.import_module(
            "arck0" if path.stem == "__init__" else f"arck0.{path.stem}"
        )
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                cls = vars(module).get(node.name)
                if isinstance(cls, type) and issubclass(cls, BaseException):
                    defined.append(f"{path.name}:{node.name}")
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            # a bare raise or a raised attribute has no name, and fails
            name = getattr(exc, "id", None)
            cls = vars(module).get(name) or vars(builtins).get(name)
            if cls not in (ValueError, arck0.VerificationError):
                others.append(f"{path.name}:{node.lineno} raises {name}")
    assert others == []
    assert defined == ["snf.py:VerificationError"]


def test_every_cap_goes_through_check_cap():
    # one bounded-work rule: a _MAX_* cap is read only where it is passed to
    # circle.check_cap, so each cap is checked in the module that owns it
    # (k0's oracle cap inside its one helper), and only check_cap formats a
    # "more than" message
    stray = []
    for path in sorted(ROOT.glob("src/arck0/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        passed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_cap":
                passed.update(map(id, [*node.args, *(k.value for k in node.keywords)]))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id.startswith("_MAX_"):
                if isinstance(node.ctx, ast.Load) and id(node) not in passed:
                    stray.append(f"{path.name}:{node.lineno} reads {node.id}")
            elif isinstance(node, ast.ImportFrom):
                stray += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_MAX_")
                ]
            elif isinstance(node, ast.Raise) and path.name != "circle.py":
                if any(
                    isinstance(part, ast.Constant) and "more than" in str(part.value)
                    for part in ast.walk(node)
                ):
                    stray.append(f"{path.name}:{node.lineno} raises a cap message")
    assert stray == []


def test_every_marked_point_goes_through_as_point():
    # one point rule: only circle.py formats a "marked point" message, so
    # Arc and check_point both name a bad point in its words
    stray = []
    for path in sorted(ROOT.glob("src/arck0/*.py")):
        if path.name == "circle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and any(
                isinstance(part, ast.Constant) and "marked point" in str(part.value)
                for part in ast.walk(node)
            ):
                stray.append(f"{path.name}:{node.lineno} raises a marked point message")
    assert stray == []


def test_no_float_code():
    # README: "There are no floats and no tolerances".  The package computes
    # in exact integers, so no module holds a float constant, a float(...)
    # call or a true division
    stray = []
    for path in sorted(ROOT.glob("src/arck0/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                stray.append(f"{path.name}:{node.lineno} holds {node.value!r}")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
                stray.append(f"{path.name}:{node.lineno} calls float")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                stray.append(f"{path.name}:{node.lineno} divides with /")
    assert stray == []


def test_package_opens_no_file():
    # stdout is the one output of the CLI, and the library reads and writes
    # no file, so no module calls the builtin open
    stray = []
    for path in sorted(ROOT.glob("src/arck0/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                stray.append(f"{path.name}:{node.lineno} calls open")
    assert stray == []
