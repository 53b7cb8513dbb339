"""The package's export list, its runtime imports, and the names the
benchmark traces."""

import ast
import contextlib
import importlib
import io
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import specforms
import specforms.cli
from specforms.experiments import DEFAULT_TOLERANCES
from specforms.util import QUAD_TOL


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from specforms import *", namespace)
    namespace.pop("__builtins__")
    assert len(set(specforms.__all__)) == len(specforms.__all__)
    assert set(namespace) == set(specforms.__all__)
    for name in specforms.__all__:
        assert getattr(specforms, name) is namespace[name]


def _modules_after(code):
    """The sorted module names a fresh interpreter holds after running code."""
    src = str(Path(specforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(sorted(sys.modules))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    modules = _modules_after("import specforms.cli")
    assert "specforms.simplex" in modules
    assert not [name for name in modules if name.split(".")[0] == "scipy"]


def test_slope_drivers_leave_numpy_ma_out():
    # The first np.unique call of a process imports numpy.ma, some 12 ms;
    # the drivers that fit a slope make no such call.
    code = (
        "import contextlib, io\n"
        "from specforms.cli import main\n"
        "for mode in ('taylor-scan', 'holder-scan', 'moi-convergence'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([mode, '--dim', '2']) == 0, mode\n"
    )
    assert "numpy.ma" not in _modules_after(code)


BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = BENCH / "workloads.py"


def _expected_spans():
    """(workload class, span name) for every name listed in an
    `expected_spans` tuple of bench/workloads.py, read without importing it."""
    tree = ast.parse(WORKLOADS.read_text())
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "expected_spans" for t in stmt.targets
            ):
                for name in ast.literal_eval(stmt.value):
                    yield cls.name, name


def _defined_in(obj, module):
    target = getattr(obj, "__wrapped__", obj)
    return getattr(target, "__module__", None) == module.__name__


def test_benchmark_spans_name_public_callables():
    # The benchmark's traced run wraps public functions of the layer modules
    # (and a few class methods) and fails when an expected span is never
    # called; a renamed or privatised function must fail here first.
    spans = list(_expected_spans())
    assert len(spans) > 20
    for workload, name in spans:
        layer, *path = name.split(".")
        module = importlib.import_module(f"specforms.{layer}")
        obj = module
        for part in path:
            assert not part.startswith("_") or part == "__call__", (workload, name)
            obj = getattr(obj, part, None)
            assert obj is not None, (workload, name)
        assert callable(obj), (workload, name)
        owner = getattr(module, path[0])
        assert _defined_in(owner, module), (workload, name)
        if len(path) == 1:
            assert inspect.isfunction(getattr(obj, "__wrapped__", obj)), (workload, name)
        else:
            assert inspect.isclass(owner) and path[1] in vars(owner), (workload, name)


def _class_methods():
    """The (layer, class, method) triples of bench/tracer.py's
    CLASS_METHODS, read without importing it."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    (value,) = (
        stmt.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CLASS_METHODS" for t in stmt.targets)
    )
    return ast.literal_eval(value)


def _api_reads():
    """Each attribute path that bench/workloads.py reads from the package,
    which it names `api` or `self.api`, as a list of names."""
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        path = []
        while isinstance(node, ast.Attribute):
            path.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "self" and path[:1] == ["api"]:
            path = path[1:]
        elif not (isinstance(node, ast.Name) and node.id == "api"):
            continue
        if path:
            yield path


def test_benchmark_reads_only_what_the_package_has():
    # The traced run wraps each CLASS_METHODS entry and raises when the
    # class does not define the method itself; the workloads look their
    # names up on the package at call time. Either way a deletion breaks
    # the benchmark, so it must fail here first.
    triples = _class_methods()
    assert ("functions", "CallableKernel", "eval") in triples
    for layer, cls_name, method in triples:
        cls = getattr(importlib.import_module(f"specforms.{layer}"), cls_name, None)
        assert inspect.isclass(cls) and method in vars(cls), (layer, cls_name, method)
    reads = list(_api_reads())
    assert ["experiments", "DEFAULT_TOLERANCES"] in reads and len(reads) > 20
    for path in reads:
        obj = specforms
        for name in path:
            assert hasattr(obj, name), path
            obj = getattr(obj, name)


def _reached(call):
    """Span names ("layer.qualname") of the specforms functions entered
    while call runs."""
    seen = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("specforms."):
            seen.add(f"{module.removeprefix('specforms.')}.{frame.f_code.co_qualname}")

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


def _tied_forms():
    # a clustered spectrum: near-ties whose quadrature rows cross the kink
    h, v = specforms.generate_instance(1, 8, "clustered", 3.5)
    for k in (1, 2, 3):
        form = specforms.FrechetForm(h.matrix, specforms.SchattenExponent(3.5), k, 1e-9)
        specforms.delta_symmetric(form, [v.matrix] * k)


def _moving_segment():
    for p in (2.5, 3.5):
        h0, v = specforms.generate_instance(1, 4, "generic", p)
        step = 0.3 * v.matrix / np.linalg.norm(v.matrix)
        specforms.taylor_integral_form(h0.matrix, h0.matrix + step, p)


def _separated_integrals():
    # distinct A, B and tails: the identity at m = 1 and 2 with both kernels
    for m in (1, 2):
        draws = specforms.generate_instance(list(range(1, m + 3)), 4, "generic", m + 1.5)
        (a, va), (b, vb), *tails = draws
        tails, perts = [h.matrix for h, _ in tails], (va.matrix, vb.matrix)[:m]
        for model in (specforms.Polynomial((0.25, -1.0, 0.5, 2.0)), specforms.PowerAbs(m + 1.5)):
            spec = specforms.MomentumSpec.from_divided_difference(model, m)
            specforms.perturbation_identity(spec, a.matrix, b.matrix, tails, perts)


def _driver_sweep():
    sweep = (
        ("selftest", "--dim", "2"),
        ("perturbation-check", "--dim", "3"),
        ("taylor-scan", "--p", "3.5", "--dim", "3"),
        ("holder-scan", "--p", "3.5", "--dim", "2"),
        ("moi-convergence", "--dim", "2"),
    )
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in sweep:
            specforms.cli.main(list(argv))


def test_small_requests_reach_every_benchmark_span(monkeypatch):
    # sys.setprofile sees every function entered, whatever alias calls it,
    # so a change that stops calling a span a workload requires fails here
    # before the traced benchmark run does. It sees only the calling
    # thread, so the driver pool runs in it, on a one-core machine.
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    expected = {}
    for workload, name in _expected_spans():
        expected.setdefault(workload, set()).add(name)
    requests = {
        "TiedForms": _tied_forms,
        "SeparatedIntegrals": _separated_integrals,
        "MovingSegment": _moving_segment,
        "DriverSweep": _driver_sweep,
    }
    assert set(requests) == set(expected)
    for workload, request in requests.items():
        assert not expected[workload] - _reached(request), workload



def _defaulted_parameters():
    """{(qualname, parameter): default} of every parameter with a default
    among the public functions, classes and methods defined in the
    package's modules."""
    found = {}
    for info in pkgutil.iter_modules(specforms.__path__):
        module = importlib.import_module(f"specforms.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or not _defined_in(obj, module):
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [
                    (f"{name}.{attr}", value)
                    for attr, value in vars(obj).items()
                    if inspect.isfunction(value) and (attr == "__call__" or attr[0] != "_")
                ]
            for qualname, member in members:
                if inspect.isclass(member) and issubclass(member, BaseException):
                    continue
                for param in inspect.signature(member).parameters.values():
                    if param.default is not param.empty:
                        found[qualname, param.name] = param.default
    return found


# Every setting of the public callables: each parameter that has a default.
# Each one doubles the configurations that tests must cover, so a new one is
# added here on purpose, with a caller outside the tests that sets it.
SETTINGS = {
    "DividedDifference.__call__": ("quad_tol",),
    "ExperimentConfig": (
        "seed", "dim", "p", "profile", "t_grid", "n_grid", "matrix_path", "dir_paths",
        "out_dir", "fmt",
    ),
    "FrechetForm": ("order", "quad_tol", "model"),
    "MoiRequest": ("tol",),
    "MomentumSpec": ("q_terms",),
    "PowerKernel": ("parity",),
    "RunReport": ("data", "wall_clock_s"),
    "RunReport.save": ("fmt",),
    "RunReport.to_json": ("drop_volatile",),
    "canonical_json": ("drop_volatile",),
    "divided_difference": ("quad_tol",),
    "generate_instance": ("profile", "p"),
    "main": ("argv",),
    "model_delta_bracket": ("quad_tol",),
    "momentum_eval": ("tol",),
    "momentum_quadrature": ("tol",),
    "perturbation_identity": ("tol",),
    "taylor_expand": ("t_grid",),
    "taylor_integral_form": ("quad_tol",),
}


def test_every_setting_is_listed():
    listed = {(qualname, name) for qualname, names in SETTINGS.items() for name in names}
    assert set(_defaulted_parameters()) == listed


def test_every_quadrature_tolerance_defaults_to_the_one_constant():
    defaults = {
        qualname: default
        for (qualname, name), default in _defaulted_parameters().items()
        if name in ("quad_tol", "tol")
    }
    assert set(defaults) == {
        "divided_difference",
        "DividedDifference.__call__",
        "momentum_quadrature",
        "momentum_eval",
        "MoiRequest",
        "perturbation_identity",
        "FrechetForm",
        "model_delta_bracket",
        "taylor_integral_form",
    }
    # The constant itself, not another spelling of its value.
    assert all(default is QUAD_TOL for default in defaults.values()), defaults
    assert DEFAULT_TOLERANCES["quad_tol"] is QUAD_TOL


def _reads_the_environment(tree):
    """The lines of a module's AST that read os.environ or call os.getenv,
    however they are imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id in ("environ", "getenv"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if {alias.name for alias in node.names} & {"environ", "getenv"}:
                yield node.lineno


def test_no_module_reads_the_environment():
    # ExperimentConfig is the one list of driver settings; a variable read
    # from the environment would be a hidden one.
    src = Path(specforms.__file__).resolve().parent
    found = {
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        for line in _reads_the_environment(ast.parse(path.read_text()))
    }
    assert not found


def test_readme_command_lines_parse():
    # Every `specforms ...` line of README's shell blocks is a command the
    # parser takes, its trailing comment aside.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = readme.split("```sh\n")[1:]
    lines = [
        line.split("#")[0].split()[1:]
        for block in blocks
        for line in block.split("```")[0].splitlines()
        if line.startswith("specforms ")
    ]
    assert len(lines) >= 6
    for argv in lines:
        specforms.cli.build_parser().parse_args(argv)
