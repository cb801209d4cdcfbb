import ast
import builtins
import inspect
import re
from importlib.util import find_spec
from pathlib import Path

import pytest

import mollikit
from mollikit import (cli, errors, estimator, kernels, mollify, montecarlo,
                      quadratic)
from mollikit.errors import InputError

SRC = Path(mollikit.__file__).parent

# The library's raises name InputError or ExperimentError, but for these,
# each with its reason.  Keyed by file, the raised type as written and the
# message's literal text, with {} where a value is formatted in.
PLAIN_RAISES = {
    ("montecarlo.py", "ValueError", "non-finite or negative summary values: {}"):
        "the summaries are computed by the library itself, so a bad one is a "
        "program fault, which must crash rather than read as bad input",
}
OTHER_RAISES = {
    ("estimator.py", "np.linalg.LinAlgError", "Singular matrix"):
        "_solve stands in for np.linalg.solve, so it raises what that raises",
    ("cli.py", "argparse.ArgumentTypeError", "must be an integer >= 1, got {}"):
        "argparse's own protocol for a bad option value: usage and exit 2",
}
LIBRARY_RAISES = {"InputError", "ExperimentError"}
ERROR_CLASSES = ["MollikitError", "InputError", "ExperimentError"]


def test_public_names_resolve_once():
    # a stale or doubled export fails here rather than at a user's import
    names = mollikit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mollikit, name)]
    assert missing == []
    for owner, gone in ((mollikit, "SolverOptions"), (estimator, "SolverOptions"),
                        (mollify, "CLOSED_FORM"), (mollify, "QUADRATURE"),
                        (mollikit, "kernel_derivative"),
                        (kernels, "kernel_derivative"),
                        (mollikit, "quadrature"),
                        (mollikit, "smooth_second_derivative"),
                        (mollify, "smooth_second_derivative"),
                        (errors, "QuadratureError"),
                        (quadratic, "_tilde_L_probes"),
                        (quadratic, "_probe_directions"),
                        (mollikit, "minimizer_gap"),
                        (quadratic, "minimizer_gap"),
                        (kernels, "kernel_integrals"),
                        (kernels, "_integrals"),
                        (cli, "UsageError"),
                        (montecarlo, "_DIST_ALIASES")):
        assert not hasattr(owner, gone)
    for gone in ("InvalidScaleError", "InvalidGridError", "IncompleteSampleError",
                 "SingularDesignError", "NonCoerciveLossError",
                 "DegenerateRegressorError", "UnsupportedDimensionError",
                 "InvalidBandwidthError", "InvalidCurvatureError",
                 "SingularGramError", "NonFiniteSampleError", "InvalidStartError",
                 "CurvatureUndefinedError", "InvalidPointError"):
        assert not hasattr(errors, gone)
    assert find_spec("mollikit.quadrature") is None


def _message(call) -> str:
    """The literal text of a raise's first argument, {} for each field."""
    arg = call.args[0] if isinstance(call, ast.Call) and call.args else None
    if isinstance(arg, ast.Constant):
        return str(arg.value)
    if isinstance(arg, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in arg.values)
    return ""


def _raises(tree, filename):
    """(file, raised type as written, message) of each raise that names
    an exception; a bare re-raise names none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield filename, ast.unparse(target), _message(node.exc)


def _is_builtin(kind: str) -> bool:
    found = getattr(builtins, kind, None)
    return isinstance(found, type) and issubclass(found, BaseException)


def test_bad_input_raises_only_library_errors():
    found = [site for path in sorted(SRC.glob("*.py"))
             for site in _raises(ast.parse(path.read_text()), path.name)]
    assert sorted(s for s in found if _is_builtin(s[1])) == sorted(PLAIN_RAISES)
    others = [s for s in found
              if s[1] not in LIBRARY_RAISES and not _is_builtin(s[1])]
    assert sorted(others) == sorted(OTHER_RAISES)
    assert all({**PLAIN_RAISES, **OTHER_RAISES}.values())
    # and the library's own types are these three, and no more
    tree = ast.parse((SRC / "errors.py").read_text())
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)] == ERROR_CLASSES


def test_builtin_raise_guard_sees_every_form():
    source = ("raise ValueError('a')\n"
              "raise TypeError(f'b {x}')\n"
              "raise KeyError\n"
              "raise errors.InputError('c')\n"
              "raise np.linalg.LinAlgError(msg)\n"
              "raise\n")
    sites = list(_raises(ast.parse(source), "m.py"))
    assert sites == [("m.py", "ValueError", "a"), ("m.py", "TypeError", "b {}"),
                     ("m.py", "KeyError", ""), ("m.py", "errors.InputError", "c"),
                     ("m.py", "np.linalg.LinAlgError", "")]
    assert [kind for _, kind, _ in sites if _is_builtin(kind)] == [
        "ValueError", "TypeError", "KeyError"]


# ---------------------------------------------------------------------------
# one way in for each experiment input
# ---------------------------------------------------------------------------

def _environment_reads(tree):
    """Each name, attribute or import of `environ` or `getenv`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names = [node.id if isinstance(node, ast.Name) else node.attr]
        else:
            continue
        yield from (name for name in names if name in ("environ", "getenv"))


def test_library_reads_no_environment():
    # an experiment's inputs are its config cell and the CLI's flags
    found = {path.name: list(_environment_reads(ast.parse(path.read_text())))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_environment_guard_sees_every_form():
    source = ("os.environ.get('A')\n"
              "os.getenv('B')\n"
              "from os import environ, getenv, cpu_count\n"
              "os.cpu_count()\n")
    assert sorted(_environment_reads(ast.parse(source))) == [
        "environ", "environ", "getenv", "getenv"]


def _parameters(func):
    return [(p.name, p.default) for p in inspect.signature(func).parameters.values()]


@pytest.mark.parametrize("driver", [montecarlo.run_rmse_experiment,
                                    montecarlo.run_mad_experiment])
def test_drivers_take_only_a_config_and_a_thread_count(driver):
    assert _parameters(driver) == [("config", inspect.Parameter.empty),
                                   ("threads", 1)]


def test_a_cell_is_the_only_source_of_its_config():
    assert _parameters(montecarlo.ExperimentConfig.from_dict) == [
        ("data", inspect.Parameter.empty)]


_CELL = {"n": 100, "M": 5, "tau": 0.5, "error_dist": "t4", "m_list": [5]}


@pytest.mark.parametrize("alias", ["normal", "gauss", "compact", "compact_bump"])
def test_kernel_aliases_are_refused(alias):
    message = re.escape(f"unknown kernel {alias!r} (expected gaussian|bump)")
    with pytest.raises(InputError, match=message):
        kernels.parse_kernel(alias)
    with pytest.raises(InputError, match=message):
        montecarlo.ExperimentConfig.from_dict({**_CELL, "kernel": alias})


@pytest.mark.parametrize("alias", ["normal", "gaussian", "student_t4"])
def test_error_distribution_aliases_are_refused(alias):
    message = re.escape(f"unknown error distribution {alias!r} (expected normal01|t4)")
    with pytest.raises(InputError, match=message):
        montecarlo.ExperimentConfig.from_dict({**_CELL, "error_dist": alias})
    for call in (montecarlo.error_density,
                 lambda name: montecarlo.error_quantile_shift(name, 0.5)):
        with pytest.raises(InputError, match=message):
            call(alias)


@pytest.mark.parametrize("cell, message", [
    ({**_CELL, "replications": 5}, "unknown config keys: ['replications']"),
    ({k: v for k, v in _CELL.items() if k != "M"} | {"replications": 5},
     "config needs entries ['M']"),
])
def test_replications_key_is_refused(cell, message):
    with pytest.raises(InputError, match=re.escape(message)):
        montecarlo.ExperimentConfig.from_dict(cell)
