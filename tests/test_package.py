import ast
import builtins
from importlib.util import find_spec
from pathlib import Path

import mollikit
from mollikit import cli, errors, estimator, kernels, mollify, quadratic

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
                        (cli, "UsageError")):
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
