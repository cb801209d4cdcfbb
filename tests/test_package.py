import ast
import builtins
from importlib.util import find_spec
from pathlib import Path

import mollikit
from mollikit import cli, errors, estimator, kernels, mollify, quadratic

SRC = Path(mollikit.__file__).parent

# The only raises of a built-in exception in the library, each with its
# reason; every other refusal is a MollikitError.  Keyed by file and the
# message's literal text, with {} where a value is formatted in.
PLAIN_RAISES = {
    ("estimator.py", "y does not equal x @ theta0 + e"):
        "a sample generator that breaks the model is a program fault; typed, "
        "a run would record it as an excluded replication instead of crashing",
    ("montecarlo.py", "non-finite or negative summary values: {}"):
        "the summaries are computed by the library itself, so a bad one is a "
        "program fault, which must crash rather than read as bad input",
}


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


def _builtin_raises(tree, filename):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        kind = getattr(builtins, getattr(target, "id", ""), None)
        if isinstance(kind, type) and issubclass(kind, BaseException):
            yield filename, _message(node.exc)


def test_bad_input_raises_only_library_errors():
    found = [site for path in sorted(SRC.glob("*.py"))
             for site in _builtin_raises(ast.parse(path.read_text()), path.name)]
    assert sorted(found) == sorted(PLAIN_RAISES)
    assert all(reason for reason in PLAIN_RAISES.values())


def test_builtin_raise_guard_sees_every_form():
    source = ("raise ValueError('a')\n"
              "raise TypeError(f'b {x}')\n"
              "raise KeyError\n"
              "raise errors.InputError('c')\n"
              "raise\n")
    assert list(_builtin_raises(ast.parse(source), "m.py")) == [
        ("m.py", "a"), ("m.py", "b {}"), ("m.py", "")]
