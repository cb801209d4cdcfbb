from importlib.util import find_spec

import mollikit
from mollikit import errors, estimator, kernels, mollify, quadratic


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
                        (quadratic, "_probe_directions")):
        assert not hasattr(owner, gone)
    assert find_spec("mollikit.quadrature") is None
