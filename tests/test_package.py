import mollikit
from mollikit import estimator, kernels, mollify, quadrature


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
                        (quadrature, "integrate")):
        assert not hasattr(owner, gone)
