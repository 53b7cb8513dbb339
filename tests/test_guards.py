"""Every guarded entry point rejects NaN, the numeric arguments that must
be finite and positive reject infinities and non-positive values, those
that count reject fractions, and the matrix arguments of the oracles reject
non-Hermitian input or a shape unlike their partner's, with a
ValidationError that names the offending argument."""

import numpy as np
import pytest

from specforms import (
    DividedDifference,
    FrechetForm,
    MoiRequest,
    PowerAbs,
    ValidationError,
    divided_difference,
    fd_oracle,
    eigendecompose,
    fit_loglog_slope,
    generate_instance,
    taylor_integral_form,
)
from specforms.forms import selfadjoint_embed
from specforms.moi import binned_eigenvalues
from specforms.momenta import MomentumSpec, momentum_eval, momentum_quadrature

NAN = float("nan")
H = np.diag([0.3, -0.2])
V = 0.5 * np.eye(2)
# 0.3 above the diagonal only: the lower triangle alone looks Hermitian.
SKEW = np.array([[0.0, 0.3], [0.0, 0.0]])
DD_SPEC = MomentumSpec.from_divided_difference(PowerAbs(2.5), 1)
# No origin model, so momentum_eval takes the quadrature route.
PLAIN_SPEC = MomentumSpec(1, PowerAbs(2.5).derivative_model(1))

CALLS = {
    "divided_difference": (lambda: divided_difference(PowerAbs(2.5), [NAN, 0.1]), "^nodes"),
    "divided_difference rows": (
        lambda: divided_difference(PowerAbs(2.5), [[0.2, 0.1], [0.3, NAN]]),
        "^nodes",
    ),
    "DividedDifference": (lambda: DividedDifference(PowerAbs(2.5), 1)([NAN, 0.1]), "^nodes"),
    "momentum_eval table": (lambda: momentum_eval(DD_SPEC, [NAN, 0.1]), "^nodes"),
    "momentum_eval quadrature": (lambda: momentum_eval(PLAIN_SPEC, [NAN, 0.1]), "^arguments"),
    "momentum_quadrature": (lambda: momentum_quadrature(DD_SPEC, [NAN, 0.1]), "^arguments"),
    "momentum_quadrature tol": (
        lambda: momentum_quadrature(DD_SPEC, [0.2, 0.1], tol=NAN),
        "^quadrature tol",
    ),
    "PowerAbs": (lambda: PowerAbs(NAN), "1 < p < inf, got nan"),
    "fd_oracle p": (lambda: fd_oracle(H, V, NAN, 1), "1 < p < inf, got nan"),
    "fd_oracle step": (lambda: fd_oracle(H, V, 2.5, 1, step=NAN), "^finite-difference step"),
    "selfadjoint_embed": (lambda: selfadjoint_embed(np.eye(2), NAN), "needs p >= 1, got nan"),
    "generate_instance": (lambda: generate_instance(1, 3, "generic", NAN), "needs p >= 1, got nan"),
    "fd_oracle base": (lambda: fd_oracle(H + SKEW, V, 3.5, 2), "^base is not Hermitian"),
    "fd_oracle direction": (lambda: fd_oracle(H, V + SKEW, 3.5, 2), "^direction is not Hermitian"),
    "taylor_integral_form h0": (
        lambda: taylor_integral_form(H + SKEW, H + 0.1 * V, 3.5),
        "^h0 is not Hermitian",
    ),
    "taylor_integral_form h1": (
        lambda: taylor_integral_form(H, H + SKEW, 3.5),
        "^h1 is not Hermitian",
    ),
    "taylor_integral_form h1 shape": (
        lambda: taylor_integral_form(H, np.diag([0.3, -0.2, 0.1]), 3.5),
        "^h1 has shape",
    ),
    "taylor_integral_form m": (
        lambda: taylor_integral_form(H, H + 0.1 * V, 3.5, m=2.5),
        "^m must be a whole number",
    ),
    "taylor_integral_form quad_tol": (
        # m = 1 builds no request: the form checks its tolerance itself.
        lambda: taylor_integral_form(H, H + 0.1 * V, 2.5, m=1, quad_tol=NAN),
        "^quadrature tol",
    ),
    "FrechetForm quad_tol": (
        lambda: FrechetForm(eigendecompose(H), 2.5, quad_tol=NAN),
        "^quadrature tol",
    ),
    "fit_loglog_slope x": (lambda: fit_loglog_slope([1.0, NAN, 3.0], [1.0, 2.0, 3.0]), "^slope fit"),
    "fit_loglog_slope y": (lambda: fit_loglog_slope([1.0, 2.0, 3.0], [1.0, NAN, 3.0]), "^slope fit"),
    "fit_loglog_slope inf": (
        lambda: fit_loglog_slope([1.0, 2.0, np.inf], [1.0, 2.0, 3.0]),
        "^slope fit",
    ),
}
for bad in (0, -2, NAN, 2.7):
    CALLS[f"taylor_integral_form t_order={bad}"] = (
        lambda bad=bad: taylor_integral_form(H, H + 0.1 * V, 3.5, t_order=bad),
        "^t_order",
    )
# Counts and orders are not truncated: a fraction or NaN is rejected.
for bad in (NAN, 2.7):
    CALLS[f"MomentumSpec m={bad}"] = (
        lambda bad=bad: MomentumSpec(m=bad, kernel=PowerAbs(2.5)),
        "^momentum order must be a whole number",
    )
    CALLS[f"MomentumSpec exponent={bad}"] = (
        lambda bad=bad: MomentumSpec(m=1, kernel=PowerAbs(2.5), q_terms=(((bad, 0), 1.0),)),
        "^monomial exponent must be a whole number",
    )
    CALLS[f"binned_eigenvalues n={bad}"] = (
        lambda bad=bad: binned_eigenvalues([0.1, 0.5], bad),
        "^bin count must be a whole number",
    )
    CALLS[f"DividedDifference order={bad}"] = (
        lambda bad=bad: DividedDifference(PowerAbs(3.5), bad),
        "^divided-difference order must be a whole number",
    )
# A request's tolerance is checked where the request is made, even when no
# row of its symbol would reach quadrature.
for bad in (NAN, 0.0, -1.0, np.inf):
    CALLS[f"MoiRequest tol={bad}"] = (
        lambda bad=bad: MoiRequest((H, H), (V,), DividedDifference(PowerAbs(2.5), 1), bad),
        "^quadrature tol",
    )
# Infinite, zero and negative tolerances and steps fail the same guards.
for bad in (0.0, -1e-9, np.inf):
    CALLS[f"momentum_quadrature tol={bad}"] = (
        lambda bad=bad: momentum_quadrature(DD_SPEC, [0.2, 0.1], tol=bad),
        "^quadrature tol",
    )
    CALLS[f"fd_oracle step={bad}"] = (
        lambda bad=bad: fd_oracle(H, V, 2.5, 1, step=bad),
        "^finite-difference step",
    )


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_input_raises_validation_error_naming_the_argument(name):
    call, message = CALLS[name]
    with pytest.raises(ValidationError, match=message):
        call()
