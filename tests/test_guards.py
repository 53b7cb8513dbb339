"""Every guarded entry point rejects NaN, and the numeric arguments that
must be finite and positive reject infinities and non-positive values,
with a ValidationError that names the offending argument."""

import numpy as np
import pytest

from specforms import (
    DividedDifference,
    PowerAbs,
    ValidationError,
    divided_difference,
    fd_oracle,
    fit_loglog_slope,
    generate_instance,
)
from specforms.forms import selfadjoint_embed
from specforms.momenta import MomentumSpec, momentum_eval, momentum_quadrature

NAN = float("nan")
H = np.diag([0.3, -0.2])
V = 0.5 * np.eye(2)
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
    "fit_loglog_slope x": (lambda: fit_loglog_slope([1.0, NAN, 3.0], [1.0, 2.0, 3.0]), "^slope fit"),
    "fit_loglog_slope y": (lambda: fit_loglog_slope([1.0, 2.0, 3.0], [1.0, NAN, 3.0]), "^slope fit"),
    "fit_loglog_slope inf": (
        lambda: fit_loglog_slope([1.0, 2.0, np.inf], [1.0, 2.0, 3.0]),
        "^slope fit",
    ),
}
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
