"""The derivative ladder of the scalar models: derivative_model(k) is built
once per order, and derivative_model(k).eval(x) reads f^(k) with unchanged
bits."""

import hashlib
import sys

import numpy as np
import pytest

from specforms import divided, functions, momenta
from specforms import (
    CallableKernel,
    FrechetForm,
    Monomial,
    PowerAbs,
    PowerKernel,
    UnsupportedConfigError,
    delta_symmetric,
    fd_oracle,
    generate_instance,
)

MODELS = {
    "PowerAbs(2.5)": PowerAbs(2.5),
    "PowerAbs(3.5)": PowerAbs(3.5),
    # past its degree the coefficient is 0 (signed: -0.0 from order 4)
    "Monomial(2)": Monomial(2),
    "PowerKernel(-1.5, 2.5, 1)": PowerKernel(-1.5, 2.5, 1),
}
# Signed zeros, subnormals and the ends of the working interval.
POINTS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, -1e-310, 2.0, -2.0])
ORDERS = range(6)
# SHA-256 of every derivative_model(k).eval(POINTS) array and every one-point
# derivative_model(k).eval(x), model by model and order by order, read
# before eval went through the ladder (when each order was computed from the
# model's own parameters).
LADDER_DIGEST = "90eb8f955fa372e832b028cd87af20e9bff52166118b6556201b2ff4900f76b0"
# A few of those values: (model, order, point index, hex).
PINNED = (
    ("PowerAbs(2.5)", 1, 7, "-0x1.c48c6001f0ac0p+2"),
    ("PowerAbs(2.5)", 3, 4, "0x1.9fb1339d2c7e0p+512"),
    ("PowerAbs(3.5)", 4, 2, "0x1.a400000000000p+539"),
    ("Monomial(2)", 1, 5, "-0x0.024d116e1cc56p-1022"),
    ("Monomial(2)", 4, 6, "-0x0.0p+0"),
    ("PowerKernel(-1.5, 2.5, 1)", 2, 3, "0x1.6800000000000p-535"),
    ("PowerKernel(-1.5, 2.5, 1)", 5, 6, "-0x1.7dd67101a3112p-2"),
)


def test_eval_at_every_order_keeps_its_bits():
    digest = hashlib.sha256()
    # Past max_order beta drops below zero: inf and nan at 0 are values here.
    with np.errstate(all="ignore"):
        for name, model in MODELS.items():
            for k in ORDERS:
                values = model.derivative_model(k).eval(POINTS)
                digest.update(values.tobytes())
                for x in POINTS:
                    one = model.derivative_model(k).eval(float(x))
                    assert type(one) is float
                    digest.update(np.float64(one).tobytes())
            for pinned, k, i, want in PINNED:
                if pinned == name:
                    assert model.derivative_model(k).eval(POINTS)[i].hex() == want
    assert digest.hexdigest() == LADDER_DIGEST


@pytest.mark.parametrize("name", sorted(MODELS))
def test_each_order_is_built_once_and_order_zero_is_the_model(name):
    model = MODELS[name]
    assert model.derivative_model(0) is model
    for k in ORDERS[1:]:
        assert model.derivative_model(k) is model.derivative_model(k)
        assert model.derivative_model(k).power_form == (
            model.derivative_model(k).eval(1.0),
            model.beta - k,
            (model.parity + k) % 2,
        )


def test_a_callable_kernel_has_only_order_zero():
    kernel = CallableKernel(np.abs)
    assert kernel.derivative_model(0) is kernel
    with pytest.raises(UnsupportedConfigError, match="^CallableKernel does not expose derivative"):
        kernel.derivative_model(1)


def test_one_evaluation_is_one_kernel_call():
    # A derivative value is derivative_model(k).eval(x): no kernel eval is
    # entered from inside another, on the forms' exact-tie, near-tie and
    # quadrature routes or in fd_oracle's rounding estimate.
    evals = {
        vars(cls)["eval"].__code__
        for cls in vars(functions).values()
        if isinstance(cls, type) and "eval" in vars(cls)
    }
    depth, outer, nested, routes = 0, 0, [], set()

    def profile(frame, event, arg):
        nonlocal depth, outer
        code = frame.f_code
        if event == "call" and code in evals:
            if depth:
                nested.append(type(frame.f_locals["self"]).__name__)
            outer += not depth
            depth += 1
        elif event == "return" and code in evals:
            depth -= 1
        elif event == "call" and code is divided._table.__code__ and frame.f_locals["tied"]:
            routes.add("tie")
        elif event == "call" and code is momenta.momentum_quadrature.__code__:
            routes.add("quadrature")

    h, v = generate_instance(1, 8, "clustered", 3.5)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for k in (1, 2, 3):
            delta_symmetric(FrechetForm(h, 3.5, k), [v] * k)
        fd_oracle(h, v, 3.5, 2)
    finally:
        sys.setprofile(previous)
    assert routes == {"tie", "quadrature"} and outer > 0 and depth == 0
    assert nested == []
