"""Scalar function models with explicit derivative structure.

A model knows how many continuous derivatives it has. eval(x) evaluates the
model itself, and derivative_model(k), the one derivative ladder in the base
class, is the model of f^(k): f^(k)(x) is derivative_model(k).eval(x). Each
model class has one fixed domain: a PowerKernel lives on the working
interval [-2, 2], a Polynomial or CallableKernel on the whole real line. The
central family is c * |x|^beta * sign(x)^kappa, which is closed under
differentiation and covers |x|^p together with every derivative that the
norm-expansion machinery needs. Polynomials are kept as a separate smooth
model.
"""

import numpy as np
from numpy.polynomial.polynomial import polyder

from .errors import UnsupportedConfigError, ValidationError
from .spectral import WORKING_INTERVAL, SchattenExponent
from .util import numeric_array, real_number, whole_number

# Stand-in for "derivatives of every order are continuous".
SMOOTH_ORDER = 10**9


class ScalarFunctionModel:
    """Interface: domain, max_order, eval(x), derivative_model(k).

    derivative_model(k) is the model of f^(k): the model itself at k = 0,
    else the _derivative(k) of a subclass, built once per k and kept on the
    instance. A class without that hook has no derivative models. An origin
    model (PowerKernel, Polynomial) has a repr naming every parameter, so
    one repr is one function: MomentumSpec and moi's Loewner memo compare
    such models by repr."""

    domain = (-np.inf, np.inf)
    #: index K such that f, f', ..., f^(K) are continuous on the domain
    max_order = 0
    #: (coef, beta, parity) when f(x) = coef * |x|^beta * sign(x)^parity
    power_form = None

    def eval(self, x):
        raise NotImplementedError

    def derivative_model(self, k):
        k = whole_number(k, "derivative order")
        if k < 0:
            raise ValidationError("derivative order must be >= 0")
        if k == 0:
            return self
        ladder = vars(self).setdefault("_derivatives", {})
        if k not in ladder:
            ladder[k] = self._derivative(k)
        return ladder[k]

    def _derivative(self, k):
        raise UnsupportedConfigError(
            f"{type(self).__name__} does not expose derivative models"
        )

    @property
    def singular_at_zero(self):
        """True when some derivative loses smoothness at the origin."""
        return self.power_form is not None and self.max_order < SMOOTH_ORDER


def _power_max_order(beta, parity):
    if beta >= 0 and beta == int(beta):
        if (int(beta) + parity) % 2 == 0:
            return SMOOTH_ORDER  # plain monomial x^beta
        return int(beta) - 1  # e.g. |x|: continuous, derivative jumps
    return int(np.ceil(beta)) - 1


class PowerKernel(ScalarFunctionModel):
    """f(x) = coef * |x|^beta * sign(x)^parity on the working interval.

    Differentiation maps (coef, beta, parity) to (coef*beta, beta-1,
    parity+1), so the family is closed under the ladder: f^(k) has
    coefficient coef*beta*...*(beta-k+1), beta - k and parity + k. Up
    to max_order each derivative is continuous, with beta > 0 or coef 0;
    past it beta may drop below zero, where the model blows up at 0.
    """

    domain = WORKING_INTERVAL

    def __init__(self, coef, beta, parity=0):
        self.coef = real_number(coef, "power coefficient")
        self.beta = real_number(beta, "power exponent beta")
        if not np.isfinite(self.coef):
            raise ValidationError(f"power coefficient must be finite, got {self.coef}")
        if not np.isfinite(self.beta):
            raise ValidationError(f"power exponent beta must be finite, got {self.beta}")
        self.parity = whole_number(parity, "parity") % 2
        # A zero coefficient (a monomial differentiated past its degree) is
        # the zero function, smooth whatever its exponent.
        if self.coef == 0.0:
            self.max_order = SMOOTH_ORDER
        else:
            self.max_order = _power_max_order(self.beta, self.parity)

    def __repr__(self):
        return f"PowerKernel({self.coef!r}, {self.beta!r}, {self.parity!r})"

    @property
    def power_form(self):
        return (self.coef, self.beta, self.parity)

    def _derivative(self, k):
        c = self.coef
        for j in range(k):
            c *= self.beta - j
        return PowerKernel(c, self.beta - k, self.parity + k)

    def eval(self, x):
        x, c, b = numeric_array(x, float, "kernel arguments"), self.coef, self.beta
        if c == 0.0:
            mag = np.zeros_like(x)
        elif b == 0.0:
            mag = np.ones_like(x)
        else:
            with np.errstate(divide="ignore"):
                mag = np.abs(x) ** b
        out = c * mag * np.sign(x) if self.parity else c * mag
        return out if out.shape else float(out)


def PowerAbs(p):
    """|x|^p on the working interval, the integrand behind ||H||_p^p."""
    return PowerKernel(1.0, SchattenExponent(p).p, 0)


def Monomial(n):
    """x^n on the working interval."""
    n = whole_number(n, "monomial degree")
    if n < 0:
        raise ValidationError("monomial degree must be >= 0")
    return PowerKernel(1.0, n, n)


class Polynomial(ScalarFunctionModel):
    """sum_j coeffs[j] * x^j, whose k-th derivative model takes the
    coefficients numpy.polynomial's polyder gives.

    eval takes the steps of numpy's Polynomial.__call__ itself, with the
    same bits: the identity domain map 0.0 + 1.0*x (which turns -0.0 into
    0.0), then Horner's rule from c[-1] + x*0. The domain is the whole
    real line.
    """

    max_order = SMOOTH_ORDER

    def __init__(self, coeffs):
        coeffs = np.atleast_1d(coeffs).tolist()
        coeffs = [real_number(c, "polynomial coefficient") for c in coeffs]
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError(f"polynomial coefficients must be finite, got {coeffs}")
        self._coeffs = np.array(coeffs or [0.0])

    def __repr__(self):
        return f"Polynomial({self.coeffs!r})"

    @property
    def coeffs(self):
        return list(self._coeffs)

    def _derivative(self, k):
        return Polynomial(list(polyder(self._coeffs, k)))

    def eval(self, x):
        c = self._coeffs
        x = 0.0 + 1.0 * numeric_array(x, float, "kernel arguments")
        out = c[-1] + x * 0
        for a in c[-2::-1]:
            out = a + out * x
        return out if out.shape else float(out)


class CallableKernel(ScalarFunctionModel):
    """Opaque scalar function on the whole real line, with no derivatives:
    a factor of a separable symbol, or its own order-0 divided difference.
    Quadrature, which integrates a derivative model, refuses it."""

    max_order = 0

    def __init__(self, fn):
        if not callable(fn):
            raise ValidationError("kernel must be callable")
        self._fn = fn

    def eval(self, x):
        out = self._fn(numeric_array(x, float, "kernel arguments"))
        out = numeric_array(out, float, "kernel values")
        return out if out.shape else float(out)


def _divided_order(model, k, least):
    """k as the order of a divided difference of the kernel model: whole, at
    least `least`, and at most model.max_order (else UnsupportedConfigError)."""
    k = whole_number(k, "divided-difference order")
    if k < least:
        raise ValidationError(f"divided-difference order must be >= {least}")
    if k > model.max_order:
        raise UnsupportedConfigError(
            f"order-{k} divided difference needs {k} continuous derivatives, "
            f"model has {model.max_order}"
        )
    return k


def as_kernel(obj):
    """obj if it is a ScalarFunctionModel, else ValidationError (a bare
    callable is not one: wrap it in CallableKernel)."""
    if isinstance(obj, ScalarFunctionModel):
        return obj
    raise ValidationError(f"cannot use {obj!r} as a scalar kernel")

