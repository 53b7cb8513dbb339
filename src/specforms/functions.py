"""Scalar function models with explicit derivative structure.

A model knows its domain, how many continuous derivatives it has, and how
to evaluate any of them. The central family is c * |x|^beta * sign(x)^kappa,
which is closed under differentiation and covers |x|^p together with every
derivative that the norm-expansion machinery needs. Polynomials are kept
as a separate smooth model.
"""

import numpy as np

from .errors import UnsupportedConfigError, ValidationError
from .spectral import WORKING_INTERVAL, SchattenExponent

# Stand-in for "derivatives of every order are continuous".
SMOOTH_ORDER = 10**9


class ScalarFunctionModel:
    """Interface: domain, max_order, eval(x, order), derivative_model(k)."""

    domain = (-np.inf, np.inf)
    #: index K such that f, f', ..., f^(K) are continuous on the domain
    max_order = 0
    #: (coef, beta, parity) when f(x) = coef * |x|^beta * sign(x)^parity
    power_form = None

    def eval(self, x, order=0):
        raise NotImplementedError

    def derivative_model(self, k=1):
        raise UnsupportedConfigError(
            f"{type(self).__name__} does not expose derivative models"
        )

    @property
    def singular_at_zero(self):
        """True when some derivative loses smoothness at the origin."""
        return self.power_form is not None and self.max_order < SMOOTH_ORDER


def _sign_power(x, parity):
    if parity % 2 == 0:
        return np.ones_like(x)
    return np.sign(x)


def _power_max_order(beta, parity):
    if beta >= 0 and beta == int(beta):
        if (int(beta) + parity) % 2 == 0:
            return SMOOTH_ORDER  # plain monomial x^beta
        return int(beta) - 1  # e.g. |x|: continuous, derivative jumps
    return int(np.ceil(beta)) - 1


class PowerKernel(ScalarFunctionModel):
    """f(x) = coef * |x|^beta * sign(x)^parity.

    Differentiation maps (coef, beta, parity) to (coef*beta, beta-1,
    parity+1), so the family is closed under derivative_model. beta may
    drop below zero for quadrature kernels; such models are integrable
    but blow up at the origin.
    """

    def __init__(self, coef, beta, parity=0, domain=WORKING_INTERVAL):
        self.coef = float(coef)
        self.beta = float(beta)
        self.parity = int(parity) % 2
        self.domain = (float(domain[0]), float(domain[1]))
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

    def _coef_at(self, order):
        c = self.coef
        for j in range(order):
            c *= self.beta - j
        return c

    def eval(self, x, order=0):
        order = int(order)
        if order < 0:
            raise ValidationError("derivative order must be >= 0")
        x = np.asarray(x, dtype=float)
        c = self._coef_at(order)
        b = self.beta - order
        par = (self.parity + order) % 2
        if c == 0.0:
            mag = np.zeros_like(x)
        elif b == 0.0:
            mag = np.ones_like(x)
        else:
            with np.errstate(divide="ignore"):
                mag = np.abs(x) ** b
        out = c * mag * _sign_power(x, par)
        return out if out.shape else float(out)

    def derivative_model(self, k=1):
        k = int(k)
        if k < 0:
            raise ValidationError("derivative order must be >= 0")
        if k == 0:
            return self
        return PowerKernel(
            self._coef_at(k), self.beta - k, self.parity + k, domain=self.domain
        )


def PowerAbs(p):
    """|x|^p on the working interval, the integrand behind ||H||_p^p."""
    return PowerKernel(1.0, SchattenExponent(p).p, 0)


def Monomial(n):
    n = int(n)
    if n < 0:
        raise ValidationError("monomial degree must be >= 0")
    return PowerKernel(1.0, n, n, domain=(-np.inf, np.inf))


class Polynomial(ScalarFunctionModel):
    """sum_j coeffs[j] * x^j with exact derivative models."""

    max_order = SMOOTH_ORDER

    def __init__(self, coeffs, domain=(-np.inf, np.inf)):
        coeffs = [float(c) for c in np.atleast_1d(coeffs)]
        if not coeffs:
            coeffs = [0.0]
        self._poly = np.polynomial.Polynomial(coeffs)
        self.domain = (float(domain[0]), float(domain[1]))

    def __repr__(self):
        return f"Polynomial({list(self._poly.coef)!r})"

    @property
    def coeffs(self):
        return list(self._poly.coef)

    def eval(self, x, order=0):
        order = int(order)
        if order < 0:
            raise ValidationError("derivative order must be >= 0")
        p = self._poly.deriv(order) if order else self._poly
        x = np.asarray(x, dtype=float)
        out = p(x)
        return out if out.shape else float(out)

    def derivative_model(self, k=1):
        k = int(k)
        if k == 0:
            return self
        return Polynomial(list(self._poly.deriv(k).coef), domain=self.domain)


class CallableKernel(ScalarFunctionModel):
    """Opaque scalar function; usable as a quadrature kernel only."""

    max_order = 0

    def __init__(self, fn, domain=(-np.inf, np.inf)):
        if not callable(fn):
            raise ValidationError("kernel must be callable")
        self._fn = fn
        self.domain = (float(domain[0]), float(domain[1]))

    def eval(self, x, order=0):
        if order != 0:
            raise UnsupportedConfigError(
                "callable kernels carry no derivative information"
            )
        x = np.asarray(x, dtype=float)
        out = np.asarray(self._fn(x), dtype=float)
        return out if out.shape else float(out)


def as_kernel(obj):
    """Coerce a model or bare callable into a ScalarFunctionModel."""
    if isinstance(obj, ScalarFunctionModel):
        return obj
    if callable(obj):
        return CallableKernel(obj)
    raise ValidationError(f"cannot use {obj!r} as a scalar kernel")

