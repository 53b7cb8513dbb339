"""Small numeric helpers used across modules."""

import json
import numbers
from functools import lru_cache

import numpy as np

from .errors import ValidationError

# Trace-valued quantities must be real up to this relative slack.
TRACE_IMAG_TOL = 1e-10
# The default tolerance of every quadrature: simplex momenta and the divided
# differences, operator integrals and forms that may reach them.
QUAD_TOL = 1e-9


def as_sequence(items, what):
    """items as a tuple, or a ValidationError naming `what` when they are
    not a sequence (None or a number, say)."""
    try:
        return tuple(items)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence, got {items!r}") from None


def numeric_array(values, dtype, what):
    """values as an ndarray of the dtype, or a ValidationError naming `what` when
    numpy cannot read them as numbers (a string, say)."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be numeric, got {values!r:.80}") from None


def argument_rows(values, arity):
    """values as one row of `arity` float arguments of a symbol, or a stack
    of rows (R, arity); else a ValidationError, "symbol takes N arguments,
    got S" for a shape S of other rows, or naming non-numeric values."""
    x = numeric_array(values, float, "symbol arguments")
    if x.ndim not in (1, 2) or x.shape[-1] != arity:
        raise ValidationError(f"symbol takes {arity} arguments, got {x.shape}")
    return x


def as_complex_matrix(a, what):
    """Coerce input to a square complex ndarray; an error names `what`."""
    m = numeric_array(getattr(a, "matrix", a), complex, what)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what}: expected a square matrix, got shape {m.shape}")
    return m


def as_complex_matrices(a, what):
    """A square complex matrix, or a stack (B, n, n) of B >= 1 of them; an
    error names `what`."""
    m = numeric_array(getattr(a, "matrix", a), complex, what)
    if m.ndim == 3 and m.shape[1] == m.shape[2]:
        if not len(m):
            raise ValidationError(f"{what}: a stack must hold at least one matrix")
        return m
    return as_complex_matrix(m, what)


def adjoint(a):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def real_trace(a):
    """Trace of `a` asserted real (see real_value).

    A stack (B, n, n) gives the array of its B traces.
    """
    return real_value(np.trace(as_complex_matrices(a, "trace argument"), axis1=-2, axis2=-1))


def real_value(t):
    """Real part of a trace-valued complex number, or of each entry of an
    array of them, asserted real: |imag| <= 1e-10 * (1 + |real|)."""
    t = np.asarray(t)
    bad = np.abs(t.imag) > TRACE_IMAG_TOL * (1.0 + np.abs(t.real))
    if bad.any():
        raise ValidationError(
            f"trace has a non-negligible imaginary part: {t[bad].flat[0]!r}"
        )
    return float(t.real) if t.ndim == 0 else t.real


def check_within(values, bounds, what):
    """Raise ValidationError unless every value lies in the closed interval
    bounds = (lo, hi), with 1e-12 slack; a NaN value fails. `what` is the
    noun phrase the message names the values by."""
    lo, hi = bounds
    v = np.asarray(values, dtype=float)
    if v.size and not (v.min() >= lo - 1e-12 and v.max() <= hi + 1e-12):
        raise ValidationError(
            f"{what} [{v.min():.6g}, {v.max():.6g}] outside the domain [{lo}, {hi}]"
        )


def whole_number(value, what):
    """value as an int, or a ValidationError naming `what` when it is not a
    whole number: 2.7 is not truncated, and NaN is not a number of nodes.
    An integer of any size passes as it is. A plain int is tested first:
    the test against numbers.Integral runs Python code on every call, and
    every derivative order and kernel evaluation comes through here."""
    if type(value) is int or isinstance(value, numbers.Integral):
        return int(value)
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValidationError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def real_number(value, what):
    """value as a float, or a ValidationError naming `what` when float()
    cannot read it."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a number, got {value!r}") from exc


def checked_tol(tol):
    """A quadrature tolerance as a float, checked finite and positive where
    it enters (a request, a form, a quadrature call)."""
    tol = real_number(tol, "quadrature tol")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"quadrature tol must be finite and positive, got {tol}")
    return tol


@lru_cache(maxsize=None)
def gauss01(q):
    """The q-node Gauss-Legendre rule on [0, 1]: read-only (nodes, weights),
    built once per q."""
    x, w = np.polynomial.legendre.leggauss(int(q))
    x = (x + 1.0) / 2.0
    w = w / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# The 15-point Gauss-Kronrod rule on [-1, 1], QUADPACK's qk15 (Piessens et
# al., 1983): the non-negative Kronrod abscissae, descending (entries 1, 3,
# 5 and the final 0 are the 7-point Gauss nodes), their Kronrod weights, and
# the Gauss weights at xgk[1], xgk[3], xgk[5] and 0.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@lru_cache(maxsize=None)
def kronrod01():
    """The 15-point Gauss-Kronrod rule on [0, 1] with its embedded 7-point
    Gauss rule: read-only (nodes, gauss weights, kronrod weights), the 15
    nodes ascending and the Gauss weights 0 at the 8 Kronrod-only nodes.
    The Kronrod rule is exact through degree 22, the Gauss rule through 13."""
    x, wk = np.array(_XGK), np.array(_WGK)
    wg = np.zeros(8)
    wg[1::2] = _WG
    # Each half mirrored onto [-1, 1], ascending, then mapped to [0, 1].
    rule = [(np.concatenate([-x, x[-2::-1]]) + 1.0) / 2.0]
    rule += [np.concatenate([w, w[-2::-1]]) / 2.0 for w in (wg, wk)]
    for a in rule:
        a.setflags(write=False)
    return tuple(rule)


def lp_norms(spectra, p):
    """The l^p norm of each row of a stack of spectra (R, n). The sums are
    one reduction over C-ordered rows, which keeps each row's pairwise sum
    (a Fortran-ordered stack would add across columns instead); the final
    power is a Python-float pow per row: the array power differs from it in
    the last bit."""
    sums = np.sum(np.abs(np.ascontiguousarray(spectra)) ** p, axis=1)
    return np.array([float(s) ** (1.0 / p) for s in sums])


def sorted_columns(rows):
    """Each row of a stack (R, m) sorted ascending, as the columns of a new
    C-contiguous (m, R) array.

    numpy's stable sort of each row moves entries as they are, and entries
    that compare equal, such as -0.0 and 0.0, keep their order, so a row
    keeps the bits of Python's sorted().
    """
    return np.sort(np.asarray(rows, dtype=float), axis=1, kind="stable").T.copy()


def map_distinct_rows(fn, rows):
    """fn applied to the stack of distinct rows of `rows` (R, n) in one call.

    fn maps a stack (D, n) to D values; the result scatters them back to
    the R float values in row order.
    """
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    return np.asarray(fn(distinct), dtype=float)[inverse.reshape(-1)]


def frobenius(a):
    return float(np.linalg.norm(np.asarray(a)))


def operator_norm(a):
    """Largest singular value."""
    m = np.atleast_2d(np.asarray(a))
    return float(np.linalg.norm(m, ord=2))


def fit_loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x), at two distinct x at least."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x) & (x > 0)) and np.all(np.isfinite(y) & (y > 0))):
        raise ValidationError("slope fit needs finite positive data")
    # min < max, not np.unique: the first np.unique call imports numpy.ma.
    if not (x.size and x.min() < x.max()):
        raise ValidationError("slope fit needs at least two distinct x values")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def canonical_json(obj, drop_volatile=False):
    """Deterministic JSON text: sorted keys, shortest round-trip floats.

    Values are those json writes as they are: Python scalars, lists, tuples
    and dicts, and np.float64, which is a float. Any other value raises
    TypeError.

    With drop_volatile the one run-to-run key of a report, its top-level
    wall clock, is removed, which is how reports are compared.
    """
    if drop_volatile:
        obj = {k: v for k, v in obj.items() if k != "wall_clock_s"}
    return json.dumps(obj, sort_keys=True, indent=2)
