"""Small numeric helpers used across modules."""

import json
import numbers

import numpy as np

from .errors import ValidationError

# Trace-valued quantities must be real up to this relative slack.
TRACE_IMAG_TOL = 1e-10


def as_complex_matrix(a):
    """Coerce input to a square complex ndarray."""
    m = np.asarray(getattr(a, "matrix", a), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_complex_matrices(a):
    """A square complex matrix, or a stack (B, n, n) of them."""
    m = np.asarray(getattr(a, "matrix", a), dtype=complex)
    if m.ndim == 3 and m.shape[1] == m.shape[2]:
        return m
    return as_complex_matrix(m)


def adjoint(a):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def real_trace(a):
    """Trace of `a` asserted real (see real_value).

    A stack (B, n, n) gives the array of its B traces.
    """
    return real_value(np.trace(as_complex_matrices(a), axis1=-2, axis2=-1))


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
    whole number: 2.7 is not truncated, and NaN is not a number of nodes."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValidationError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def checked_tol(tol):
    """A quadrature tolerance as a float, checked finite and positive where
    it enters (a request, a form, a quadrature call)."""
    tol = float(tol)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"quadrature tol must be finite and positive, got {tol}")
    return tol


def lp_norms(spectra, p):
    """The l^p norm of each row of a stack of spectra (R, n). The final
    power is a Python-float pow per row: the array power differs from it in
    the last bit."""
    return np.array([float(np.sum(np.abs(row) ** p)) ** (1.0 / p) for row in spectra])


def sorted_columns(rows):
    """Each row of a stack (R, m) sorted ascending, as the columns of a new
    (m, R) array.

    An odd-even transposition network of compare-exchanges, each running
    along two whole columns. A pair is exchanged only where its first entry
    is the greater (`a > b`), so entries that compare equal, such as -0.0
    and 0.0, keep their order. The exchange moves bit patterns: the int64
    views trade their difference, which may wrap but is exact. (np.minimum
    and np.maximum turn [-0.0, 0.0] into [0.0, 0.0]; np.where also moves
    bits but takes three times as long on unpredictable masks.)
    """
    cols = np.array(rows.T, dtype=float, order="C")
    bits = cols.view(np.int64)
    m = len(cols)
    for step in range(m):
        for i in range(step % 2, m - 1, 2):
            swap = cols[i] > cols[i + 1]
            if swap.any():
                trade = (bits[i + 1] - bits[i]) * swap
                bits[i] += trade
                bits[i + 1] -= trade
    return cols


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
    """Least-squares slope of log(y) against log(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValidationError("slope fit needs at least two points")
    if not (np.all(np.isfinite(x) & (x > 0)) and np.all(np.isfinite(y) & (y > 0))):
        raise ValidationError("slope fit needs finite positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


VOLATILE_REPORT_KEYS = ("wall_clock_s", "timestamp")


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_volatile(v)
            for k, v in obj.items()
            if k not in VOLATILE_REPORT_KEYS
        }
    if isinstance(obj, (list, tuple)):
        return [_strip_volatile(v) for v in obj]
    return obj


def _json_default(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def canonical_json(obj, drop_volatile=False):
    """Deterministic JSON text: sorted keys, shortest round-trip floats.

    With drop_volatile the run-to-run keys (wall clock, timestamps) are
    removed at every nesting level, which is how reports are compared.
    """
    if drop_volatile:
        obj = _strip_volatile(obj)
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default)
