"""Divided differences: one Hermite table, with quadrature for near-ties.

The k-th divided difference f^[k] of sorted nodes x_0 <= ... <= x_k is
read off the divided-difference table. Each level L replaces adjacent
entries by their difference quotient over x_{i+L} - x_i or, where those
nodes coincide (and so, being sorted, all nodes between them), by the
confluent (Hermite) value f^(L)(x_i) / L!. Distinct and exactly repeated
nodes therefore both take the table.

When distinct nodes come close, the quotients lose digits to
cancellation. Such near-ties are evaluated through the integral
representation

    f^[k](x_0..x_k) = integral over S_k of f^(k)(sum_j s_j x_j),

computed by simplex quadrature of f^(k) (momentum_quadrature of the
model). A row without exact ties goes there when an adjacent gap is
small; a row with one when the table's rounding-error bound is large
(_routed_table). That bound is computed only for a stack holding an
exact tie.

Every entry point takes one node set or a stack of rows (R, k+1), which
may be the transpose of a (k+1, R) column stack. The rows are sorted,
stably, into the columns of one (k+1, R) array (util.sorted_columns),
making the result bit-for-bit symmetric under argument permutations. The
rows of a stack are evaluated together, and the near-tie rows of a call go
to quadrature as one stack, each row keeping the bits of its own one-row
call: rows with the same bytes once sorted take one quadrature row.
Quadrature stops at order ORDER_CAP, so a near-tie row of a higher order is
refused.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedConfigError, ValidationError
from .functions import ScalarFunctionModel, _divided_order, as_kernel
from .momenta import ORDER_CAP, momentum_quadrature
from .util import QUAD_TOL, argument_rows, check_within, numeric_array, sorted_columns

# Adjacent-gap threshold, relative to the node spread, below which a row
# without exact ties leaves the table for the integral representation.
CONFLUENCE_FACTOR = 1e-6
# Relative rounding error charged to each kernel value and to each step
# of the table when bounding the table's error.
ROUNDING = 2.0 * np.finfo(float).eps
# Absolute error charged alongside it: a kernel value or a quotient that
# underflows loses everything below the smallest subnormal.
UNDERFLOW = np.finfo(float).smallest_subnormal
# A row with an exact tie keeps the table while that bound stays within
# TIE_TABLE_RTOL of its value plus TIE_TABLE_ATOL.
TIE_TABLE_RTOL = 1e-11
TIE_TABLE_ATOL = 1e-15


def _prepare(model, nodes):
    """(model, node sets sorted as the columns of a (k+1, R) array, k, batched)."""
    model = as_kernel(model)
    x = numeric_array(nodes, float, "nodes")
    batched = x.ndim == 2
    if x.size < 1:
        raise ValidationError("divided difference needs at least one node")
    cols = sorted_columns(x if batched else x.reshape(1, -1))
    k = _divided_order(model, cols.shape[0] - 1, 0)
    check_within(cols, model.domain, "nodes")
    return model, cols, k, batched


def _table(model, cols, tied):
    """f^[k] of each node set by the Hermite table and, when `tied`, a
    first-order bound on the rounding error of each value (else None).

    cols (k+1, R) holds R sorted node sets as columns, so that every step
    runs along contiguous rows of length R. Confluent values are needed
    only where nodes coincide: with `tied` unset, no set of the stack holds
    an exact tie and the table takes its difference quotients alone.
    """
    vals = np.asarray(model.eval(cols), dtype=float)
    err = ROUNDING * np.abs(vals) + UNDERFLOW if tied else None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for level in range(1, cols.shape[0]):
            lo, hi = cols[:-level], cols[level:]
            step = hi - lo
            vals = (vals[1:] - vals[:-1]) / step
            if tied:
                err = (err[1:] + err[:-1]) / step + ROUNDING * np.abs(vals) + UNDERFLOW
                tie = hi == lo
                if tie.any():
                    vals[tie] = model.derivative_model(level).eval(lo[tie]) / math.factorial(level)
                    err[tie] = ROUNDING * np.abs(vals[tie]) + UNDERFLOW
    return vals[0], (err[0] if tied else None)


def _routed_table(model, cols):
    """(values, near): f^[k] of the node sets, the columns of cols (k+1, R),
    by the table, and which sets go to quadrature instead.

    A set without exact ties goes when an adjacent gap falls below
    CONFLUENCE_FACTOR times (1 + spread). A set with an exact tie goes when
    the table's error bound exceeds TIE_TABLE_RTOL of its value plus
    TIE_TABLE_ATOL; that bound is computed only for a stack holding a tie.
    """
    values, error = _table(model, cols, bool((cols[1:] == cols[:-1]).any()))
    if cols.shape[0] == 1:  # k = 0: the value is the table's
        return values, np.zeros(values.shape, dtype=bool)
    gaps = cols[1:] - cols[:-1]
    near = gaps.min(axis=0) < CONFLUENCE_FACTOR * (1.0 + (cols[-1] - cols[0]))
    if error is not None:
        ties = (gaps == 0.0).any(axis=0)
        inexact = ~(error <= TIE_TABLE_RTOL * np.abs(values) + TIE_TABLE_ATOL)
        near = np.where(ties, inexact, near)
    return values, near


def divided_difference(model, nodes, quad_tol=QUAD_TOL):
    """f^[k] at k+1 nodes (any multiset inside the model domain).

    `nodes` is one node set, giving a float, or a stack of rows of shape
    (R, k+1), giving an array of R values; a (k+1, R) column stack may be
    passed as its transpose, which the sort reads column by column. The
    near-tie rows are evaluated by one quadrature call on the stack of their
    distinct bit patterns; past quadrature's ORDER_CAP a near-tie row raises
    UnsupportedConfigError naming it.
    """
    model, cols, k, batched = _prepare(model, nodes)
    values, near = _routed_table(model, cols)
    if near.any():
        if k > ORDER_CAP:
            row = cols[:, np.argmax(near)].tolist()
            raise UnsupportedConfigError(
                f"order-{k} divided difference at nodes {row}: its nodes are too close "
                f"for the table, and quadrature takes orders 1..{ORDER_CAP}"
            )
        # One quadrature row per sorted row's bytes: a shared base repeats rows.
        rows = np.ascontiguousarray(cols[:, near].T)
        keys = rows.view(np.dtype((np.void, rows.itemsize * (k + 1)))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        values[near] = momentum_quadrature(model, rows[first], tol=quad_tol)[inverse]
    return values if batched else float(values[0])


@dataclass(frozen=True)
class DividedDifference:
    """Symbol descriptor: order-k divided difference of a scalar model."""

    model: ScalarFunctionModel
    order: int

    def __post_init__(self):
        object.__setattr__(self, "order", _divided_order(as_kernel(self.model), self.order, 0))

    def __call__(self, values, quad_tol=QUAD_TOL):
        """Value at one argument tuple, or at each row of a stack (R, order+1)."""
        values = argument_rows(values, self.order + 1)
        return divided_difference(self.model, values, quad_tol=quad_tol)
