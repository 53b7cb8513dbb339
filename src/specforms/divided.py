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

a constant-weight momentum computed by simplex quadrature. A row without
exact ties goes there when an adjacent gap is small; a row with one when
the table's rounding-error bound is large (_routed_table). That bound is
computed only for a stack holding an exact tie.

Every entry point takes one node set or a stack of rows (R, k+1), which
may be the transpose of a (k+1, R) column stack. The rows are sorted into
the columns of one (k+1, R) array by a compare-exchange network over
whole columns (util.sorted_columns), making the result bit-for-bit
symmetric under argument permutations. The rows of a stack are evaluated
together, and the distinct near-tie rows of a call go to quadrature as
one stack, each row keeping the bits of its own one-row call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedConfigError, ValidationError
from .functions import ScalarFunctionModel, as_kernel
from .momenta import MomentumSpec, momentum_quadrature
from .util import check_within, map_distinct_rows, sorted_columns, whole_number

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
    x = np.asarray(nodes, dtype=float)
    batched = x.ndim == 2
    if x.size < 1:
        raise ValidationError("divided difference needs at least one node")
    cols = sorted_columns(x if batched else x.reshape(1, -1))
    k = cols.shape[0] - 1
    if k > model.max_order:
        raise UnsupportedConfigError(
            f"order-{k} divided difference needs {k} continuous derivatives, "
            f"model has {model.max_order}"
        )
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
    for level in range(1, cols.shape[0]):
        lo, hi = cols[:-level], cols[level:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = hi - lo
            vals = (vals[1:] - vals[:-1]) / step
            if tied:
                err = (err[1:] + err[:-1]) / step + ROUNDING * np.abs(vals) + UNDERFLOW
        if tied:
            tie = hi == lo
            if tie.any():
                vals[tie] = model.eval(lo[tie], order=level) / math.factorial(level)
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
    gaps = np.diff(cols, axis=0)
    near = gaps.min(axis=0) < CONFLUENCE_FACTOR * (1.0 + (cols[-1] - cols[0]))
    if error is not None:
        ties = (gaps == 0.0).any(axis=0)
        inexact = ~(error <= TIE_TABLE_RTOL * np.abs(values) + TIE_TABLE_ATOL)
        near = np.where(ties, inexact, near)
    return values, near


def divided_difference(model, nodes, quad_tol=1e-9):
    """f^[k] at k+1 nodes (any multiset inside the model domain).

    `nodes` is one node set, giving a float, or a stack of rows of shape
    (R, k+1), giving an array of R values; a (k+1, R) column stack may be
    passed as its transpose, which the sort reads column by column. The
    distinct near-tie rows are evaluated by one quadrature call on their
    stack.
    """
    model, cols, k, batched = _prepare(model, nodes)
    values, near = _routed_table(model, cols)
    if near.any():
        spec = MomentumSpec.from_divided_difference(model, k)
        values[near] = map_distinct_rows(
            lambda rows: momentum_quadrature(spec, rows, tol=quad_tol), cols[:, near].T
        )
    return values if batched else float(values[0])


def divided_difference_via_momentum(model, nodes, tol=1e-9):
    """f^[k] forced through the integral representation (oracle route)."""
    model, cols, k, _ = _prepare(model, nodes)
    if cols.shape[1] != 1:
        raise ValidationError("the oracle route takes one node set")
    if k == 0:
        return float(model.eval(cols[0, 0]))
    spec = MomentumSpec.from_divided_difference(model, k)
    return momentum_quadrature(spec, cols[:, 0], tol=tol)


@dataclass(frozen=True)
class DividedDifference:
    """Symbol descriptor: order-k divided difference of a scalar model."""

    model: ScalarFunctionModel
    order: int

    def __post_init__(self):
        object.__setattr__(self, "order", whole_number(self.order, "divided-difference order"))
        if self.order < 0:
            raise ValidationError("divided-difference order must be >= 0")
        if self.order > self.model.max_order:
            raise UnsupportedConfigError(
                f"order-{self.order} divided difference needs {self.order} "
                f"continuous derivatives, model has {self.model.max_order}"
            )

    def __call__(self, values, quad_tol=1e-9):
        """Value at one argument tuple, or at each row of a stack (R, order+1)."""
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] != self.order + 1:
            raise ValidationError(
                f"symbol takes {self.order + 1} arguments, got {values.shape}"
            )
        return divided_difference(self.model, values, quad_tol=quad_tol)
