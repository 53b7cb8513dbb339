"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input violates a structural contract (shape, hermiticity, domain)."""


class UnsupportedConfigError(ValueError):
    """Requested configuration is outside the supported envelope."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not cut, integrate or converge on a row.

    Raised inside momentum_quadrature, the error names its row: `nodes`,
    `order` and `level` are the failing row, the divided-difference order
    and the per-axis order being tried. `change` is the last change
    between levels when the ladder runs out, and None for a kink or
    grading cut that lost volume (at the first level, where the pieces are
    cut). Raised by the simplex geometry on its own, a cut that lost
    volume names its row by `row`, its index in the stack given to
    simplex.split_by_kink, and simplex.join_rule refuses a face the kernel
    is not integrable against; the other fields are None.
    """

    def __init__(self, message, nodes=None, order=None, level=None, change=None, row=None):
        super().__init__(message)
        self.nodes = nodes
        self.order = order
        self.level = level
        self.change = change
        self.row = row


class EigenSolverError(RuntimeError):
    """Eigendecomposition failed or left residuals above tolerance.

    `index` is the position of the failing matrix in the decomposed stack
    (0 for a single matrix).
    """

    def __init__(self, message, residual=None, index=None):
        super().__init__(message)
        self.residual = residual
        self.index = index
