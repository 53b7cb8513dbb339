"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input violates a structural contract (shape, hermiticity, domain)."""


class UnsupportedConfigError(ValueError):
    """Requested configuration is outside the supported envelope."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance.

    When the ladder runs out, `nodes`, `order`, `level` and `change` are
    the failing row, the momentum order, the last per-axis order tried
    and the last change between levels (None for geometry failures).
    """

    def __init__(self, message, nodes=None, order=None, level=None, change=None):
        super().__init__(message)
        self.nodes = nodes
        self.order = order
        self.level = level
        self.change = change


class EigenSolverError(RuntimeError):
    """Eigendecomposition failed or left residuals above tolerance.

    `index` is the position of the failing matrix in the decomposed stack
    (0 for a single matrix).
    """

    def __init__(self, message, residual=None, index=None):
        super().__init__(message)
        self.residual = residual
        self.index = index
