"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input violates a structural contract (shape, hermiticity, domain)."""


class UnsupportedConfigError(ValueError):
    """Requested configuration is outside the supported envelope."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


class EigenSolverError(RuntimeError):
    """Eigendecomposition failed or left residuals above tolerance.

    `index` is the position of the failing matrix in the decomposed stack
    (0 for a single matrix).
    """

    def __init__(self, message, residual=None, index=None):
        super().__init__(message)
        self.residual = residual
        self.index = index
