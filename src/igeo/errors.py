"""Exception hierarchy shared by all igeo modules."""


class IgeoError(Exception):
    """Base class for all toolkit errors."""


class StencilOutOfDomain(IgeoError):
    """A finite-difference stencil node left the declared domain."""


class NonFinite(IgeoError):
    """A callable returned NaN or +/-inf where a finite value was required."""


class Divergent(IgeoError):
    """Adaptive quadrature failed to converge at the requested tolerance."""


class SingularFrame(IgeoError):
    """Decomposition frame is rank deficient (transversality failure)."""


class SingularMetric(IgeoError):
    """Metric condition number exceeds the configured cap."""


class OutOfDomain(IgeoError):
    """Parameter or sample point outside the declared domain."""


class SchemaError(IgeoError):
    """Configuration document does not match the expected schema."""


class UnknownSymbol(SchemaError):
    """An expression refers to a name or function that is not allowed."""


class DegenerateH(IgeoError):
    """Affine fundamental form is degenerate where nondegeneracy is required.

    May carry ``partial``, what was computed over the whole grid anyway
    (see ``immersion.induced_volume_check``).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NonConvergent(IgeoError):
    """Iterative solver exhausted its iteration budget."""


class OutOfDualDomain(IgeoError):
    """Requested dual coordinates lie outside the image of the gradient map."""


class RankDeficientB(IgeoError):
    """Embedding Jacobian columns are not linearly independent."""


class EmptyFree(IgeoError):
    """Coordinate slice would fix every index."""


class EmptyFixed(IgeoError):
    """Coordinate slice fixes no index."""


class IncompatibleConstants(IgeoError):
    """Slice constants are not compatible with the parameter domain."""


class LeftDomain(IgeoError):
    """Geodesic integration left the parameter domain.

    Carries the exit time and the partial path integrated so far.
    """

    def __init__(self, t_exit, partial_path):
        super().__init__(f"geodesic left the domain at t={t_exit:.6g}")
        self.t_exit = t_exit
        self.partial_path = partial_path
