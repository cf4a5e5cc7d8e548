"""Exception hierarchy.

Two branches matter to callers: ``DomainError`` means the input or the
requested configuration is unusable (bad point set, delta too large,
packing impossible), while ``NumericalError`` means the computation itself
degenerated (underflow at a zero, infeasible bracket, unstable recursion).
The command-line front end maps the branches to distinct exit codes.
"""


class DiskInterpError(Exception):
    """Base class for all library errors."""


class DomainError(DiskInterpError):
    """Input or configuration outside the usable domain."""


class NumericalError(DiskInterpError):
    """Computation degenerated beyond working precision."""


class PointSetError(DomainError, ValueError):
    """Point set fails validation (not interior, duplicates, bad schema)."""


class BoundaryGuardError(DomainError):
    """Generated point would violate the interior guard band."""


class PackingFailureError(DomainError):
    """Rejection sampler could not place the requested separated points."""


class EmptyGridError(DomainError):
    """A comparability fit was asked on an empty set of points."""


class ZeroCollisionError(NumericalError):
    """Log-modulus evaluation collided with a zero of the product.

    Raised where some factor's |b| is below about 1e-154, where the
    log-factor kernel's A / D overflows, exact zeros included.
    """


class DegenerateSequenceError(NumericalError):
    """Sequence invariant below working precision (norms would exceed 1e12)."""


class DegenerateFitError(NumericalError):
    """Comparability fit hit a log-modulus indistinguishable from zero."""


class BracketFailureError(NumericalError):
    """Feasibility bracket for the norm search could not be established."""


class RecursionBreakdownError(NumericalError):
    """Interpolant recursion produced a parameter outside the closed disk."""
