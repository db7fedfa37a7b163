"""Exception types shared by every module of the package."""

__all__ = [
    "ColligationError",
    "NotUnitary",
    "NotOrthogonal",
    "BadSplit",
    "AlphaMismatch",
    "ArityMismatch",
    "RetriesExhausted",
    "NearSingular",
    "NearPole",
    "OnEigensurface",
    "DocumentError",
]


class ColligationError(Exception):
    """Base class for all errors raised by this package."""


class NotUnitary(ColligationError):
    """A matrix that must be unitary (within tolerance) is not."""


class NotOrthogonal(ColligationError):
    """A matrix that must be real orthogonal (within tolerance) is not."""


class BadSplit(ColligationError):
    """An exposed/inner split does not fit the matrix dimensions."""


class AlphaMismatch(ColligationError):
    """Two operands do not share the same exposed dimension."""


class ArityMismatch(ColligationError):
    """Two operands do not share the same number of members or slots."""


class RetriesExhausted(ColligationError):
    """A randomized check drew no usable instance within its retry budget."""


class _SingularSystem(ColligationError):
    """Base for errors that carry a smallest-singular-value certificate."""

    def __init__(self, sigma_min: float, message: str):
        super().__init__(f"{message} (sigma_min={sigma_min:.3e})")
        self.sigma_min = float(sigma_min)


class NearSingular(_SingularSystem):
    """A linear system is singular or too close to singular to solve."""


class NearPole(_SingularSystem):
    """A one-variable characteristic function was evaluated at or near a pole."""


class OnEigensurface(_SingularSystem):
    """A matrix argument lies on (or too near) the eigensurface."""


class DocumentError(ColligationError):
    """A JSON document failed to parse or violated a structural invariant.

    ``stage`` is ``"parse"`` for malformed input and ``"invariant"`` for
    well-formed input describing an invalid object.
    """

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage
