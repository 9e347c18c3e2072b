"""Exception types shared across the package."""


class ChanceOptError(Exception):
    """Base class for all errors raised by chanceopt."""


class DimensionError(ChanceOptError):
    """Mismatched variable counts or vector lengths."""


class OrderError(ChanceOptError):
    """A moment order / relaxation order is too small for the request."""


class ModelError(ChanceOptError):
    """The problem statement itself is invalid (unbounded box, bad set, ...).

    ``field`` names the offending entry of the problem when there is one,
    e.g. ``sets[0][1]`` or ``decision_box[0]``, and is ``""`` otherwise.
    """

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class ResourceError(ChanceOptError):
    """A guard against runaway computation fired."""


class NumericalError(ChanceOptError):
    """A numerical routine failed (eigensolver breakdown, non-finite iterates)."""


class ProblemFormatError(ChanceOptError):
    """A problem file failed validation.

    Carries ``json_path``, the location of the offending entry in the
    document, e.g. ``$.sets[0][2].exponents``.
    """

    def __init__(self, message: str, json_path: str = "$"):
        super().__init__(f"{json_path}: {message}")
        self.json_path = json_path
