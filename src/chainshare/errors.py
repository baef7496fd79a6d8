"""Exception types raised by the allocation and weighting engines.

Every error is a :class:`ChainshareError`. Those that reject an argument
also subclass ``ValueError`` or ``TypeError``, so a caller that catches the
built-in catches them too.
"""


class ChainshareError(Exception):
    """Base class for every domain failure raised by this package."""


class IncompleteGameError(ChainshareError):
    """A characteristic function is missing the value of some coalition, named
    by its players, or by their bit positions ("#1") in a bare ValueTable."""

    def __init__(self, coalition: tuple[str, ...]):
        self.coalition = tuple(coalition)
        super().__init__(
            "characteristic function has no value for coalition "
            "{" + ", ".join(self.coalition) + "}"
        )


class EnumerationBoundError(ChainshareError):
    """Too many players for exact 2**n enumeration."""

    def __init__(self, n: int, bound: int):
        self.n = n
        self.bound = bound
        super().__init__(
            f"{n} players exceed the exact enumeration bound of {bound}; "
            "use chainshare.sampling.sample_shapley with a value oracle instead"
        )


class IdentifierError(ChainshareError, ValueError):
    """A player, label or coalition key is empty, not a string, repeated or unknown."""


class NumberError(ChainshareError, ValueError):
    """A number cannot be read exactly, or lies outside the range its place allows."""


class ChoiceError(ChainshareError, ValueError):
    """A named option (mode, method, format, bundled scenario) is none of its choices."""


class InputTypeError(ChainshareError, TypeError):
    """An argument has a type the function does not take."""


class AlignmentError(ChainshareError, ValueError):
    """Two inputs that must share a player or label set do not."""


class FactorSumError(ChainshareError):
    """Raw adjustment factors do not sum to 1 within tolerance, or cannot be normalized."""

    def __init__(self, total, tolerance,
                 remedy='rescale with --normalize, "normalize_factors": true in the scenario, or normalize=True'):
        from .rational import format_fixed  # rational raises the errors defined here

        self.total = total
        self.tolerance = tolerance
        super().__init__(
            f"adjustment factors sum to {format_fixed(total, 6)}, outside "
            f"1 +/- {float(tolerance)}; {remedy}"
        )


class MatrixValidationError(ChainshareError, ValueError):
    """A pairwise comparison matrix violates its structural invariants."""


class IterationLimitError(ChainshareError):
    """Power iteration failed to converge within the iteration cap."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(last max-norm step {residual:.3e})"
        )


class ConsistencyGateError(ChainshareError):
    """A comparison matrix failed the consistency-ratio gate."""

    def __init__(self, name: str, ratio: float):
        from .ahp import CR_THRESHOLD  # ahp raises the errors defined here

        self.name = name
        self.ratio = ratio
        super().__init__(
            f"consistency gate failed for {name!r}: CR = {ratio:.4f} "
            f"(threshold {CR_THRESHOLD})"
        )


class SamplingPlanError(ChainshareError, ValueError):
    """A sampling plan has an invalid permutation count, seed, chunk size or worker count."""


class FloatRangeError(ChainshareError):
    """A result reported as a float lies beyond the float range."""

    BEYOND = "beyond the float range (about 1.8e308)"  # the wording of every message that names the range

    def __init__(self, what: str):
        super().__init__(f"{what} lies {self.BEYOND}")


class OracleError(ChainshareError):
    """The user-supplied coalition value oracle raised during sampling.

    ``permutation_index`` is the first permutation of the sampled stream
    that needs the failing coalition (as a prefix of one of its steps, or
    as the grand coalition).
    """

    def __init__(self, permutation_index: int, cause: BaseException):
        self.permutation_index = permutation_index
        super().__init__(
            f"value oracle failed while evaluating permutation "
            f"{permutation_index}: {cause!r}"
        )


class ScenarioError(ChainshareError):
    """A scenario document is malformed; ``locus`` names the offending spot."""

    def __init__(self, message: str, locus: str = ""):
        self.locus = locus
        super().__init__(f"{locus}: {message}" if locus else message)
