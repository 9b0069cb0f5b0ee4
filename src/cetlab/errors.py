"""Exception hierarchy with stable, machine-readable error codes.

Every failure mode the library can report carries a short kebab-case
``code`` that also appears in CLI JSON error output.  Validation errors
map to CLI exit status 2, numerical failures to exit status 3.
"""


class CetlabError(Exception):
    code = "cetlab-error"

    def __init__(self, message: str = "", **detail):
        super().__init__(message or self.code)
        self.detail = detail


class ValidationError(CetlabError):
    """Bad inputs or violated preconditions (CLI exit 2)."""

    code = "validation-error"


class NumericalError(CetlabError):
    """Computation started but could not finish honestly (CLI exit 3)."""

    code = "numerical-error"


class QuadratureBudgetError(NumericalError):
    code = "quadrature-budget-exceeded"


class QuadratureConstructionError(NumericalError):
    code = "quadrature-construction-failed"


class ModeStepUnstableError(ValidationError):
    code = "mode-step-unstable"


class CommutatorInputError(ValidationError):
    code = "commutator-input-not-smooth"


class PrincipalValueError(ValidationError):
    code = "principal-value-not-supported"


class RootBracketError(NumericalError):
    code = "root-bracket-failed"


class OscillatoryBudgetError(NumericalError):
    code = "oscillatory-quadrature-budget"


class S5RequiredError(ValidationError):
    code = "S5-required"


class PaddingViolatedError(ValidationError):
    code = "padding-violated"


class StiffnessGuardError(ValidationError):
    code = "stiffness-guard-violated"


class BlowUpError(NumericalError):
    code = "blow-up-detected"


class MemoryBelowNoiseError(NumericalError):
    code = "memory-below-noise"


class SnapshotUnavailableError(ValidationError):
    code = "snapshot-unavailable"


class InsufficientSamplesError(ValidationError):
    code = "insufficient-samples"


class ZeroFrequencyError(ValidationError):
    code = "zero-frequency"

