"""Exception taxonomy shared by all modules.

The split mirrors how callers are expected to react: DomainError means the
request itself was malformed, TruncationError / ConvergenceError mean a
tolerance could not be certified, and the two *Signal classes are controlled
reports of genuinely singular behaviour (finite-time blow-up, pole hits)
rather than bugs.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class TruncationError(RuntimeError):
    """A series truncation cannot certify the requested tail tolerance."""


class ConvergenceError(RuntimeError):
    """An iterative or refinement procedure failed to converge to tolerance."""


class BlowupSignal(RuntimeError):
    """Controlled divergence report from a time stepper (overflow / NaN)."""


class PoleSignal(RuntimeError):
    """Evaluation or integration requested too close to a pole."""


class DegenerateFieldError(RuntimeError):
    """A vector field violates the nondegeneracy a construction requires.

    ``subsets`` lists the offending index sets (real parts of residue sums
    vanishing) when the caller wants to inspect them.
    """

    def __init__(self, message, subsets=()):
        super().__init__(message)
        self.subsets = list(subsets)
