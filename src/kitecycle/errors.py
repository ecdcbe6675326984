"""Exception types shared across the package, and how a message echoes input.

The CLI maps ``ParseError``/``ValidationError`` to exit code 2 and every
other :class:`KitecycleError` to exit code 3.
"""


def clip(text: str) -> str:
    """``text`` to echo in a message: whole up to 80 characters, else cut there, with its length."""
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


class KitecycleError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(KitecycleError):
    """Input file is malformed or contains unknown keys (strict parse)."""


class ValidationError(KitecycleError):
    """A value violates an invariant; the message names the invariant."""


class SolverError(KitecycleError):
    """Base class for failures of the physical solvers."""


class DomainError(SolverError):
    """An input is outside the model's domain of validity, e.g. an
    altitude below the roughness length where the log wind law is
    undefined."""


class NoTensionError(SolverError):
    """The reeling factor is too large for the tether to carry tension
    (f >= sin(theta)*cos(phi)); the tether cannot push."""


class SteadyStateError(SolverError):
    """No quasi-steady equilibrium: the tangential velocity factor has no
    real non-negative solution, G(kappa) - G* has no admissible root, or
    gravity leaves the force geometry without a real solution."""


class TetherSagError(SolverError):
    """The tether force balance leaves the tether pushing: on the kite,
    where the aerodynamic force does not carry the kite weight radially,
    or on the ground station, where the tension does not carry the radial
    tether weight.  The moderate-sagging model is outside its range."""


class SetpointUnreachableError(SolverError):
    """No admissible reeling factor produces the requested tether force;
    the message names the condition that failed."""


class PhaseError(SolverError):
    """A phase integration failed to terminate (e.g. the tether length
    stopped approaching the phase end condition)."""


class EmptyPhaseError(KitecycleError):
    """A telemetry phase contains no valid samples to average."""
