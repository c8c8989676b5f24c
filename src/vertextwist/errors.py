"""Engine exceptions."""


class InfiniteConvolution(ArithmeticError):
    """A requested coefficient could not be certified to be a finite sum."""


class MonomialOverflow(ValueError):
    """A lattice exponent or log power outside a packed monomial field."""


class NonMeromorphicVariable(ValueError):
    """Residue taken in a variable carrying fractional exponents or logs."""


class NotNilpotent(ValueError):
    """Operator failed to vanish within the configured nilpotency bound."""


class NonCyclotomicSpectrum(ValueError):
    """Automorphism eigenvalue is not a supported root of unity."""


class NotIsometry(ValueError):
    """Generator map does not preserve the bilinear form."""


class ExtensionInconsistent(ArithmeticError):
    """Recursive twisted-mode extension produced conflicting coefficients."""


class LogBoundExceeded(ArithmeticError):
    """A series exceeded its declared log-power bound."""


class DegenerateForm(UserWarning):
    """Gram matrix is singular; conformal structure unavailable."""
