"""Exception types shared across the library."""


class FrwaveError(Exception):
    """Base class for all library errors."""


class DegenerateAngle(FrwaveError):
    """Operation requires a regular angle (alpha not a multiple of pi)."""


class GridCoverage(FrwaveError):
    """A grid does not cover the effective support of a signal."""


class TailTooFat(FrwaveError):
    """Truncated periodization tail exceeds the requested tolerance."""


class NotRealProfile(FrwaveError):
    """A profile expected to be real-valued has a significant imaginary part."""


class RieszLowerBoundZero(FrwaveError):
    """Periodization lower bound is too close to zero to divide by."""


class SupportTooSmall(FrwaveError):
    """Filter taps at the edge of the requested support are not negligible."""


class NonConvergent(FrwaveError):
    """Cascade iteration failed to contract."""


class EmptyBattery(FrwaveError):
    """A battery of test signals is empty."""


class InputError(FrwaveError):
    """Malformed input file or configuration."""
