"""Exception classes shared across the lab."""


class MVLabError(Exception):
    """Base class for all lab errors."""


class ConfigError(MVLabError):
    """Malformed run configuration; message carries the offending key."""


# grid construction
class ResolutionTooCoarse(MVLabError):
    pass


class MetricNotPositiveDefinite(MVLabError):
    pass


class CenterBelowBoundary(MVLabError):
    pass


class CenterOffGrid(MVLabError):
    pass


class GridTooLarge(MVLabError):
    """The grid box would not fit in memory; raised before it is allocated."""


# calculus
class DomainHasNoFlatBoundary(MVLabError):
    pass


class DomainNotHalfBall(MVLabError):
    pass


class SubregionOutsideDomain(MVLabError):
    pass


class ShellExitsDomain(MVLabError):
    pass


class RadiusBelowResolution(MVLabError):
    pass


# constants
class BothNonlinearitiesZero(MVLabError):
    pass


class BothLinearTermsZero(MVLabError):
    pass


class RadiusOutOfRange(MVLabError):
    pass


# heinz
class EmptyBall(MVLabError):
    pass


# verify
class AllNodesBelowFloor(MVLabError):
    pass


class EmptyFamily(MVLabError):
    pass


# quantization
class QuantizationViolated(MVLabError):
    """A dichotomy step forced concentration but the measured ball energy
    stayed at or below the energy quantum: the inputs are inconsistent with
    their declared bounds, or the grid cannot resolve the concentration."""


# synth
class SpecOutOfDomain(MVLabError):
    pass


class UnresolvableScale(MVLabError):
    pass
