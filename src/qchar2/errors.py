"""Exception types shared across the package."""


class QChar2Error(Exception):
    """Base class for all library errors."""


class ZeroInput(QChar2Error, ValueError):
    """An operation that requires a nonzero element received zero."""


class LevelError(QChar2Error, ValueError):
    """A valuation/residue level outside the element's representation."""


class NegativeValuation(QChar2Error, ValueError):
    """Residue requested for an element with a pole at that level."""


class UnsupportedField(QChar2Error, ValueError):
    """Field descriptor outside the supported tower family."""


class ZeroScalar(QChar2Error, ValueError):
    """Scaling a form by zero."""


class ArfNontrivial(QChar2Error):
    """Presentation normalization requires a trivial Arf class."""


class SingularInput(QChar2Error):
    """A nonsingular form was required but a quasilinear part is present."""


class UndecidableInstance(QChar2Error):
    """A decision procedure hit a case it cannot resolve soundly."""


class WildSymbol(QChar2Error):
    """Residue reduction applied to a symbol that is not tame."""


class UndecidableClass(QChar2Error):
    """Symbol-length machinery needs a triviality verdict it cannot get."""


class RefutationCandidate(QChar2Error):
    """A computed instance contradicts a theorem the library relies on;
    the CLI exits with code 3 and the message names the instance."""


class SearchExhausted(QChar2Error):
    """A verified search ran out of budget before finding a witness."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


class DimensionTooSmall(QChar2Error, ValueError):
    """Splitting-slot extraction needs dimension at least 2^n."""


class NotNormalized(QChar2Error, ValueError):
    """An operation requires the normalized presentation shape."""


class HypothesisViolated(QChar2Error, ValueError):
    """Numeric inputs violate a bound's hypothesis."""


class LinkageHypothesisFailed(QChar2Error):
    """A theorem check ran on a field without the linkage evidence it needs."""


class ParseError(QChar2Error, ValueError):
    """Malformed field/element/form/symbol expression."""

    def __init__(self, message, text="", pos=None):
        if pos is not None:
            message = f"{message} (at position {pos} in {text!r})"
        super().__init__(message)
        self.text = text
        self.pos = pos
