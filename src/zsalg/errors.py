"""Exception types shared across the toolkit."""


class ZsalgError(Exception):
    """Base class for toolkit errors."""


class MalformedSquaresError(ZsalgError):
    """A malformed k-graph presentation: an entry of the wrong JSON shape, an
    edge off the declared colors or vertices, or a square table that is not
    a bijection of matching squares."""


class MalformedTableError(ZsalgError):
    """A groupoid or category table is structurally broken, or a workspace
    groupoid or action section is malformed."""


class DegreeMismatchError(ZsalgError):
    """Requested factorization degrees do not sum to the path degree."""


class UndefinedGeneratorError(ZsalgError):
    """An action table lookup hit a generator pair with no entry."""


class NotApplicableError(ZsalgError):
    """Operation precondition not met (e.g. tail category is not a groupoid)."""


class UnknownUnitError(ZsalgError):
    """Requested unit is not in the groupoid."""


class NotIndependentError(ZsalgError):
    """A set required to be independent is not."""


class CombinatorialBlowupError(ZsalgError):
    """Enumeration exceeded the configured budget."""


class NotDegreeAdditiveError(ZsalgError):
    """Rotation cocycles need additive path-part degrees."""


class BadGeneratorError(ZsalgError):
    """Homotopy generator fails the additive cocycle identity; ``report`` is
    the failing check, with its witness."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BadActionError(ZsalgError):
    """An action table entry breaks an endpoint law; ``report`` is the
    failing ``matched_pair`` check, with its witness."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class WindowExceededError(ZsalgError):
    """A needed enumeration exceeds the configured degree window."""


class NoSourcesRequiredError(ZsalgError):
    """Level raising needs a row-finite graph with no sources on the window."""


class OffGridError(ZsalgError):
    """Fiber evaluation requested at a point not on the sample grid."""


class NotInModuleFormError(ZsalgError):
    """Correspondence input is not a sum of edge-times-subalgebra terms."""


class InfiniteBasisError(ZsalgError):
    """Truncated representation needs finite vertex and groupoid data."""


class NotAPathError(ZsalgError):
    """An edge list that is empty, has an unknown edge or has adjacent edges
    that do not meet, or a vertex path at a vertex the graph does not have."""
