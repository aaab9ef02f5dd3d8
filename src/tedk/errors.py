"""Exception types shared across the package."""


class ParseError(ValueError):
    """Input text or character stream is not a valid labeled forest."""


class UnbalancedError(ParseError):
    """Parenthesis nesting is inconsistent (depth mismatch or trailing input)."""


class LabelMismatchError(ParseError):
    """A closing parenthesis carries a different label than its opening partner."""


class MalformedAlignmentError(ValueError):
    """An alignment violates the unit-step rule or its endpoint constraints."""


class NoAlignmentError(ValueError):
    """No alignment exists within the requested cost and width budget."""


class CrossingMatchingError(ValueError):
    """A node-pair set is not a non-crossing matching of the two forests."""


class ContractError(RuntimeError):
    """An internal size or height bound of the pipeline does not hold."""
