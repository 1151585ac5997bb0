"""Exception types shared across the package."""


class HierGameError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(HierGameError):
    """A graph file or dict could not be parsed into a valid hierarchy."""


class GameFormatError(HierGameError):
    """A game file or dict could not be parsed into a normal-form game."""


class CyclicGraphError(HierGameError):
    """An operation that needs an acyclic hierarchy was given a cyclic one."""


class EnumerationCapError(HierGameError):
    """An exact sum would need a table larger than the configured cap
    allows (the cap bounds log2 of its entries)."""


class MultiEdgeError(HierGameError):
    """Two directed edges share an unordered vertex pair, so no single
    coupling can represent them."""


class DegenerateInfluenceError(HierGameError):
    """Commands do not move the executive at all, so payoff shares are
    undefined (the normalizing influence span is numerically zero)."""
