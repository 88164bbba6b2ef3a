"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for everything raised by this package."""


class GraphFormatError(GraphError):
    """Malformed graph text: bad syntax, duplicate labels, self loops,
    more than one edge between a vertex pair, or an unsupported edge kind.
    Also malformed arguments, such as a negative size, a tolerance that is
    not a finite nonnegative number, or probabilities that are not real
    numbers."""


class PartiallyDirectedCycle(GraphError):
    """The graph contains a semi-directed cycle with at least one directed
    edge, so it is not a chain graph.  ``walk`` holds a witness cycle as a
    vertex sequence whose first and last entries coincide."""

    def __init__(self, walk):
        self.walk = tuple(walk)
        super().__init__(f"partially directed cycle: {'-'.join(map(str, self.walk))}")


class NotADag(GraphError):
    """The graph has bidirected edges or a directed cycle."""


class DisjointnessViolation(GraphError):
    """X, Y, Z overlap, or X or Y is empty; also the two ends of a chain
    asked for between a vertex and itself."""


class ModelFormatError(GraphError):
    """Malformed independence model: JSON without the expected fields or
    types, or a triple naming a vertex outside the ground set.  Also raised
    when two models over different ground sets are compared or joined."""


class UnknownName(GraphError, ValueError):
    """A name outside the accepted ones: an axiom set, a property kind, a
    pairwise variant, a method or a fixture.  It is also a ``ValueError``,
    so callers that catch ``ValueError`` keep working."""


class InvalidSeed(GraphError, ValueError):
    """A seed the random generator does not accept, such as a negative
    integer.  It is also a ``ValueError``, as numpy raises for it."""


class NotAComponent(GraphError, KeyError):
    """A component index or vertex set that names no chain component.  It
    is also a ``KeyError``, so callers that catch ``KeyError`` keep
    working."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr


class CapExceeded(GraphError):
    """The request is larger than the configured enumeration cap."""


class NotAncestrallyClosed(GraphError):
    """The vertex set is not closed under ancestors."""


class HasChildInA(GraphError):
    """The vertex has a child inside the given ancestrally closed set."""


class InconsistentOrder(GraphError):
    """The vertex order places some vertex before one of its ancestors."""


class VerticesAdjacent(GraphError):
    """The two vertices are adjacent, so the query is meaningless."""


class NotAncestral(GraphError):
    """The graph fails the ancestrality condition required by this check."""


class HeadTestFailed(GraphError):
    """A set that is not a head was given to ``tail_of_head``, or a
    partition block failed the head conditions on recheck (a bug)."""
