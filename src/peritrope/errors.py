"""Exceptions shared across the package."""


class PeritropeError(Exception):
    """Base class for all library errors."""


class DisconnectedGraph(PeritropeError):
    """The underlying undirected graph is not connected."""


class NotASpanningTree(PeritropeError):
    """The given arc set is not a spanning tree of the graph."""


class EnumerationCapExceeded(PeritropeError):
    """A command's work ``graphs.Budget`` ran out in ``layer`` after
    ``spent`` units, or an oracle outgrew its grid.  A stopped solve sets
    ``gap``: (least open lower, incumbent objective or None)."""

    layer = spent = gap = None


class InvariantViolation(PeritropeError):
    """An internal consistency check failed; a bug, not a property of the input."""


class InvalidBounds(PeritropeError):
    """An arc violates the bound invariants 0 <= l < T, 0 <= u - l < T."""

    def __init__(self, arc, message):
        super().__init__(f"arc {arc}: {message}")
        self.arc = arc


class InfeasibleFixedCycle(PeritropeError):
    """Contracting fixed arcs produced a loop whose forced tension is inconsistent."""


class EmptyPolytrope(PeritropeError):
    """The operation needs a nonempty polytrope."""


class Infeasible(PeritropeError):
    """No feasible solution exists (for the subproblem at hand).

    ``arcs`` lists the violated arc indices when the infeasibility was
    detected arc by arc; it is empty when the evidence is global.
    ``cycle``, or None, is the oriented negative cycle that proves a polytrope empty.
    """

    cycle = None

    def __init__(self, message="infeasible", arcs=()):
        super().__init__(message)
        self.arcs = tuple(arcs)


class NotATension(PeritropeError):
    """The vector is not a periodic tension of the instance."""


class RetriesExhausted(PeritropeError):
    """The randomized start construction gave up; not a proof of infeasibility."""


class FixedArcPresent(PeritropeError):
    """A zero-span arc (l == u) is present; contract fixed arcs first."""

