"""Domain errors. Everything user-facing derives from BlocksetsError so the
CLI can map any domain failure to exit code 2 (bad input) in one place."""


class BlocksetsError(Exception):
    pass


class InternalError(AssertionError):
    """An internal check failed: a structural identity of a construction
    (a count or a divisibility that holds by theorem, a field table) or the
    re-check of a result before it leaves (a witness that must block).  A
    fault in the program, never bad input, so it is deliberately not a
    BlocksetsError; the CLI reports it with exit code 4."""


class NotPrimePower(BlocksetsError):
    """q is not p^e for a prime p, or q is out of the supported range."""


class TooLarge(BlocksetsError):
    """A requested object exceeds a hard construction cap."""


class DivisionByZero(BlocksetsError):
    """Multiplicative inverse of 0 requested."""


class SpaceTooLarge(BlocksetsError):
    """Point enumeration would exceed the enumeration guard."""


class DimensionOutOfRange(BlocksetsError):
    """Flat dimension d outside 0..n."""


class DimensionMismatch(BlocksetsError):
    """Objects built over different spaces or fields were combined."""


class InvalidForm(BlocksetsError):
    """Hyperplane form with all variable coefficients zero."""


class DuplicateForm(BlocksetsError):
    """Arrangement given the same hyperplane twice (after normalization)."""


class CoefficientLoss(BlocksetsError):
    """Lowering a form to fewer variables would drop a nonzero coefficient."""


class NotInUniverse(BlocksetsError):
    """Candidate set contains a point outside the instance universe."""


class NotBlocking(BlocksetsError):
    """Operation requires a blocking set but the given set does not block."""


class UniverseTooLarge(BlocksetsError):
    """Exhaustive enumeration requested for a universe that is too big."""


class IdenticalPoints(BlocksetsError):
    """Escape parameter requested for x == y."""


class SearchTimeout(BlocksetsError):
    """Search exceeded its time budget before reaching a verdict.  Carries
    the search's symmetry record when it computed the group (as
    SearchResult.symmetry), else None, and its work counts so far, as a
    SearchResult does."""

    def __init__(self, message, nodes=0, elapsed=0.0, symmetry=None,
                 closed_children=0, pool_tasks=0):
        super().__init__(message)
        self.nodes = nodes
        self.elapsed = elapsed
        self.symmetry = symmetry
        self.closed_children = closed_children
        self.pool_tasks = pool_tasks
