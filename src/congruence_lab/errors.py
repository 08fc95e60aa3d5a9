"""Exception hierarchy for congruence-lab.

Input problems (bad documents, bad tables, bad arguments) are distinct from
theory-hypothesis failures so that the CLI can map them to different exit
codes: 1 for falsified internal cross-checks, 2 for input errors, 3 for
hypothesis failures.
"""


class CongruenceLabError(Exception):
    """Base class for all congruence-lab errors."""


class InputError(CongruenceLabError):
    """Base class for errors caused by invalid input data or arguments."""


class MalformedDoc(InputError):
    """Algebra document is syntactically or structurally invalid."""


class TableShape(InputError):
    """An operation table does not have exactly size**arity entries."""


class EntryRange(InputError):
    """An operation table entry is outside the universe 0..size-1."""


class NotACongruence(InputError):
    """A partition fails compatibility with some operation."""


class SignatureMismatch(InputError):
    """Two algebras do not share operation names and arities."""


class NotALattice(InputError):
    """A covering relation does not define a bounded lattice."""


class ParentMismatch(InputError):
    """Congruences of different algebras were combined."""


class NotOrthogonal(InputError):
    """A family of congruences is not pairwise orthogonal."""


class NoCBLP(InputError):
    """An operation requiring a congruence with CBLP was given one without."""


class SizeBudgetExceeded(CongruenceLabError):
    """A configurable size cap was exceeded; raise instead of truncating."""


class TheoryHypothesisFailed(CongruenceLabError):
    """The algebra fails a surrogate hypothesis check required by the theory."""


class HypothesisNotMet(CongruenceLabError):
    """A stated precondition of a theorem-verification operation is not met."""


class Falsified(CongruenceLabError):
    """An internal cross-check between two routes to the same result failed."""
