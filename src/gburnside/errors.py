"""Exception hierarchy.

Every validation failure names the offending object, morphism, or table
entry so that a rejected input can be repaired (or a corrupted-mutant test
can assert the exact failure).
"""


class GBError(Exception):
    """Base class for all structural errors raised by this package."""


# -- groupoid validation -------------------------------------------------

class EmptyObjectSet(GBError):
    """The empty groupoid is not admitted."""


class DomCodMismatch(GBError):
    """A composition entry is missing, spurious, or has wrong dom/cod."""


class MissingIdentity(GBError):
    """identity(x) is absent or fails the unit laws at x."""


class MissingInverse(GBError):
    """inverse(g) is absent or g * inverse(g) is not an identity."""


class NonAssociative(GBError):
    """A composable triple violates associativity."""


class NotAGroup(GBError):
    """A multiplication table is not a group table."""


class UnknownObject(GBError):
    """An object id outside 0..n-1 was referenced."""


class NotConnected(GBError):
    """Operation requires a connected groupoid."""


# -- functor data ---------------------------------------------------------

class BaseMismatch(GBError):
    """Two functor-valued objects live over different base groupoids."""


class NotNatural(GBError):
    """A naturality square fails; carries the failing morphism/element."""


class AllFibersEmpty(GBError):
    """Transitivity is undefined for the empty G-set."""


# -- crossed sets / classification ----------------------------------------

class WeightMismatch(GBError):
    """Two crossed sets are labeled in different G-monoids."""


class WeightNotConjugation(GBError):
    """Braiding is only constructed over the conjugation G-monoid."""


class UnmatchedPiece(GBError):
    """A transitive piece matched no catalog entry (catalog incomplete)."""


class MarksNotTriangular(GBError):
    """A catalog's table of marks is not upper-triangular with a positive
    diagonal (entries out of order by subgroup size, or isomorphic)."""


# -- rings -----------------------------------------------------------------

class RingMismatch(GBError):
    """Arithmetic between elements of different ring presentations."""
