"""Exception hierarchy shared by all mecforge modules."""


class MecforgeError(Exception):
    """Base class for all errors raised by this package."""


# --- field arithmetic ---

class ZeroInverse(MecforgeError):
    """Multiplicative inverse of zero was requested."""


class ZeroInput(MecforgeError):
    """Zero passed where a non-zero residue is required (QR test)."""


class NotAdmissible(MecforgeError, ValueError):
    """Operation requires a prime p with p = 2 (mod 3)."""


class NotPrime(MecforgeError):
    """Modulus failed the primality check."""


class NotCanonical(MecforgeError, ValueError):
    """A residue outside [0, p-1] was passed to a field operation."""


# --- curves ---

class BadCoefficient(MecforgeError, ValueError):
    """Curve coefficient b must lie in [1, p-1]."""


class TooLarge(MecforgeError):
    """Exhaustive enumeration guard exceeded."""


# --- complete sets / generators ---

class InvalidCompleteSet(MecforgeError):
    """Candidate set is not an (m, p)-complete set."""


class DuplicateResidue(InvalidCompleteSet):
    """Two elements are congruent modulo m."""


class OutOfRange(InvalidCompleteSet):
    """An element lies outside [0, p-1]."""


class WrongSize(InvalidCompleteSet):
    """Set size does not match the declared m."""


class EmptySet(MecforgeError):
    """Sequence generation requires a non-empty input set."""


class BadModulus(MecforgeError):
    """Modulus m out of range: 1 <= m <= |A| for a sequence, 1 <= m <= p for a count."""


class BadShift(MecforgeError, ValueError):
    """Cyclic shift k must satisfy 0 <= k <= m-1."""


class NotPermutation(MecforgeError, ValueError):
    """S-box table is not a permutation of [0, m-1]."""


# --- analysis ---

class NotPowerOfTwo(MecforgeError):
    """Metric requires an S-box whose size is a power of two."""


class SizeMismatch(MecforgeError):
    """Two S-boxes of different sizes were compared."""


class EmptySequence(MecforgeError):
    """Statistic requires a non-empty sequence."""
