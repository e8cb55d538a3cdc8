"""Exception types shared across the package.

The CLI maps these onto exit statuses: structural/usage errors exit 2,
capacity errors exit 3; any other exception is an internal error and exits 4.
"""

import math


class StructuralError(ValueError):
    """Malformed or mismatched inputs (dimension, modulus, unknown ids)."""


class SingularMatrixError(StructuralError):
    """Matrix is not invertible over Z_m; carries the offending determinant."""

    def __init__(self, det, m):
        self.det = det
        self.m = m
        super().__init__(f"matrix not invertible: det = {det} is not a unit mod {m}")


class PreconditionError(StructuralError):
    """An operation's documented precondition does not hold."""


class UnsupportedTwistError(PreconditionError):
    """Character twist requested on a group without -I."""


class IntegrityError(RuntimeError):
    """A supposed automorphism or action stepped outside the group."""


class CapacityError(RuntimeError):
    """Group closure exceeded the element cap; found is progress so far, or None if uncounted."""

    def __init__(self, cap, found):
        self.cap = cap
        self.found = found
        shown = "too many to count" if found is None else f"{_count(found)} found"
        super().__init__(f"closure exceeded cap of {cap} elements ({shown})")


def _count(k: int) -> str:
    """k in full below 10**15, else about d.dde+N (str() of a long int raises)."""
    if k < 10**15:
        return str(k)
    e = int(math.log10(k))  # a float: corrected where k is near a power of ten
    e += (k >= 10 ** (e + 1)) - (k < 10**e)
    return f"about {k // 10 ** (e - 2) / 100:.2f}e+{e}"
