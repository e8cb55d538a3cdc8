"""Exception types shared across the package.

The CLI maps these onto exit statuses: structural/usage errors exit 2,
capacity errors exit 3; any other exception is an internal error and exits 4.
"""


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
    """Group closure exceeded the element cap; reports progress so far."""

    def __init__(self, cap, found):
        self.cap = cap
        self.found = found
        super().__init__(f"closure exceeded cap of {cap} elements ({found} found)")
