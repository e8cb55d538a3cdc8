"""Exact arithmetic for square matrices over Z_m.

Matrices are stored as immutable int64 arrays with entries normalized to
[0, m).  The symplectic pairing uses the interleaved basis convention:
coordinates come in pairs (2k-1, 2k), so the reference form J is block
diagonal with 2x2 blocks [[0, 1], [-1, 0]].

Composite moduli are supported throughout: determinants are computed by
fraction-free (Bareiss) elimination over the integers and reduced mod m,
and inverses go through the adjugate, so no division by a non-unit ever
happens.

Floats appear only where they are exact: matmul_mod multiplies one stack
by fixed matrices as a float64 GEMM where d^2 m^2 <= 2^52, in blocks of
at most GEMM_MACS multiply-adds, and every other product in integers.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import SingularMatrixError, StructuralError


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    i = 2
    while i * i <= m:
        if m % i == 0:
            return False
        i += 1
    return True


def check_int64(dim: int, m: int):
    """Raises StructuralError unless dim x dim products over Z_m are exact in
    int64; checked before anything reduces by m or tests it for primality."""
    if dim * (m - 1) ** 2 >= 2**63:
        raise StructuralError(
            f"modulus {m} too large for exact int64 products in dimension {dim}")


# (dtype, largest value), narrowest first; built once, as every matmul_mod call reads it
PRODUCT_DTYPES = tuple((np.dtype(t), np.iinfo(t).max)
                       for t in (np.uint8, np.uint16, np.int32, np.int64))
GEMM_MACS = 1 << 18  # multiply-adds per float64 GEMM block in matmul_mod: OpenBLAS's one-thread size


def product_dtype(dim: int, m: int) -> np.dtype:
    """uint8, uint16, int32 or int64: the first to hold dim * (m - 1)^2, so
    that dim x dim products over Z_m are exact in it.  uint8 @ uint8 wraps
    silently: matmul_mod casts through this."""
    check_int64(dim, m)
    top = dim * (m - 1) ** 2
    return next(dt for dt, most in PRODUCT_DTYPES if top <= most)


def _gemm_stack(m: int, factors):
    """The position of the one (n, d, d) stack among (d, d) factors where
    matmul_mod's GEMM is exact and one row fits a block, else None."""
    d = factors[0].shape[-1]
    if len(factors) < 2 or d**4 > GEMM_MACS or d * d * m * m > 2**52:
        return None
    stacks = [i for i, f in enumerate(factors) if f.shape != (d, d)]
    if len(stacks) != 1 or factors[stacks[0]].shape[1:] != (d, d):
        return None
    return stacks[0]


def matmul_mod(m: int, *factors) -> np.ndarray:
    """The product of broadcastable (..., d, d) arrays with entries in [0, m),
    reduced mod m, in product_dtype(d, m): the one matmul over Z_m.

    One (n, d, d) stack X between single (d, d) matrices, L before it and R
    after it (products of their sides, or I), is linear in X's d^2 entries:
    one (n, d^2) x (d^2, d^2) GEMM by K[(a, b), (i, j)] = L[i, a] R[b, j]
    mod m.  Where d^2 m^2 <= 2^52 it runs in float64, which has a BLAS path,
    as FFLAS computes over Z_p (Dumas, Giorgi and Pernet, ACM TOMS 35(3),
    2008): each sum P is an exact integer below 2^52, and so is floor(P / m)
    (rounding moves P / m by under 1/m), so P - m floor(P / m) is P mod m.
    Blocks of GEMM_MACS // d^4 rows stay on OpenBLAS's calling thread.
    Every other product is integer np.matmul in product_dtype(d, m), exact
    there, reduced after each factor."""
    dt = product_dtype(factors[0].shape[-1], m)
    if (s := _gemm_stack(m, factors)) is not None:
        return _gemm(m, factors[:s], factors[s], factors[s + 1:], dt)
    out = factors[0].astype(dt, copy=False)
    for f in factors[1:]:
        out = np.matmul(out, f.astype(dt, copy=False)) % m
    return out


def _gemm(m, before, stack, after, dt) -> np.ndarray:
    """(before) stack (after) mod m by matmul_mod's float64 GEMM, in dt."""
    n, d, _ = stack.shape
    ident = np.eye(d, dtype=np.int64)
    left, right = (matmul_mod(m, ident, *side).astype(np.int64) for side in (before, after))
    k = (np.einsum("ia,bj->abij", left, right) % m).reshape(d * d, d * d).astype(np.float64)
    out = np.empty((n, d, d), dtype=dt)
    rows = GEMM_MACS // d**4
    for lo in range(0, n, rows):
        p = stack[lo:lo + rows].reshape(-1, d * d).astype(np.float64) @ k
        q = p / m
        np.floor(q, out=q)
        q *= m
        p -= q
        out[lo:lo + rows] = p.reshape(-1, d, d)
    return out


class ModMatrix:
    """Square matrix over Z_m, m >= 2, of even dimension >= 2, immutable once built."""

    __slots__ = ("entries", "m")

    def __init__(self, entries, m):
        m = int(m)
        if m < 2:  # before anything reduces by m
            raise StructuralError(f"modulus must be >= 2, got {m}")
        a = np.array(entries, dtype=np.int64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise StructuralError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] % 2 != 0 or a.shape[0] == 0:
            raise StructuralError(f"dimension must be even and >= 2, got {a.shape[0]}")
        check_int64(a.shape[0], m)
        a = np.ascontiguousarray(a % m)
        a.setflags(write=False)
        self.entries = a
        self.m = m

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, dim, m):
        return cls(np.eye(dim, dtype=np.int64), m)

    def __eq__(self, other):
        if not isinstance(other, ModMatrix):
            return NotImplemented
        return self.m == other.m and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash(canonical_key(self))

    def __matmul__(self, other):
        if (self.dim, self.m) != (other.dim, other.m):
            raise StructuralError(f"dimension or modulus mismatch: {self.dim} mod {self.m} "
                                  f"vs {other.dim} mod {other.m}")
        return ModMatrix(matmul_mod(self.m, self.entries, other.entries), self.m)

    def __repr__(self):
        rows = ", ".join("[" + " ".join(str(x) for x in r) + "]" for r in self.entries)
        return f"ModMatrix({rows} mod {self.m})"


def _int_det(mat) -> int:
    """Exact determinant of a square list-of-lists integer matrix, which it
    overwrites.

    Bareiss fraction-free elimination: every division is exact, so no
    pivot needs to be a unit and the result is reduced by the caller.
    """
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, n):
                if mat[r][k] != 0:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def det(a: ModMatrix) -> int:
    """Determinant of a, as a residue in [0, m); exact over the integers first."""
    return _int_det(a.entries.tolist()) % a.m


def mat_inverse(a: ModMatrix) -> ModMatrix:
    """Inverse over Z_m via the adjugate; raises SingularMatrixError if det is no unit."""
    d = det(a)
    try:
        dinv = pow(d, -1, a.m)
    except ValueError:
        raise SingularMatrixError(d, a.m) from None
    n = a.dim
    rows = a.entries.tolist()
    adj = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            # adjugate = transposed cofactors: drop row j and column i
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
            c = _int_det(minor)
            if (i + j) % 2:
                c = -c
            adj[i, j] = (c * dinv) % a.m
    return ModMatrix(adj, a.m)


def symplectic_form(n: int) -> np.ndarray:
    """J for the interleaved-pairs basis: block diag of [[0, 1], [-1, 0]]."""
    J = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for k in range(n):
        J[2 * k, 2 * k + 1] = 1
        J[2 * k + 1, 2 * k] = -1
    return J


def sign_pattern(d: int) -> np.ndarray:
    """The int8 signs (-1)^(i+j); entrywise, conjugation by diag(1, -1, 1, -1, ...)."""
    return np.fromfunction(lambda i, j: 1 - 2 * ((i + j) % 2), (d, d), dtype=np.int8)


def is_symplectic(a, m: int) -> np.ndarray:
    """For each matrix of a (..., d, d) array with entries in [0, m), whether
    it preserves the interleaved symplectic pairing over Z_m, a^T J a = J mod m:
    one bool per matrix.  Both sides are antisymmetric, so this is the column
    pair condition sum_i (a[2i,l] a[2i+1,j] - a[2i,j] a[2i+1,l]) = J[l, j] mod m
    for l < j, exact in int64: |sum| <= (d/2)(m-1)^2 < 2^62 under check_int64."""
    l, j = np.triu_indices(a.shape[-1], 1)
    a = a.astype(np.int64)
    even, odd = a[..., 0::2, :], a[..., 1::2, :]
    form = (even[..., l] * odd[..., j] - even[..., j] * odd[..., l]).sum(axis=-2) % m
    return np.all(form == symplectic_form(a.shape[-1] // 2)[l, j] % m, axis=-1)


def entry_dtype(m: int) -> str:
    """Minimal-width little-endian unsigned dtype holding every residue mod m."""
    if m <= 256:
        return "<u1"
    if m <= 65536:
        return "<u2"
    return "<u4"


def canonical_key(a: ModMatrix) -> bytes:
    """Injective, deterministic byte encoding of a matrix.

    Layout (bit-exact): 4-byte little-endian dim, 4-byte little-endian m,
    then dim^2 entries row-major as minimal-width little-endian unsigned
    integers (1 byte if m <= 256, 2 if m <= 65536, else 4).
    """
    return struct.pack("<II", a.dim, a.m) + a.entries.astype(entry_dtype(a.m)).tobytes()

