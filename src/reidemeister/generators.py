"""Standard generating sets for Sp(2n, Z_m) in the interleaved-pairs basis.

For n = 1 these are the two elementary shears generating SL(2, Z_m).
For n > 1: the symplectic transvections along each basis vector (giving
the block SL(2) copies) plus mixing transvections along e_i + e_{i+1}
and f_i + f_{i+1}.  Faithfulness is pinned by the order-formula
cross-check (sp_order), exercised in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .modring import ModMatrix, symplectic_form


def transvection(v, n: int, m: int) -> ModMatrix:
    """Symplectic transvection x -> x + w(x, v) v as a matrix, I + v (Jv)^T."""
    J = symplectic_form(n)
    v = np.asarray(v, dtype=np.int64)
    return ModMatrix(np.eye(2 * n, dtype=np.int64) + np.outer(v, J @ v), m)


def standard_generators(n: int, m: int) -> list[ModMatrix]:
    if n < 1:
        raise PreconditionError(f"half-dimension must be >= 1, got {n}")
    if n == 1:
        return [ModMatrix([[1, 1], [0, 1]], m), ModMatrix([[1, 0], [1, 1]], m)]
    basis = np.eye(2 * n, dtype=np.int64)  # rows e_1, f_1, e_2, f_2, ...
    # each basis vector, then e_i + e_(i+1) and f_i + f_(i+1) in turn
    return [transvection(v, n, m) for v in [*basis, *(basis[:-2] + basis[2:])]]


def sp_order(n: int, m: int) -> int:
    """|Sp(2n, Z_m)| from the classical formula, multiplicative over prime powers.

    For a prime p: p^(n^2) * prod_{i=1..n} (p^(2i) - 1); each extra power
    of p multiplies by p^dim with dim = n(2n+1).
    """
    order = 1
    rest = m
    p = 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            prime_part = p ** (n * n)
            for i in range(1, n + 1):
                prime_part *= p ** (2 * i) - 1
            order *= prime_part * p ** ((e - 1) * n * (2 * n + 1))
        p += 1
    return order
