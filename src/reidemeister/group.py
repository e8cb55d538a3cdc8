"""Finite matrix group enumeration and (twisted) conjugacy class partitions.

Elements are interned: an ElementId is the dense integer position in BFS
discovery order from the identity, which makes every run over the same
generator list reproduce the same ordering, representatives and labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CapacityError, IntegrityError, StructuralError
from .generators import sp_order, standard_generators
from .modring import ModMatrix, check_int64, is_symplectic, mat_inverse

DEFAULT_CAP = 10**7


def random_pairs(n: int, count: int) -> np.ndarray:
    """(2, min(count, n * n)) array of random id pairs (i, j), always seed 0:
    one draw of 8 bytes per id, each read little-endian and reduced mod n."""
    count = min(count, n * n)
    words = np.frombuffer(random.Random(0).randbytes(16 * count), dtype="<u8")
    return (words % n).astype(np.int64).reshape(2, count)


@dataclass
class Partition:
    """Labeling of every group element by conjugacy class.

    class_of holds the orbit labels of kernels.orbits: classes are numbered
    in the order of their least element id.  Representatives are the
    lexicographically minimal canonical_key of each class.
    """

    class_of: np.ndarray
    representatives: np.ndarray
    class_sizes: np.ndarray

    @property
    def n_classes(self) -> int:
        return len(self.representatives)


class FiniteGroup:
    """Interned, fully enumerated matrix group over Z_m.

    Built through generate_group; immutable afterwards.  generators holds
    the ids of the inverse-augmented generating set actually used for BFS.
    right is the closure's (k, |G|) right Cayley table: right[c, x] is the id
    of x times generator c, and every group action below is a chain of
    kernels.gather calls from its rows.  ids_of, products and action_table
    (kernels.product_ids) are the oracles' own path and the tests' reference.
    """

    def __init__(self, elements, parents, parent_gens, index, right, levels, gen_source, m,
                 symplectic):
        self.elements = elements  # (G, d, d) at entry_dtype(m): uint8 for m <= 256
        self.parents = parents  # int32
        self.parent_gens = parent_gens  # the narrowest signed dtype holding k
        self._index = index  # kernels.Index: the elements' sorted radix codes
        self.right = right  # (k, G) int32, C-contiguous
        self.levels = levels  # BFS level L holds ids levels[L] <= x < levels[L + 1]
        self.gen_source = gen_source  # aug index -> index into the user's list
        self.m = m
        self.symplectic = symplectic
        self.identity = 0
        self.generators = right[:, 0].tolist()

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def element(self, i: int) -> ModMatrix:
        return ModMatrix(self.elements[i], self.m)

    def id_of(self, mat: ModMatrix) -> int:
        i = int(self.ids_of(mat.entries[None])[0])
        if i < 0:
            raise StructuralError("matrix is not an element of this group")
        return i

    def ids_of(self, mats) -> np.ndarray:
        """ids of a (n, d, d) stack of matrices by kernels.product_ids, as a
        product of one factor; -1 where one is not an element, including any
        matrix with an entry outside [0, m), which the index does not hold."""
        mats = np.asarray(mats)
        ids = np.full(len(mats), -1, dtype=np.int32)
        if mats.shape[1:] == (self.dim, self.dim):
            ok = ((mats >= 0) & (mats < self.m)).all(axis=(1, 2))
            ids[ok] = kernels.product_ids(self._index, mats[ok])
        return ids

    def products(self, a, b) -> np.ndarray:
        """ids of a[t] b[t] (-1 if not an element), by kernels.product_ids."""
        return kernels.product_ids(self._index, self.elements[a], self.elements[b])

    def inverse_id(self, i: int) -> int:
        return self.id_of(mat_inverse(self.element(i)))

    def action_table(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """ids of left @ x @ right mod m over all elements x, by
        kernels.product_ids: matmul_mod's exact float64 GEMM (d^2 m^2 <= 2^52),
        then one sort (a binary search only if an image escapes); left and
        right are reduced mod m first.  Raises IntegrityError naming the
        first x whose image is not an element.  The semidirect and Burnside
        oracles build their tables with it, apart from the gathers below,
        and the tests compare those with it."""
        left, right = (np.asarray(a, dtype=np.int64) % self.m for a in (left, right))
        ids = kernels.product_ids(self._index, left, self.elements, right)
        bad = np.flatnonzero(ids < 0)
        if len(bad):
            raise IntegrityError(f"action image of element {bad[0]} is not in the group")
        return ids

    def user_generators(self) -> dict[int, int]:
        """{i: id} for each user generator i that gen_source names (a repeated
        generator by its first position only): the id in its first augmented
        column, which holds the generator itself."""
        first = {}
        for s, src in zip(self.generators, self.gen_source):
            first.setdefault(src, s)
        return first

    def word(self, w: int) -> list[int]:
        """Generator columns c_1..c_L with w = g_{c_1} ... g_{c_L}: w's BFS path."""
        cols = []
        while w:
            cols.append(int(self.parent_gens[w]))
            w = int(self.parents[w])
        return cols[::-1]

    def times(self, tab: np.ndarray, w: int) -> np.ndarray:
        """ids of x w for every id x in tab: one gather per letter of w's word."""
        for c in self.word(w):
            tab = kernels.gather(self.right[c], tab)
        return tab

    def extend(self, images, start: int = 0) -> np.ndarray:
        """ids of f(x) for every x, where f(identity) = start and
        f(x' g_c) = f(x') images[c] along every BFS tree edge; built a BFS
        level at a time, by gathers along the words of the images.

        With images the generators this is left multiplication by start.
        With start the identity and images the phi(g_c) it is the only
        candidate for the homomorphism phi; only an edge check proves it one.
        Past the shortest word, a letter is gathered only where there is one.
        """
        words = [self.word(int(a)) for a in images]
        short = min(map(len, words))
        # letters[j, c]: right.ravel() offset of letter j of images[c]'s word; -1 past it
        letters = np.full((max(map(len, words)), len(words)), -1,
                          dtype=np.min_scalar_type(-self.right.size))
        for c, word in enumerate(words):
            letters[:len(word), c] = np.multiply(word, self.order)
        tab = np.empty(self.order, dtype=np.int32)
        tab[0] = start
        for lo, hi in zip(self.levels[1:-1], self.levels[2:]):
            level = kernels.gather(tab, self.parents[lo:hi])
            for j, row in enumerate(letters[:, self.parent_gens[lo:hi]]):
                at = slice(None) if j < short else np.flatnonzero(row >= 0)  # real letters
                level[at] = kernels.gather(self.right.ravel(), row[at] + level[at])
            tab[lo:hi] = level
        return tab

    def lex_order(self) -> np.ndarray:
        """Element ids by ascending canonical_key: the index's read-only ids."""
        return self._index.ids


def generate_group(gens, cap=DEFAULT_CAP) -> FiniteGroup:
    """Enumerate the group generated by gens by breadth-first closure.

    Generators are augmented with their inverses before BFS so the move
    set is symmetric.  If every generator is symplectic, every element is
    verified against the symplectic condition.
    """
    if not gens:
        raise StructuralError("at least one generator required")
    d, m = gens[0].dim, gens[0].m
    for g in gens:
        if g.dim != d or g.m != m:
            raise StructuralError("generators must share dimension and modulus")
    inverses = [mat_inverse(g) for g in gens]  # raises SingularMatrixError
    # the generators, then their inverses, each kept at its first occurrence
    stack = np.stack([g.entries for g in [*gens, *inverses]])
    symplectic = bool(is_symplectic(stack[:len(gens)], m).all())
    first = np.sort(np.unique(stack.reshape(len(stack), -1), axis=0, return_index=True)[1])
    gen_stack = np.ascontiguousarray(stack[first])
    source = [int(i) % len(gens) for i in first]
    elements, parents, parent_gens, index, right, levels = kernels.closure(gen_stack, m, cap)
    if symplectic:
        for lo in range(0, len(elements), kernels.CHUNK):  # bounds the transient products
            bad = np.flatnonzero(~is_symplectic(elements[lo:lo + kernels.CHUNK], m))
            if len(bad):
                raise IntegrityError(f"element {lo + bad[0]} violates the symplectic condition")
    return FiniteGroup(elements, parents, parent_gens, index, right, levels, source, m,
                       symplectic)


def sp_group(n: int, m: int, cap: int) -> FiniteGroup:
    """Sp(2n, Z_m), enumerated from its standard generators; raises
    CapacityError before building them if |Sp(2n, Z_m)| exceeds cap.  It is
    at least 2**(n*n), and is not counted where that passes cap and its upper
    bound m**(n(2n + 1)) has 2**16 bits or more (sp_order multiplies n big factors)."""
    if n >= 1 and m >= 2:  # else standard_generators rejects n or m first
        check_int64(2 * n, m)  # a modulus past int64 before the cap
        if n * n >= cap.bit_length() and n * (2 * n + 1) * m.bit_length() >= 1 << 16:
            raise CapacityError(cap, None)
        if (order := sp_order(n, m)) > cap:
            raise CapacityError(cap, order)
    return generate_group(standard_generators(n, m), cap=cap)


def check_same_group(g: FiniteGroup, *maps):
    """Raises StructuralError unless every automorphism or character in maps is g's."""
    if any(f.group is not g for f in maps):
        raise StructuralError("automorphism or character lives on a different group")


def twisted_moves(g: FiniteGroup, phi, conjugators) -> list[np.ndarray]:
    """One move x -> a x phi(a)^-1 per conjugator id a, by gathers; through
    kernels.orbits, conjugators generating H give the orbits of all of H."""
    check_same_group(g, phi)
    return [g.times(g.extend(g.generators, start=a), g.inverse_id(phi.perm[a]))
            for a in conjugators]


def twisted_classes(g: FiniteGroup, phi) -> Partition:
    """Partition of g into twisted conjugacy classes of phi.

    Orbits of a . x = a x phi(a)^-1, by kernels.orbits on the twisted_moves
    of the user generators; classes are numbered in the order of their least
    element id.  With phi the identity this is ordinary conjugacy.  Each phi's
    Partition is computed once, kept on phi and shared read-only.
    """
    check_same_group(g, phi)
    if phi._partition is None:
        moves = twisted_moves(g, phi, g.user_generators().values())
        class_of, n_classes = kernels.orbits(moves, g.order)
        sizes = np.bincount(class_of, minlength=n_classes).astype(np.int64)
        order = g.lex_order()
        reps = order[kernels.first_index(class_of[order], n_classes)]
        class_of.flags.writeable = reps.flags.writeable = sizes.flags.writeable = False
        phi._partition = Partition(class_of, reps, sizes)
    return phi._partition
