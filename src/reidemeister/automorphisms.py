"""Automorphisms of an enumerated group: inner, diagonal sign-flip,
character twists and compositions.

An Automorphism is stored as the permutation it induces on the element
table.  Construction always validates: images must stay inside the group,
the map must be a bijection, and phi(x g) = phi(x) phi(g) is verified on
every edge (x, g) of the right Cayley table -- which by induction on word
length covers all pairs -- plus seeded random pairs as a belt-and-braces
check.  sign_flip and inner are built from their generator images alone.
Equality is permutation equality, so inner(D) == sign_flip.
"""

from __future__ import annotations

import hashlib
from math import lcm

import numpy as np

from . import kernels
from .errors import (IntegrityError, PreconditionError, StructuralError,
                     UnsupportedTwistError)
from .group import FiniteGroup, Partition, check_same_group, random_pairs, twisted_classes
from .modring import ModMatrix, canonical_key, mat_inverse, matmul_mod, sign_pattern

RANDOM_PAIR_SAMPLES = 1000


def _check_homomorphism(g: FiniteGroup, f: np.ndarray, times, mul, what: str):
    """Checks f(x y) = f(x) f(y) for a table f over the element ids, where
    times(t, v) multiplies every entry of t by one value v and mul(a, b)
    multiplies two tables entrywise: on every edge (x, g_c) of the right
    Cayley table, which by induction on word length covers all pairs, then
    on seeded random pairs as a belt-and-braces check.  Raises
    IntegrityError "<what> at generator s" or "<what> at pair (i,j)".
    One column per inverse pair {g, g^-1} covers both, as callers check f(1) = 1
    first: x = g^-1 gives f(g^-1) = f(g)^-1, so f(y g^-1) = f(y) f(g^-1) for
    all y, and the first failing column is the first of all k."""
    inverse = (g.right[:, g.generators] == g.identity).argmax(axis=0)  # g_c^-1 = g_inverse[c]
    for c, s in enumerate(g.generators):
        if inverse[c] >= c and not np.array_equal(kernels.gather(f, g.right[c]), times(f, f[s])):
            raise IntegrityError(f"{what} at generator {s}")
    i, j = random_pairs(g.order, RANDOM_PAIR_SAMPLES)
    bad = np.flatnonzero(f[g.products(i, j)] != mul(f[i], f[j]))
    if len(bad):
        raise IntegrityError(f"{what} at pair ({i[bad[0]]},{j[bad[0]]})")


def _validate_automorphism(g: FiniteGroup, perm: np.ndarray, what: str):
    """Checks perm is an automorphism: ids in range, the identity fixed, the
    homomorphism property by _check_homomorphism, then bijectivity: every id hit."""
    n = g.order
    if perm.shape != (n,):
        raise IntegrityError(f"{what}: image table has wrong size")
    if perm.min() < 0 or perm.max() >= n:
        raise IntegrityError(f"{what}: not a bijection of the element table")
    if perm[g.identity] != g.identity:
        raise IntegrityError(f"{what}: identity not fixed")
    _check_homomorphism(g, perm, g.times, g.products, f"{what}: homomorphism property fails")
    hit = np.zeros(n, dtype=bool)
    hit[perm] = True
    if not hit.all():
        raise IntegrityError(f"{what}: not a bijection of the element table")


def _from_generator_images(g: FiniteGroup, mats: np.ndarray, descriptor: dict,
                           escape: str) -> "Automorphism":
    """The automorphism sending generator column c to the element mats[c],
    extended along the BFS tree and validated on every Cayley edge.  Raises
    IntegrityError escape.format(s) for the first generator s whose image
    is not an element."""
    images = g.ids_of(mats)
    bad = np.flatnonzero(images < 0)
    if len(bad):
        raise IntegrityError(escape.format(g.generators[bad[0]]))
    return Automorphism(g, g.extend(images), descriptor)


class Automorphism:
    """Validated self-map of a FiniteGroup: perm[i] is the id of phi(element i), a
    read-only view, as order() and twisted_classes keep what they compute on phi."""

    def __init__(self, group: FiniteGroup, perm: np.ndarray, descriptor: dict,
                 _validated=False):
        self.group = group
        self.descriptor = descriptor
        self._order = self._partition = None
        if not _validated:  # before the int32 cast, which could wrap an invalid id
            _validate_automorphism(group, np.asarray(perm), descriptor.get("kind", "?"))
        self.perm = np.asarray(perm, dtype=np.int32).view()
        self.perm.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.group is other.group and np.array_equal(self.perm, other.perm)

    def __hash__(self):
        return hash(self.perm.tobytes())

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.perm, np.arange(self.group.order)))

    def order(self) -> int:
        """Least k >= 1 with phi^k the identity map: the lcm of its cycle lengths."""
        if self._order is None:
            cycles, _ = kernels.orbits([self.perm], self.group.order)
            self._order = lcm(*np.unique(np.bincount(cycles)).tolist())
        return self._order


def identity_automorphism(g: FiniteGroup) -> Automorphism:
    return Automorphism(g, np.arange(g.order, dtype=np.int32),
                        {"kind": "identity"}, _validated=True)


def ordinary_classes(g: FiniteGroup) -> Partition:
    return twisted_classes(g, identity_automorphism(g))


def sign_flip(g: FiniteGroup) -> Automorphism:
    """Entrywise multiplication by (-1)^(i+j); conjugation by diag(1,-1,1,-1,...)."""
    return _from_generator_images(
        g, g.elements[g.generators] * sign_pattern(g.dim) % g.m, {"kind": "sign_flip"},
        "sign-flip image of element {} is not in the group "
        "(group not normalized by diag(1,-1,...))")


def inner(g: FiniteGroup, u: ModMatrix) -> Automorphism:
    """Conjugation x -> u x u^-1; u must normalize the group."""
    if u.dim != g.dim or u.m != g.m:
        raise StructuralError("conjugator has wrong dimension or modulus")
    mats = matmul_mod(g.m, u.entries, g.elements[g.generators], mat_inverse(u).entries)
    desc = {"kind": "inner", "conjugator": [int(x) for x in u.entries.ravel()]}
    return _from_generator_images(
        g, mats, desc, "conjugate of generator {} escapes the group: u does not normalize it")


class Character:
    """Homomorphism of the group into {+1, -1}, stored per element id."""

    def __init__(self, group: FiniteGroup, values: np.ndarray, _validated=False):
        self.group = group
        self.values = np.asarray(values, dtype=np.int64)
        if not _validated:
            self.validate()

    @classmethod
    def trivial(cls, group: FiniteGroup) -> "Character":
        return cls(group, np.ones(group.order, dtype=np.int64), _validated=True)

    @classmethod
    def from_generator_values(cls, group: FiniteGroup, gen_values) -> "Character":
        """Extend values given per (un-augmented) generator along BFS parents.

        gen_values[i]: +-1 for generator i as passed to generate_group, for
        each i in gen_source; an inverse generator inherits its source's value.
        """
        aug_values = np.empty(len(group.gen_source), dtype=np.int64)
        for c, src in enumerate(group.gen_source):
            try:
                value = gen_values[src]
            except (IndexError, KeyError):
                raise StructuralError(f"no character value for generator {src}") from None
            if value not in (1, -1):  # compared, never truncated: -1.7 is not -1
                raise StructuralError("character values must be +1 or -1")
            aug_values[c] = value
        vals = np.ones(group.order, dtype=np.int64)
        parents, cols = group.parents, group.parent_gens
        for lo, hi in zip(group.levels[1:-1], group.levels[2:]):
            vals[lo:hi] = vals[parents[lo:hi]] * aug_values[cols[lo:hi]]
        return cls(group, vals)

    @property
    def is_trivial(self) -> bool:
        return bool(np.all(self.values == 1))

    def validate(self):
        g = self.group
        if self.values.shape != (g.order,):
            raise IntegrityError("character table has wrong size")
        if not np.all(np.isin(self.values, (1, -1))):
            raise IntegrityError("character values outside {+1,-1}")
        if self.values[g.identity] != 1:
            raise IntegrityError("character does not send identity to +1")
        _check_homomorphism(g, self.values, np.multiply, np.multiply,
                            "character not multiplicative")
        return True

    def digest(self) -> str:
        return hashlib.sha256(self.values.tobytes()).hexdigest()[:16]


def character_twist(chi: Character, base: Automorphism) -> Automorphism:
    """g -> chi(g) * base(g).  Needs -I in the group so images stay inside."""
    g = base.group
    check_same_group(g, chi)
    if chi.is_trivial:
        return base
    neg_ident = int(g.ids_of(-np.eye(g.dim, dtype=np.int64)[None] % g.m)[0])
    if neg_ident < 0:
        raise UnsupportedTwistError("-I is not in the group; character twist undefined")
    # -I is central, so -phi(x) = phi(x) (-I): one gather along the word of -I
    negated = g.times(base.perm, neg_ident)
    perm = np.where(chi.values == 1, base.perm, negated)
    desc = {"kind": "character_twist", "character": chi.digest(),
            "base": base.descriptor}
    return Automorphism(g, perm, desc)


def compose(outer: Automorphism, inner_map: Automorphism) -> Automorphism:
    """outer after inner_map, as permutations of the element table."""
    check_same_group(outer.group, inner_map)
    perm = kernels.gather(outer.perm, inner_map.perm)
    desc = {"kind": "compose", "outer": outer.descriptor, "inner": inner_map.descriptor}
    return Automorphism(outer.group, perm, desc, _validated=True)


def parse_descriptor(g: FiniteGroup, spec: str) -> Automorphism:
    """Build an automorphism from a CLI-style descriptor string.

    Accepted forms: "identity", "sign_flip", "inner:<comma-entries>",
    "twist:<character-file>" (character twist of the identity).
    """
    if spec == "identity":
        return identity_automorphism(g)
    if spec == "sign_flip":
        return sign_flip(g)
    if spec.startswith("inner:"):
        raw = spec[len("inner:"):]
        try:
            entries = [int(x) % g.m for x in raw.split(",")]  # reduced before int64
        except ValueError:
            raise PreconditionError(f"bad inner conjugator entries: {raw!r}") from None
        d = g.dim
        if len(entries) != d * d:
            raise PreconditionError(
                f"inner conjugator needs {d * d} entries, got {len(entries)}")
        return inner(g, ModMatrix(np.array(entries).reshape(d, d), g.m))
    if spec.startswith("twist:"):
        chi = load_character_file(g, spec[len("twist:"):])
        return character_twist(chi, identity_automorphism(g))
    raise PreconditionError(f"unknown automorphism descriptor {spec!r}")


def load_character_file(g: FiniteGroup, path: str) -> Character:
    """Character file: one line per generator, "<hex canonical_key>=+1|-1"."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")  # newlines already translated
    except ValueError as e:  # not UTF-8, or a NUL in the path
        raise PreconditionError(f"cannot read character file {path!r}: {e}") from None
    table = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PreconditionError(f"{path}:{lineno}: expected key=value")
        key_hex, val = line.split("=", 1)
        val = val.strip()
        if val not in ("+1", "-1", "1"):
            raise PreconditionError(f"{path}:{lineno}: value must be +1 or -1")
        key, value = key_hex.strip().lower(), 1 if val in ("+1", "1") else -1
        if table.setdefault(key, value) != value:
            raise PreconditionError(f"{path}:{lineno}: {key} was given both +1 and -1")
    gen_values = {}
    for src, s in g.user_generators().items():
        key_hex = canonical_key(g.element(s)).hex()
        if key_hex not in table:
            raise PreconditionError(f"character file missing generator {src} ({key_hex})")
        gen_values[src] = table[key_hex]
    return Character.from_generator_values(g, gen_values)
