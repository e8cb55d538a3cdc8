"""Independent cross-checks and machine-readable certificates.

Each operation recomputes a claimed relation by a code path disjoint from
the one under test (e.g. ordinary conjugacy inside a semidirect product
versus twisted-class orbits) and packages the exact results, with a verdict,
into a Certificate.  coset_moves builds the conjugation tables of both the
semidirect and the Burnside oracle; torus elements diag(w, w^-1, 1, ..., 1)
are plain int64 arrays.  All quantities are exact integers; nothing here is
approximate.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .automorphisms import (Automorphism, Character, character_twist, compose,
                            identity_automorphism, inner, sign_flip)
from .errors import CapacityError, PreconditionError, StructuralError
from .group import (DEFAULT_CAP, FiniteGroup, check_same_group, sp_group, twisted_classes,
                    twisted_moves)
from .modring import _is_prime, check_int64, matmul_mod, sign_pattern

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class Certificate:
    """Machine-readable verdict tying a computed quantity to a claim."""

    claim_id: str
    paper_anchor: str
    inputs: dict
    computed: dict
    verdict: str

    def to_dict(self) -> dict:
        return {"format": 1, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def coset_moves(g: FiniteGroup, phi: Automorphism, k: int) -> list[np.ndarray]:
    """Conjugation moves on the coset {(x, k)} of G x|_phi Z_m, m the order
    of phi, as id tables over x.

    Conjugation by (s, 0) is x -> s x phi^k(s^-1), one per user generator
    s, by FiniteGroup.action_table (kernels.product_ids' one sort, never the
    Cayley-table gathers that twisted_classes is built on); conjugation by
    (1, 1) is x -> phi(x), phi's own permutation, when m > 1.
    kernels.orbits needs no inverse moves.  Each table is checked at the
    coset point (identity, k) against the scalar product
    (g, j)(h, l) = (g phi^j(h), j + l).
    """
    m = phi.order()

    def power(i, j):  # the id of phi^j(i)
        for _ in range(j % m):
            i = int(phi.perm[i])
        return i

    def mult(a, b):
        return int(g.products([a[0]], [power(b[0], a[1])])[0]), (a[1] + b[1]) % m

    def inv(a):
        return power(g.inverse_id(a[0]), -a[1]), -a[1] % m

    conjugators = [(s, 0) for s in g.user_generators().values()]
    moves = [g.action_table(g.elements[s], g.elements[power(g.inverse_id(s), k)])
             for s, _ in conjugators]
    if m > 1:
        conjugators.append((g.identity, 1))
        moves.append(phi.perm)
    for c, table in zip(conjugators, moves):
        y, j = mult(mult(c, (g.identity, k)), inv(c))
        if j != k % m or y != table[g.identity]:
            raise StructuralError(
                "conjugation in the semidirect product breaks its product rule")
    return moves


def semidirect_oracle(g: FiniteGroup, phi: Automorphism) -> Certificate:
    """Twisted class count of phi versus ordinary conjugacy in the coset G.t
    of G x|_phi Z_m, t = (1, 1); the two are computed by disjoint code paths.
    Its tables have |G| rows: the cap that bounded g's closure bounds them."""
    check_same_group(g, phi)
    m = phi.order()
    _, coset_classes = kernels.orbits(coset_moves(g, phi, 1), g.order)
    twisted = twisted_classes(g, phi).n_classes
    return Certificate(
        claim_id="lemma6.2-semidirect",
        paper_anchor="Lemma 6.2",
        inputs={"modulus": g.m, "n": g.dim // 2, "group_order": g.order,
                "automorphism": phi.descriptor, "automorphism_order": m},
        computed={"twisted_class_count": twisted,
                  "coset_conjugacy_class_count": coset_classes,
                  "semidirect_order": g.order * m},
        verdict=PASS if twisted == coset_classes else FAIL,
    )


def burnside_oracle(g: FiniteGroup, phi: Automorphism) -> Certificate:
    """Twisted class count of phi versus the number of ordinary conjugacy
    classes C with phi(C) = C (twisted Burnside-Frobenius theorem for
    finite groups; Fel'shtyn-Hill, K-Theory 8, 1994).  The ordinary classes
    come from batched conjugation tables, not from twisted_classes."""
    check_same_group(g, phi)
    # the ordinary classes of G are the classes of the coset {(x, 0)} of G x| Z_1
    class_of, n_classes = kernels.orbits(
        coset_moves(g, identity_automorphism(g), 0), g.order)
    image, well_defined = _class_map(class_of, class_of[phi.perm], n_classes)
    fixed = int(np.count_nonzero(image == np.arange(n_classes)))
    twisted = twisted_classes(g, phi).n_classes
    return Certificate(
        claim_id="tbft-fixed-classes",
        paper_anchor="twisted Burnside-Frobenius theorem (Fel'shtyn-Hill 1994)",
        inputs={"modulus": g.m, "n": g.dim // 2, "group_order": g.order,
                "automorphism": phi.descriptor},
        computed={"twisted_class_count": twisted,
                  "conjugacy_class_count": n_classes,
                  "fixed_class_count": fixed,
                  "class_map_well_defined": well_defined},
        verdict=PASS if well_defined and twisted == fixed else FAIL,
    )


def _class_map(src, dst, n_src):
    """Map from src labels to dst labels along the element ids.

    image[c] is the dst label of the first element (in id order) with src
    label c, -1 where no element has it; well_defined says every element
    agrees with its label's image.
    """
    image = np.append(dst, -1)[kernels.first_index(src, n_src)]
    return image, bool(np.array_equal(image[src], dst))


def shift_bijection_check(g: FiniteGroup, phi: Automorphism, theta: int) -> Certificate:
    """Right multiplication by theta^-1 must send classes of phi bijectively
    onto classes of (inner(theta) . phi); verified class-by-class."""
    theta = int(theta)
    if not 0 <= theta < g.order:
        raise PreconditionError(f"theta = {theta} is not an element id in [0, {g.order})")
    theta_mat = g.element(theta)
    shifted = compose(inner(g, theta_mat), phi)
    p1 = twisted_classes(g, phi)
    p2 = twisted_classes(g, shifted)
    rmul = g.times(np.arange(g.order), g.inverse_id(theta))
    # image class labels under x -> x theta^-1, per source class
    image_label, well_defined = _class_map(p1.class_of, p2.class_of[rmul], p1.n_classes)
    bijective = (well_defined
                 and np.unique(image_label).size == p1.n_classes
                 and p1.n_classes == p2.n_classes)
    return Certificate(
        claim_id="lemma2.1-shift-bijection",
        paper_anchor="Lemma 2.1",
        inputs={"modulus": g.m, "n": g.dim // 2, "theta": theta,
                "automorphism": phi.descriptor},
        computed={"class_count": p1.n_classes,
                  "shifted_class_count": p2.n_classes,
                  "map_well_defined": well_defined,
                  "map_bijective": bijective},
        verdict=PASS if bijective else FAIL,
    )


def _refined_partition(g: FiniteGroup, phi: Automorphism, chi: Character):
    """Orbits of y -> a y phi(a)^-1 for a in H = ker(chi), chi nontrivial.

    The moves are H's Schreier generators t s rep(t s)^-1 (Schreier's
    lemma): t runs over the transversal of least ids of each chi value, s
    over the generators, and rep(x) is the transversal element of x's chi
    value.  They generate H, so the orbits are those of every element of H.
    """
    transversal = [int(np.flatnonzero(chi.values == v)[0]) for v in (1, -1)]
    products = g.right[:, transversal].T.ravel()  # t s for every t and s
    schreier = set()
    for v, rep in zip((1, -1), transversal):
        ts = products[chi.values[products] == v]
        schreier.update(g.times(ts, g.inverse_id(rep)).tolist())
    schreier.discard(g.identity)
    return kernels.orbits(twisted_moves(g, phi, sorted(schreier)), g.order)


def refined_split_check(g: FiniteGroup, phi: Automorphism, chi: Character) -> Certificate:
    """H = ker(chi) refinement: each phi-class splits into at most two
    H-refined subsets, and each (chi.phi)-class is a union of them."""
    check_same_group(g, phi, chi)
    if chi.is_trivial:
        raise PreconditionError("refined split check needs a nontrivial character")
    refined, n_refined = _refined_partition(g, phi, chi)
    p_phi = twisted_classes(g, phi)
    p_twist = twisted_classes(g, character_twist(chi, phi))
    # distinct (phi-class, refined subset) pairs, counted per phi-class
    pairs = np.unique(p_phi.class_of.astype(np.int64) * n_refined + refined)
    split = np.bincount(pairs // n_refined, minlength=p_phi.n_classes)
    max_split = int(split.max())
    unsplit = int(np.count_nonzero(split == 1))
    # each refined subset must lie inside a single (chi.phi)-class
    _, union_ok = _class_map(refined, p_twist.class_of, n_refined)
    ok = max_split <= 2 and union_ok
    return Certificate(
        claim_id="lemma3.1-refined-split",
        paper_anchor="Lemma 3.1",
        inputs={"modulus": g.m, "group_order": g.order,
                "automorphism": phi.descriptor, "character": chi.digest()},
        computed={"phi_class_count": p_phi.n_classes,
                  "twisted_class_count": p_twist.n_classes,
                  "refined_class_count": n_refined,
                  "max_subsets_per_class": max_split,
                  "classes_with_single_subset": unsplit,
                  "twist_classes_are_unions": union_ok},
        verdict=PASS if ok else FAIL,
    )


def quotient_epi_check(g: FiniteGroup, q: FiniteGroup, phi: Automorphism) -> Certificate:
    """Entrywise residue reduction Z_m -> Z_m' must map Reidemeister classes
    of phi onto those of the induced map, and so R(phi) >= R(induced)."""
    check_same_group(g, phi)
    if g.m % q.m != 0:
        raise StructuralError(f"target modulus {q.m} does not divide {g.m}")
    if g.dim != q.dim:
        raise StructuralError("dimension mismatch between group and quotient")
    proj = q.ids_of(g.elements % q.m)
    outside = np.flatnonzero(proj < 0)
    if len(outside):
        raise StructuralError(
            f"reduction of element {outside[0]} is not in the target group")
    if np.unique(proj).size != q.order:
        raise StructuralError("reduction does not map onto the target group")
    # induced automorphism on the quotient, from proj o phi = phi_bar o proj
    induced, commutes = _class_map(proj, proj[phi.perm], q.order)
    if not commutes:
        raise StructuralError(
            "automorphism does not commute with the reduction; no induced map")
    phi_bar = Automorphism(q, induced, {"kind": "induced", "base": phi.descriptor})
    p_g = twisted_classes(g, phi)
    p_q = twisted_classes(q, phi_bar)
    class_image, well_defined = _class_map(p_g.class_of, p_q.class_of[proj], p_g.n_classes)
    surjective = np.unique(class_image).size == p_q.n_classes
    ok = well_defined and surjective and p_g.n_classes >= p_q.n_classes
    return Certificate(
        claim_id="eq2-quotient-epimorphism",
        paper_anchor="section 2, eq. (2); Lemma 2.2",
        inputs={"modulus": g.m, "target_modulus": q.m, "n": g.dim // 2,
                "automorphism": phi.descriptor},
        computed={"group_order": g.order, "target_order": q.order,
                  "class_count": p_g.n_classes,
                  "target_class_count": p_q.n_classes,
                  "class_map_well_defined": well_defined,
                  "class_map_surjective": surjective},
        verdict=PASS if ok else FAIL,
    )


def _torus(w: int, n: int, p: int) -> np.ndarray:
    """diag(w, w^-1, 1, ..., 1) of dimension 2n over Z_p, int64; w a unit."""
    t = np.eye(2 * n, dtype=np.int64)
    t[0, 0], t[1, 1] = w % p, pow(w, -1, p)
    return t


def _check_prime(p: int, dim: int, least: int):
    """Raises unless dim x dim products over Z_p are exact in int64 (checked
    first: primality is tested by trial division) and p is a prime >= least."""
    check_int64(dim, p)
    if p < least or not _is_prime(p):
        raise PreconditionError(f"need a prime p >= {least}, got {p}")


def prop32_certificate(p: int, cap=DEFAULT_CAP) -> Certificate:
    """Sp(2, Z_p) with the sign-flip: R >= (p-3)/2, |V1| as predicted, and
    the torus pairing w-bar ~ -w-bar^-1 for every unit w outside V1."""
    _check_prime(p, 2, 5)
    g = sp_group(1, p, cap)
    phi = sign_flip(g)
    part = twisted_classes(g, phi)
    bound = (p - 3) // 2
    v1_expected = 2 if (p - 1) % 4 == 0 else 0
    # torus class structure: entry w - 1 of each array is about w-bar
    torus = np.stack([_torus(w, 1, p) for w in range(1, p)])
    ids = g.ids_of(torus)
    if (ids < 0).any():
        raise StructuralError("matrix is not an element of this group")
    labels = part.class_of[ids]
    v1 = (torus[:, 0, 0] ** 2) % p == p - 1
    partner = labels[p - 1 - torus[:, 1, 1]]  # the class of -w-bar^-1
    paired = v1 | (labels == partner)
    pairing_ok = bool(paired.all())
    exact_pairs = bool((v1 | (paired & (np.bincount(labels)[labels] == 2))).all())
    v1_size = int(np.count_nonzero(v1))
    r = part.n_classes
    ok = r >= bound and pairing_ok and v1_size == v1_expected
    return Certificate(
        claim_id="prop3.2-lower-bound",
        paper_anchor="Proposition 3.2",
        inputs={"n": 1, "modulus": p, "automorphism": phi.descriptor},
        computed={"group_order": g.order, "expected_order": p * (p * p - 1),
                  "class_count": r, "bound": bound,
                  "v1_size": v1_size, "v1_expected": v1_expected,
                  "torus_pairing_ok": pairing_ok,
                  "torus_classes_exactly_pairs": exact_pairs,
                  "v1_class_labels": sorted(labels[v1].tolist())},
        verdict=PASS if ok else FAIL,
    )


def growth_scan(primes, n=1, cap=DEFAULT_CAP) -> Certificate:
    """R(sign_flip) across an ascending prime list, with the (p-3)/2 bound.

    Verdict is pass only if every row meets the bound and the R column is
    strictly increasing; a capacity overrun yields an inconclusive
    certificate retaining the completed rows.
    """
    primes = [int(p) for p in primes]
    if not primes:
        raise PreconditionError("growth scan needs at least one prime")
    if n < 1:  # before the primes: with no dimension, int64 would not bound them
        raise PreconditionError(f"half-dimension must be >= 1, got {n}")
    if primes != sorted(primes) or len(set(primes)) != len(primes):
        raise PreconditionError("primes must be strictly ascending")
    for p in primes:
        _check_prime(p, 2 * n, 3)
    rows = []
    capacity_hit = None
    for p in primes:
        try:
            g = sp_group(n, p, cap)
        except CapacityError:
            capacity_hit = p
            break
        part = twisted_classes(g, sign_flip(g))
        rows.append({"p": p, "group_order": g.order,
                     "reidemeister_count": part.n_classes, "bound": (p - 3) // 2})
    bound_ok = all(r["reidemeister_count"] >= r["bound"] for r in rows)
    counts = [r["reidemeister_count"] for r in rows]
    monotone = all(a < b for a, b in zip(counts, counts[1:]))
    computed = {"rows": rows, "bound_ok": bound_ok, "strictly_increasing": monotone}
    verdict = PASS if bound_ok and monotone else FAIL
    if capacity_hit is not None:
        computed["capacity_exceeded_at"] = capacity_hit
        verdict = INCONCLUSIVE
    return Certificate(
        claim_id="lemma2.2-growth-evidence",
        paper_anchor="Lemma 2.2; Proposition 3.2",
        inputs={"n": n, "primes": primes},
        computed=computed,
        verdict=verdict,
    )


def thm33_block_certificate(p: int = 3, n: int = 2, w: int = 2,
                            cap=DEFAULT_CAP) -> Certificate:
    """Exhaustive block-structure filter for the torus reduction over Sp(2n, Z_p).

    Finds every M with M wbar phi(M)^-1 in the torus (equivalently
    M wbar = T phi(M) for some torus element T, so no inverses are
    needed) and checks that its off-diagonal 2x2 blocks against rows and
    columns 3..2n vanish.

    The block argument needs w^2 != 1 (mod p), so that w - w^-1 is a unit;
    the default w = 2 is the least unit != 1 of an odd prime.
    p = 3 is the degenerate case: its only unit w != 1 is w = 2 = -1, and
    the filter there honestly finds off-block solutions (verdict fail).
    """
    if n < 2:
        raise PreconditionError("block analysis needs half-dimension n >= 2")
    _check_prime(p, 2 * n, 2)
    if not 0 < w < p:
        raise PreconditionError(f"w = {w} is not a unit mod {p}")
    g = sp_group(n, p, cap)  # checks the cap before the loop over the units
    elems = g.elements
    lhs = matmul_mod(p, elems, _torus(w, n, p))
    flipped = ((elems * sign_pattern(2 * n)) % p).astype(elems.dtype)
    hits = np.zeros(g.order, dtype=bool)
    for u in range(1, p):  # p is prime: every u is a unit
        rhs = matmul_mod(p, _torus(u, n, p), flipped)
        hits |= np.all(lhs == rhs, axis=(1, 2))
    hit_ids = np.nonzero(hits)[0]
    off_low = elems[hit_ids][:, 2:, :2]
    off_high = elems[hit_ids][:, :2, 2:]
    violating = np.nonzero(off_low.any(axis=(1, 2)) | off_high.any(axis=(1, 2)))[0]
    computed = {"group_order": g.order, "w": w,
                "solutions_in_torus": int(len(hit_ids)),
                "block_violations": int(len(violating))}
    if len(violating):
        first = int(hit_ids[violating[0]])
        computed["first_violation_id"] = first
        computed["first_violation_entries"] = [int(x) for x in elems[first].ravel()]
    return Certificate(
        claim_id="thm3.3-block-structure",
        paper_anchor="Theorem 3.3 proof",
        inputs={"n": n, "modulus": p, "w": w},
        computed=computed,
        verdict=PASS if len(violating) == 0 else FAIL,
    )
