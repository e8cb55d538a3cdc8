import contextlib
import itertools
import signal
import struct
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, reject
from hypothesis import strategies as st

import reidemeister as rm
from reidemeister import kernels
from reidemeister.group import random_pairs
from reidemeister.modring import entry_dtype

# criterion number -> verdict line, filled by tests/test_acceptance.py
ACCEPTANCE_RESULTS = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for n in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(ACCEPTANCE_RESULTS[n])


@contextlib.contextmanager
def within_one_second(what):
    """Fails the test if the block still runs after one second.  pytest.fail
    raises no Exception, so no handler in the code under test catches it."""
    def expire(signum, frame):
        pytest.fail(f"{what} still running after one second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def sp2_5():
    return rm.generate_group(rm.standard_generators(1, 5))


@pytest.fixture(scope="session")
def sp2_7():
    return rm.generate_group(rm.standard_generators(1, 7))


@pytest.fixture(scope="session")
def sp2_13():
    return rm.generate_group(rm.standard_generators(1, 13))


@pytest.fixture(scope="session")
def dihedral8():
    # order-8 dihedral matrix group over Z_3: quarter turn + reflection
    r = rm.ModMatrix([[0, 1], [2, 0]], 3)
    s = rm.ModMatrix([[1, 0], [0, 2]], 3)
    g = rm.generate_group([r, s])
    assert g.order == 8
    return g


@pytest.fixture(scope="session")
def dihedral8_chi(dihedral8):
    # the determinant character: -1 exactly on the reflections
    vals = np.array([1 if rm.det(dihedral8.element(i)) == 1 else -1
                     for i in range(dihedral8.order)])
    return rm.Character(dihedral8, vals)


@pytest.fixture(scope="session")
def gl2_z2():
    # all invertible 2x2 matrices over Z_2 (order 6, nonabelian)
    a = rm.ModMatrix([[0, 1], [1, 0]], 2)
    b = rm.ModMatrix([[1, 1], [0, 1]], 2)
    g = rm.generate_group([a, b])
    assert g.order == 6
    return g


@pytest.fixture(scope="session")
def quaternion8():
    # Q8 inside SL(2, Z_3)
    i = rm.ModMatrix([[0, 2], [1, 0]], 3)
    j = rm.ModMatrix([[1, 1], [1, 2]], 3)
    g = rm.generate_group([i, j])
    assert g.order == 8
    return g


@pytest.fixture(scope="session")
def sp4_2():
    return rm.generate_group(rm.standard_generators(2, 2))


@pytest.fixture(scope="session")
def signed_perm4_17():
    # the 4x4 signed permutation matrices over Z_17 (order 2^4 4! = 384):
    # 17^16 >= 2^63, so the element index keys them by several words
    m = 17
    cycle = np.roll(np.eye(4, dtype=np.int64), 1, axis=0)
    swap = np.eye(4, dtype=np.int64)[[1, 0, 2, 3]]
    sign = np.diag([m - 1, 1, 1, 1])
    g = rm.generate_group([rm.ModMatrix(a, m) for a in (cycle, swap, sign)])
    assert g.order == 384
    return g


@pytest.fixture(scope="session")
def dihedral8_outer(dihedral8):
    # conjugation by u, outside the group but normalizing it (u lies in
    # the semidihedral group of order 16 in GL(2, Z_3)): order 4, so the
    # semidirect product has Z_4 on top
    phi = rm.inner(dihedral8, rm.ModMatrix([[1, 1], [2, 1]], 3))
    assert phi.order() == 4
    return phi


def reference_closure(gens, m, cap):
    """Sequential BFS reference for kernels.closure: one product at a time,
    frontier-major and generator-minor, each new element taking the next id.

    Returns (elements, parents, parent_gens, right, levels): right[x, j] is
    the id of elements[x] @ gens[j], and BFS level L holds the ids
    levels[L] <= x < levels[L + 1].  The kernel must match all five bit
    for bit, in the storage dtypes: elements at entry_dtype(m), parents
    int32, parent_gens the narrowest signed dtype holding k.  The products
    here are int64.
    """
    k, d, _ = gens.shape
    gens = gens % m
    ident = np.ascontiguousarray(np.eye(d, dtype=np.int64))
    elems = [ident]
    index = {ident.tobytes(): 0}
    parents = [-1]
    parent_gens = [-1]
    right = []
    levels = [0]
    frontier = [0]
    while frontier:
        levels.append(len(elems))
        stack = np.stack([elems[i] for i in frontier])
        prods = np.einsum("fij,gjk->fgik", stack, gens) % m
        new_frontier = []
        for a, i in enumerate(frontier):
            row = []
            for j in range(k):
                y = np.ascontiguousarray(prods[a, j])
                key = y.tobytes()
                if key not in index:
                    if len(elems) >= cap:
                        raise rm.CapacityError(cap, len(elems))
                    index[key] = len(elems)
                    new_frontier.append(len(elems))
                    elems.append(y)
                    parents.append(i)
                    parent_gens.append(j)
                row.append(index[key])
            right.append(row)
        frontier = new_frontier
    return (
        np.ascontiguousarray(np.stack(elems)).astype(entry_dtype(m)),
        np.array(parents, dtype=np.int32),
        np.array(parent_gens, dtype=np.min_scalar_type(-k)),
        np.array(right, dtype=np.int32),
        np.array(levels, dtype=np.int64),
    )


def from_canonical_key(key: bytes) -> rm.ModMatrix:
    """Decode a canonical_key back into the matrix it encodes."""
    dim, m = struct.unpack_from("<II", key)
    body = np.frombuffer(key, dtype=entry_dtype(m), offset=8)
    if body.size != dim * dim:
        raise rm.StructuralError(f"key body has {body.size} entries, expected {dim * dim}")
    return rm.ModMatrix(body.astype(np.int64).reshape(dim, dim), m)


def reference_ids(group, mats):
    """Bytes-dict reference for FiniteGroup.ids_of: every element's raw
    row-major int64 bytes mapped to its id, probed once per matrix."""
    index = {e.tobytes(): i for i, e in enumerate(group.elements.astype(np.int64))}
    return [index.get(np.ascontiguousarray(x, dtype=np.int64).tobytes(), -1) for x in mats]


def verify_closure(g):
    """Checks g is closed under multiplication by matmul and lookup: on all
    pairs up to order 2000, else on 10**5 random pairs.  Raises
    IntegrityError on failure."""
    n = g.order
    if n <= 2000:
        left, right = np.divmod(np.arange(n * n), n)
    else:
        left, right = random_pairs(n, 10**5)
    bad = np.flatnonzero(g.products(left, right) < 0)
    if len(bad):
        raise rm.IntegrityError(f"product of elements {left[bad[0]]} and "
                                f"{right[bad[0]]} escapes the group")
    return True


def reference_character_values(group, gen_values):
    """Per-element reference for Character.from_generator_values: each value
    is its BFS parent's times its generator's, one element at a time."""
    aug_values = [int(gen_values[src]) for src in group.gen_source]
    vals = np.empty(group.order, dtype=np.int64)
    vals[0] = 1
    for i in range(1, group.order):
        vals[i] = vals[group.parents[i]] * aug_values[group.parent_gens[i]]
    return vals


def mul_ids(g, i, j):
    """The id of element i times element j, by FiniteGroup.products."""
    return int(g.products([i], [j])[0])


def semidirect_power(phi, i, j):
    """The id of phi^j(i), phi applied j mod ord(phi) times."""
    for _ in range(j % phi.order()):
        i = int(phi.perm[i])
    return i


def semidirect_mult(g, phi, a, b):
    """Scalar product (g, j)(h, l) = (g phi^j(h), j + l) in G x|_phi Z_m,
    m = ord(phi), of pairs (element id, j), by mul_ids."""
    return (mul_ids(g, a[0], semidirect_power(phi, b[0], a[1])),
            (a[1] + b[1]) % phi.order())


def semidirect_inv(g, phi, a):
    """(g, j)^-1 = (phi^-j(g^-1), -j) in G x|_phi Z_m."""
    return semidirect_power(phi, g.inverse_id(a[0]), -a[1]), -a[1] % phi.order()


def reference_coset_move(g, phi, conjugator, k):
    """Scalar reference for certify.coset_moves: the id table of
    x -> c (x, k) c^-1 in G x|_phi Z_m, built one element at a time with
    semidirect_mult and semidirect_inv.  Asserts that every conjugate stays
    in the coset."""
    c_inv = semidirect_inv(g, phi, conjugator)
    table = np.empty(g.order, dtype=np.int64)
    for x in range(g.order):
        conj = semidirect_mult(g, phi, conjugator, (x, k))
        table[x], j = semidirect_mult(g, phi, conj, c_inv)
        assert j == k % phi.order()
    return table


def torus(w, p):
    """The diagonal symplectic matrix diag(w, w^-1) over Z_p, w a unit."""
    return rm.ModMatrix([[w, 0], [0, pow(w, -1, p)]], p)


def reference_refined_partition(g, phi, chi):
    """Refined partition of refined_split_check with every element a of
    H = ker(chi) as a move y -> a y phi(a)^-1."""
    moves = [g.times(g.extend(g.generators, start=a), g.inverse_id(phi.perm[a]))
             for a in np.flatnonzero(chi.values == 1).tolist()]
    return kernels.orbits(moves, g.order)


def union_find_labels(n, edges):
    """Pure-Python union-find: component labels of range(n) under the
    undirected edges, numbered in the order of each component's least
    element (the numbering kernels.orbits promises)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in edges:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    roots = {}
    labels = [roots.setdefault(find(x), len(roots)) for x in range(n)]
    return labels, len(roots)


def brute_force_twisted_partition(g, phi):
    """Independent O(|G|^2) oracle: union-find over x ~ a x phi(a)^-1 with
    every group element as a move, no generator moves or orbit kernel.  All
    |G|^2 products come from one matmul and one ids_of."""
    m, n, elems = g.m, g.order, g.elements.astype(np.int64)
    inv_images = elems[[g.inverse_id(phi.perm[a]) for a in range(n)]]
    prods = np.matmul(np.matmul(elems[:, None], elems) % m, inv_images[:, None]) % m
    ids = g.ids_of(prods.reshape(n * n, g.dim, g.dim))  # row a, column x
    assert (ids >= 0).all(), "a x phi(a)^-1 escapes the group"
    return union_find_labels(n, zip(np.tile(np.arange(n), n).tolist(), ids.tolist()))


@st.composite
def small_groups_with_automorphism(draw):
    """A group generated by one or two random invertible 2x2 matrices over
    Z_2..Z_7, at most 120 elements, with an automorphism: the identity or
    the sign flip (where the group is normalized by diag(1, -1)), each
    possibly followed by conjugation with a random element."""
    m = draw(st.integers(2, 7))
    rnd = draw(st.randoms(use_true_random=False))  # uniform entries, not shrunk to 0
    gens = [[rnd.randrange(m) for _ in range(4)] for _ in range(draw(st.integers(1, 2)))]
    assume(all(gcd(a * d - b * c, m) == 1 for a, b, c, d in gens))
    try:
        g = rm.generate_group([rm.ModMatrix(np.reshape(e, (2, 2)), m) for e in gens],
                              cap=120)
    except rm.CapacityError:
        reject()
    phi = rm.identity_automorphism(g)
    if draw(st.booleans()):
        try:
            phi = rm.sign_flip(g)
        except rm.IntegrityError:  # not normalized by diag(1, -1)
            pass
    if draw(st.booleans()):
        phi = rm.compose(rm.inner(g, g.element(draw(st.integers(0, g.order - 1)))), phi)
    return g, phi


def torus_support_solutions(p, n, w):
    """Independent oracle for the Thm 3.3 torus filter over Sp(2n, Z_p), p prime.

    With s_i = (-1)^i, wbar = diag(w, w^-1, 1, ...) and a torus element
    T = diag(u, u^-1, 1, ...), the condition M wbar = T phi(M) reads entry
    by entry M_ij (wbar_j - T_i s_i s_j) = 0. Over a field M_ij can only be
    nonzero where that factor vanishes, so for every unit u this enumerates
    all matrices supported on that mask and keeps those with M^T J M = J,
    J written out by hand in the interleaved basis. No group enumeration,
    no is_symplectic. Returns each solution's entries, row-major.
    """
    d = 2 * n
    sign = [(-1) ** i for i in range(d)]
    J = np.zeros((d, d), dtype=np.int64)
    for k in range(n):
        J[2 * k, 2 * k + 1] = 1
        J[2 * k + 1, 2 * k] = p - 1
    wbar = [w % p, pow(w, -1, p)] + [1] * (d - 2)
    solutions = []
    for u in range(1, p):
        t = [u, pow(u, -1, p)] + [1] * (d - 2)
        mask = [(i, j) for i in range(d) for j in range(d)
                if (wbar[j] - t[i] * sign[i] * sign[j]) % p == 0]
        rows, cols = zip(*mask)
        values = np.array(list(itertools.product(range(p), repeat=len(mask))),
                          dtype=np.int64)
        cands = np.zeros((len(values), d, d), dtype=np.int64)
        cands[:, rows, cols] = values
        gram = (cands.transpose(0, 2, 1) @ J @ cands) % p
        keep = np.all(gram == J, axis=(1, 2))
        solutions.extend(tuple(int(x) for x in c.ravel()) for c in cands[keep])
    return solutions
