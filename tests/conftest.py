import itertools
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, reject
from hypothesis import strategies as st

import reidemeister as rm

# criterion number -> verdict line, filled by tests/test_acceptance.py
ACCEPTANCE_RESULTS = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for n in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(ACCEPTANCE_RESULTS[n])


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


def reference_closure(gens, m, cap):
    """Sequential BFS reference for kernels.closure: one product at a time,
    frontier-major and generator-minor, each new element taking the next id.

    Returns (elements, parents, parent_gens); the kernel must match all
    three bit for bit.
    """
    k, d, _ = gens.shape
    gens = gens % m
    ident = np.ascontiguousarray(np.eye(d, dtype=np.int64))
    elems = [ident]
    index = {ident.tobytes(): 0}
    parents = [-1]
    parent_gens = [-1]
    frontier = [0]
    while frontier:
        stack = np.stack([elems[i] for i in frontier])
        prods = np.einsum("fij,gjk->fgik", stack, gens) % m
        new_frontier = []
        for a, i in enumerate(frontier):
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
        frontier = new_frontier
    return (
        np.ascontiguousarray(np.stack(elems)),
        np.array(parents, dtype=np.int64),
        np.array(parent_gens, dtype=np.int64),
    )


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
    every group element as a move, no generator moves or orbit kernel."""
    m = g.m
    inv_images = [g.elements[g.inverse_id(phi.apply_id(a))] for a in range(g.order)]
    edges = ((x, g.id_of(rm.ModMatrix((g.elements[a] @ g.elements[x] @ inv_images[a]) % m,
                                      g.modulus)))
             for x in range(g.order) for a in range(g.order))
    return union_find_labels(g.order, edges)


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
