"""The closure kernel against the sequential BFS reference in conftest: same
elements, parents, parent_gens, right Cayley table and levels bit for bit,
plus the kernel's errors; the orbit routine against the union-find in
conftest, label for label."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reidemeister as rm
from conftest import reference_closure, reference_ids, union_find_labels
from reidemeister import kernels
from reidemeister.automorphisms import load_character_file
from reidemeister.errors import CapacityError, IntegrityError, StructuralError


def _augmented(gens):
    """Generators followed by their new inverses, as generate_group orders them."""
    out = [g.entries for g in gens]
    for g in gens:
        inv = rm.mat_inverse(g).entries
        if not any(np.array_equal(inv, h) for h in out):
            out.append(inv)
    return np.ascontiguousarray(np.stack(out))


def _sp_gens(n, m):
    return _augmented(rm.standard_generators(n, m))


# two non-symplectic 2x2 generators over Z_1009 (1009 is prime): the group
# they generate is large enough to span several frontier chunks
Z1009_GENS = [rm.ModMatrix([[1, 1], [0, 1]], 1009), rm.ModMatrix([[3, 0], [0, 1]], 1009)]


def _assert_matches_reference(gens, m):
    elems, parents, parent_gens, index, right, levels = kernels.closure(gens, m, 10**7)
    ref = reference_closure(gens, m, 10**7)
    for got, want in zip((elems, parents, parent_gens, right, levels), ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert len(index.keys) == len(elems)
    assert np.array_equal(kernels.lookup(elems, index), np.arange(len(elems)))
    return elems


@pytest.mark.parametrize("n,m", [(1, 5), (1, 7), (1, 9), (1, 12), (2, 2), (2, 3)])
def test_closure_matches_reference(n, m):
    elems = _assert_matches_reference(_sp_gens(n, m), m)
    assert len(elems) == rm.sp_order(n, m)


@pytest.fixture(scope="module")
def z1009():
    return rm.generate_group(Z1009_GENS)


def test_non_symplectic_group_matches_reference(z1009):
    assert not z1009.symplectic
    gens = _augmented(Z1009_GENS)
    elems = _assert_matches_reference(gens, 1009)
    assert np.array_equal(elems, z1009.elements)
    # some BFS level holds more elements than one chunk of the frontier
    assert np.bincount(_depths(z1009.parents)).max() > kernels.CHUNK


def _depths(parents):
    depth = np.zeros(len(parents), dtype=np.int64)
    for i in range(1, len(parents)):  # parents precede children
        depth[i] = depth[parents[i]] + 1
    return depth


@pytest.fixture(scope="module")
def z65537():
    # the shears by 1 and 256 and -I over Z_65537, order 131,074, with
    # 4-byte key entries; the shear by 256 keeps the BFS shallow (258 levels)
    m = 65537
    return rm.generate_group([rm.ModMatrix([[1, 1], [0, 1]], m),
                              rm.ModMatrix([[1, 256], [0, 1]], m),
                              rm.ModMatrix([[m - 1, 0], [0, m - 1]], m)])


@pytest.mark.parametrize("group", ["z1009", "z65537"])
def test_lex_order_is_canonical_key_order(group, request):
    # at m > 256 entries are 2- or 4-byte little-endian, so the keys do not
    # sort like the entries themselves
    g = request.getfixturevalue(group)
    keys = [rm.canonical_key(g.element(i)) for i in range(g.order)]
    want = sorted(range(g.order), key=keys.__getitem__)
    assert g.lex_order().tolist() == want
    by_entries = np.lexsort(g.elements.reshape(g.order, -1).T[::-1])
    assert by_entries.tolist() != want


def test_lex_order_is_read_only(sp2_5):
    # lex_order hands out the index's own ids; a write would corrupt lookups
    with pytest.raises(ValueError):
        sp2_5.lex_order()[0] = 1
    assert np.array_equal(sp2_5.ids_of(sp2_5.elements), np.arange(sp2_5.order))


def test_representatives_are_least_canonical_keys(z1009):
    # the twisted-class representatives at m > 256 are the members with the
    # least canonical_key, as the canonical keys themselves sort
    part = rm.twisted_classes(z1009, rm.inner(z1009, z1009.element(5)))
    keys = [rm.canonical_key(z1009.element(i)) for i in range(z1009.order)]
    least = {}
    for i, c in enumerate(part.class_of.tolist()):
        if c not in least or keys[i] < keys[least[c]]:
            least[c] = i
    assert part.n_classes > 1
    assert part.representatives.tolist() == [least[c] for c in range(part.n_classes)]


def test_closure_matches_reference_with_wide_keys(signed_perm4_17):
    # 17^16 >= 2^63: each radix code spans several words, one np.void key
    gens = signed_perm4_17.gen_matrices
    elems = _assert_matches_reference(gens, 17)
    assert np.array_equal(elems, signed_perm4_17.elements)
    index = kernels.closure(gens, 17, 10**7)[3]
    assert index.keys.dtype.kind == "V"
    assert np.array_equal(signed_perm4_17.ids_of(elems), np.arange(384))


@pytest.mark.parametrize("d,m,tables", [
    (2, 256, True),  # m^d = 2^16 row codes: the uint16 row tables
    (2, 257, False),  # m^d > 2^16: matmul
    (4, 15, True),  # 15^4 row codes, 15^16 < 2^63: one-word codes
    (4, 16, False),  # 16^16 = 2^64 needs two-word codes: matmul
])
def test_closure_on_both_sides_of_the_row_table_bound(d, m, tables):
    # a transvection I + E_01 and -I, of order 2m together
    shear = np.eye(d, dtype=np.int64)
    shear[0, 1] = 1
    gens = _augmented([rm.ModMatrix(shear, m), rm.ModMatrix(-np.eye(d, dtype=np.int64), m)])
    elems, parents, parent_gens, index, right, levels = kernels.closure(gens, m, 10**7)
    ref = reference_closure(gens, m, 10**7)
    for got, want in zip((elems, parents, parent_gens, right, levels), ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    want_index = kernels.build_index(ref[0], m)
    assert index.keys.dtype == want_index.keys.dtype
    assert np.array_equal(index.keys, want_index.keys)
    assert index.ids.dtype == np.int32 and np.array_equal(index.ids, want_index.ids)
    keys = [rm.canonical_key(rm.ModMatrix(x, m)) for x in ref[0]]
    assert index.ids.tolist() == sorted(range(len(keys)), key=keys.__getitem__)
    assert len(elems) == 2 * m
    assert (kernels._row_tables(gens % m, m)[0] is not None) == tables


def test_character_file_format_pinned_above_256(z1009, tmp_path):
    # a twist: file names each user generator by its hex canonical_key:
    # 4-byte dim and m, then the entries as 2-byte little-endian at m > 256
    lines = ["02000000f1030000" "0100010000000100=+1",
             "02000000f1030000" "0300000000000100=-1"]
    assert [rm.canonical_key(a).hex() + "=" for a in Z1009_GENS] == \
        [line[:-2] for line in lines]
    path = tmp_path / "char.txt"
    path.write_text("\n".join(lines) + "\n")
    chi = load_character_file(z1009, str(path))
    assert [chi.values[z1009.id_of(a)] for a in Z1009_GENS] == [1, -1]


def test_parent_factorization():
    m = 7
    gens = _sp_gens(1, m)
    elems, parents, parent_gens, _, right, _ = kernels.closure(gens, m, 10**6)
    assert len(elems) == 336
    assert parents[0] == -1 and parent_gens[0] == -1
    for i in range(1, len(elems)):
        assert np.array_equal((elems[parents[i]] @ gens[parent_gens[i]]) % m, elems[i])
        assert right[parents[i], parent_gens[i]] == i
    assert right.dtype == np.int32 and right.shape == (len(elems), len(gens))
    assert np.array_equal(elems[right], np.matmul(elems[:, None], gens) % m)


def test_capacity_error_message():
    with pytest.raises(CapacityError) as e:
        kernels.closure(_sp_gens(1, 7), 7, 50)
    assert str(e.value) == "closure exceeded cap of 50 elements (50 found)"
    assert (e.value.cap, e.value.found) == (50, 50)
    with pytest.raises(CapacityError) as ref:
        reference_closure(_sp_gens(1, 7), 7, 50)
    assert str(ref.value) == str(e.value)


def test_closure_needs_inverse_closed_generators():
    # frontier search is exact only if x g lies within one level of x
    with pytest.raises(StructuralError, match="closed under inverses"):
        kernels.closure(np.array([[[1, 1], [0, 1]]], dtype=np.int64), 7, 10**7)


def test_escaping_action_table_names_first_bad_id(sp2_5, dihedral8):
    # 2I has det 4: x -> 2x leaves SL(2, Z_5) already at the identity
    ident = np.eye(2, dtype=np.int64)
    with pytest.raises(IntegrityError, match=r"action image of element 0 is not"):
        sp2_5.action_table(2 * ident, ident)
    # conjugation by a non-normalizing u fixes the identity, so the first
    # escaping id lies past 0; find it one scalar lookup at a time
    u = rm.ModMatrix([[1, 1], [0, 1]], 3)
    uinv = rm.mat_inverse(u)
    first_bad = next(i for i in range(dihedral8.order)
                     if not dihedral8.contains(u @ dihedral8.element(i) @ uinv))
    assert first_bad > 0
    with pytest.raises(IntegrityError, match=rf"action image of element {first_bad} is"):
        dihedral8.action_table(u.entries, uinv.entries)


def _ids_row_by_row(g, prods):
    return [int(g.ids_of(x[None])[0]) for x in prods]


class TestProductIds:
    """kernels.product_ids against per-row ids_of of int64 products, on
    Sp(2, Z_13), whose products 2 * 12^2 = 288 pass the uint8 storage."""

    def test_single_matrix_against_a_stack(self, sp2_13):
        g, index = sp2_13, kernels.build_index(sp2_13.elements, sp2_13.m)
        elems = g.elements.astype(np.int64)
        for single in (elems[7], 2 * np.eye(2, dtype=np.int64)):
            got = kernels.product_ids(index, single, g.elements)
            want = _ids_row_by_row(g, (single @ elems) % g.m)
            assert got.tolist() == want
            got = kernels.product_ids(index, g.elements, single)
            assert got.tolist() == _ids_row_by_row(g, (elems @ single) % g.m)
        assert set(want) == {-1}  # 2I has det 4, outside SL(2, Z_13)

    def test_two_stacks_paired(self, sp2_13):
        g, index = sp2_13, kernels.build_index(sp2_13.elements, sp2_13.m)
        rng = np.random.default_rng(3)
        a = g.elements[rng.integers(g.order, size=500)]
        b = g.elements[rng.integers(g.order, size=500)].copy()
        b[::7] = 2 * np.eye(2, dtype=b.dtype)  # non-elements: their products miss
        got = kernels.product_ids(index, a, b)
        want = _ids_row_by_row(g, (a.astype(np.int64) @ b.astype(np.int64)) % g.m)
        assert got.tolist() == want
        assert -1 in want and min(want[1:7]) >= 0

    def test_stack_past_one_chunk(self, sp2_13):
        g, index = sp2_13, kernels.build_index(sp2_13.elements, sp2_13.m)
        rng = np.random.default_rng(4)
        a, b = (g.elements[rng.integers(g.order, size=kernels.CHUNK + 1)] for _ in "ab")
        got = kernels.product_ids(index, a, b)
        assert len(got) == kernels.CHUNK + 1
        assert got.tolist() == _ids_row_by_row(
            g, (a.astype(np.int64) @ b.astype(np.int64)) % g.m)


def test_products_of_no_ids(sp2_5):
    none = np.array([], dtype=np.int64)
    got = sp2_5.products(none, none)
    assert got.dtype == np.int32 and got.shape == (0,)
    index = kernels.build_index(sp2_5.elements, sp2_5.m)
    got = kernels.product_ids(index, sp2_5.elements[none], sp2_5.elements[7])
    assert got.dtype == np.int32 and got.shape == (0,)


def test_lookup_marks_missing_rows(sp2_5):
    mats = np.stack([sp2_5.elements[17], 2 * np.eye(2, dtype=np.int64), sp2_5.elements[3]])
    assert sp2_5.ids_of(mats).tolist() == [17, -1, 3]


def test_lookup_rejects_unreduced_entries(sp2_5):
    # a radix code would carry an entry equal to m into the next digit
    x = sp2_5.elements[17].astype(np.int64)
    shifted, negative = x.copy(), x.copy()
    shifted[0, 1] += 5
    negative[1, 0] -= 5
    assert sp2_5.ids_of(np.stack([shifted, negative, x])).tolist() == [-1, -1, 17]
    # a matrix over a larger modulus carries the same unreduced entries
    over97 = rm.ModMatrix(shifted, 97)
    assert np.array_equal(over97.entries, shifted)
    assert not sp2_5.contains(over97)
    with pytest.raises(StructuralError, match="not an element"):
        sp2_5.id_of(over97)
    # every member with one entry moved by +-m, whichever digit that aliases
    step = 5 * np.eye(4, dtype=np.int64).reshape(4, 2, 2)
    moved = np.concatenate([sp2_5.elements[:, None] + step, sp2_5.elements[:, None] - step])
    assert np.all(sp2_5.ids_of(moved.reshape(-1, 2, 2)) == -1)


@pytest.fixture(scope="module", params=["sp2_5", "sp4_2", "signed_perm4_17"])
def lookup_group(request):
    return request.getfixturevalue(request.param)


@st.composite
def lookup_stacks(draw, g):
    """Stacks of d x d int64 matrices: members, reduced matrices (mostly
    non-members) and members with one entry outside [0, m)."""
    d, m = g.dim, g.m
    member = st.integers(0, g.order - 1).map(lambda i: g.elements[i])
    reduced = st.lists(st.integers(0, m - 1), min_size=d * d, max_size=d * d).map(
        lambda e: np.reshape(np.array(e, dtype=np.int64), (d, d)))

    @st.composite
    def unreduced(draw):
        x = g.elements[draw(st.integers(0, g.order - 1))].astype(np.int64)
        at = draw(st.integers(0, d * d - 1))
        x.flat[at] = draw(st.one_of(
            st.integers(-(2**63), -1), st.integers(m, 2**63 - 1),
            st.integers(1, 3).map(lambda t: int(x.flat[at]) + t * m),
            st.integers(1, 3).map(lambda t: int(x.flat[at]) - t * m)))
        return x

    mats = draw(st.lists(st.one_of(member, reduced, unreduced()), max_size=12))
    return np.array(mats, dtype=np.int64).reshape(-1, d, d)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ids_of_matches_bytes_dict(lookup_group, data):
    mats = data.draw(lookup_stacks(lookup_group))
    assert lookup_group.ids_of(mats).tolist() == reference_ids(lookup_group, mats)


def _permutation_lists(n):
    perm = st.one_of(st.just(list(range(n))), st.permutations(range(n)))
    return st.tuples(st.just(n), st.lists(perm, max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 64).flatmap(_permutation_lists))
# one n-cycle whose ids rise along the move (the root-hooking case)
@example((64, [list(range(1, 64)) + [0]]))
def test_orbits_match_union_find(case):
    n, perms = case
    moves = [np.array(p, dtype=np.int64) for p in perms]
    labels, count = kernels.orbits(moves, n)
    want, want_count = union_find_labels(n, [(x, p[x]) for p in perms for x in range(n)])
    assert count == want_count
    assert labels.tolist() == want
    assert [t.tolist() for t in moves] == perms  # moves are not written to


def test_closure_ids_stop_at_int32_limit(monkeypatch):
    # ids and the Cayley table are int32: the closure must stop before an
    # id could wrap, whatever cap it is given
    monkeypatch.setattr(kernels, "ID_LIMIT", 50)
    with pytest.raises(CapacityError) as e:
        kernels.closure(_sp_gens(1, 7), 7, 10**7)
    assert (e.value.cap, e.value.found) == (50, 50)


class _CountingMoves(list):
    """A move list that counts its iterations: orbits iterates its moves
    once per round."""

    rounds = 0

    def __iter__(self):
        self.rounds += 1
        return super().__iter__()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4096), st.integers(1, 4), st.randoms(use_true_random=False))
# one rising 4096-cycle: without root hooking this takes one round per element
@example(4096, 1, random.Random(0))
def test_orbit_rounds_on_rising_cycles(n, n_cycles, rnd):
    # the ids are dealt into n_cycles sets, and each set, in ascending order,
    # is one cycle of the move: every cycle rises along the move
    colour = [rnd.randrange(n_cycles) for _ in range(n)]
    move = np.arange(n)
    for c in range(n_cycles):
        ids = [x for x in range(n) if colour[x] == c]
        move[ids] = np.roll(ids, -1)
    moves = _CountingMoves([move])
    labels, count = kernels.orbits(moves, n)
    want, want_count = union_find_labels(n, [(x, int(move[x])) for x in range(n)])
    assert (labels.tolist(), count) == (want, want_count)
    assert moves.rounds <= 3 + int(np.log2(n))
