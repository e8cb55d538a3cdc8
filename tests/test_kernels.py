"""The closure kernel against the sequential BFS reference in conftest: same
elements, parents, parent_gens, right Cayley table and levels bit for bit,
plus the kernel's errors; the orbit routine against the union-find in
conftest, label for label; the sort and first-index helpers against numpy's
stable argsort and np.unique."""

import random
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reidemeister as rm
from conftest import reference_closure, reference_ids, union_find_labels
from reidemeister import kernels
from reidemeister.automorphisms import load_character_file
from reidemeister.errors import CapacityError, IntegrityError, StructuralError
from reidemeister.modring import entry_dtype


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


def _assert_column_major(right, k, n):
    """right is the (k, |G|) table closure returns: C-contiguous int32 rows."""
    assert right.dtype == np.int32 and right.shape == (k, n)
    assert right.flags.c_contiguous


def _assert_matches_reference(gens, m, cap=10**7):
    """kernels.closure against the reference, bit for bit and in its storage
    layout: C-contiguous (n, d, d) elements at entry_dtype(m), contiguous
    parents, parent_gens and levels, a C-contiguous right, and the index
    build_index gives the reference's elements."""
    elems, parents, parent_gens, index, right, levels = kernels.closure(gens, m, cap)
    ref = reference_closure(gens, m, cap)
    _assert_column_major(right, len(gens), len(elems))
    d = gens.shape[1]
    assert elems.shape[1:] == (d, d) and elems.dtype == entry_dtype(m)
    assert elems.flags.c_contiguous
    assert all(a.flags.c_contiguous for a in (parents, parent_gens, levels))
    for got, want in zip((elems, parents, parent_gens, right.T, levels), ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    want_index = kernels.build_index(ref[0], m)
    assert index.keys.dtype == want_index.keys.dtype
    assert np.array_equal(index.keys, want_index.keys)
    assert index.ids.dtype == np.int32 and np.array_equal(index.ids, want_index.ids)
    assert np.array_equal(kernels.product_ids(index, elems), np.arange(len(elems)))
    return elems


@pytest.mark.parametrize("n,m", [(1, 5), (1, 7), (1, 9), (1, 12), (2, 2), (2, 3)])
def test_closure_matches_reference(n, m):
    elems = _assert_matches_reference(_sp_gens(n, m), m)
    assert len(elems) == rm.sp_order(n, m)


@st.composite
def random_generator_sets(draw):
    """One to three random invertible matrices, 2x2 over Z_m for m <= 12 or
    4x4 over Z_2, followed by their new inverses as generate_group orders them."""
    d, m = draw(st.sampled_from([(2, m) for m in range(2, 13)] + [(4, 2)]))
    rnd = draw(st.randoms(use_true_random=False))  # uniform entries, not shrunk to 0
    gens, size = [], draw(st.integers(1, 3))
    while len(gens) < size:
        entries = np.array([rnd.randrange(m) for _ in range(d * d)]).reshape(d, d)
        x = rm.ModMatrix(np.eye(d, dtype=np.int64) + entries, m)  # uniform; I where rnd gives 0s
        if gcd(rm.det(x), m) == 1:
            gens.append(x)
    return _augmented(gens), m


@settings(max_examples=100, deadline=None)
@given(random_generator_sets())
def test_closure_matches_reference_on_random_generators(case):
    # ties between equal products of one level go to the least scan position
    # whatever order the old levels are kept in; past the cap neither finishes
    gens, m = case
    cap = 3000
    try:
        _assert_matches_reference(gens, m, cap)
    except CapacityError:
        with pytest.raises(CapacityError):
            reference_closure(gens, m, cap)
        with pytest.raises(CapacityError):
            kernels.closure(gens, m, cap)


def test_group_keeps_the_column_major_table(sp4_2):
    gens = _sp_gens(2, 2)
    _assert_column_major(sp4_2.right, len(gens), sp4_2.order)
    assert np.array_equal(sp4_2.right.T, reference_closure(gens, 2, 10**7)[3])
    assert sp4_2.generators == sp4_2.right[:, 0].tolist()


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
    gens = signed_perm4_17.elements[signed_perm4_17.generators].astype(np.int64)
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
    _assert_column_major(right, len(gens), len(elems))
    for got, want in zip((elems, parents, parent_gens, right.T, levels), ref):
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
        assert right[parent_gens[i], parents[i]] == i
    _assert_column_major(right, len(gens), len(elems))
    assert np.array_equal(elems[right.T], np.matmul(elems[:, None], gens) % m)


def test_capacity_error_message():
    with pytest.raises(CapacityError) as e:
        kernels.closure(_sp_gens(1, 7), 7, 50)
    assert str(e.value) == "closure exceeded cap of 50 elements (50 found)"
    assert (e.value.cap, e.value.found) == (50, 50)
    with pytest.raises(CapacityError) as ref:
        reference_closure(_sp_gens(1, 7), 7, 50)
    assert str(ref.value) == str(e.value)


@pytest.mark.parametrize("found,shown", [
    (10**15 - 1, "999999999999999"), (10**15, "about 1.00e+15"),
    (10**20 - 1, "about 9.99e+19"), (123456 * 10**9000, "about 1.23e+9005")],
    ids=["15-digits", "16-digits", "20-digits", "9006-digits"])  # str() of the last raises
def test_capacity_error_shortens_long_counts(found, shown):
    e = CapacityError(10, found)
    assert str(e) == f"closure exceeded cap of 10 elements ({shown} found)"
    assert e.found == found


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
    conjugates = [(u @ dihedral8.element(i) @ uinv).entries for i in range(dihedral8.order)]
    first_bad = next(i for i, c in enumerate(conjugates) if dihedral8.ids_of(c[None])[0] < 0)
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


class TestActionTableSort:
    """product_ids on a stack of exactly |G| rows: one sort and a comparison
    of the whole keys where the products are a permutation of G, the chunked
    search where they are not."""

    @pytest.mark.parametrize("chunk", [None, 64])
    @pytest.mark.parametrize("group", ["sp2_13", "signed_perm4_17"])
    def test_action_table_against_rows(self, group, chunk, request, monkeypatch):
        g = request.getfixturevalue(group)
        if chunk:  # the codes span several chunks
            monkeypatch.setattr(kernels, "CHUNK", chunk)
        left, right = g.elements[5].astype(np.int64), g.elements[g.inverse_id(9)]
        want = _ids_row_by_row(g, (left @ g.elements.astype(np.int64) @ right) % g.m)
        assert g.action_table(left, right).tolist() == want
        assert sorted(want) == list(range(g.order))
        if group == "signed_perm4_17":
            assert g._index.keys.dtype.kind == "V"  # multi-word keys

    def test_permutation_needs_no_search(self, monkeypatch, sp2_13):
        g = sp2_13
        left, right = g.elements[3], g.elements[g.inverse_id(3)]
        want = g.action_table(left, right)

        def refuse(*_):
            raise AssertionError("binary search on a permutation table")

        monkeypatch.setattr(kernels, "_search", refuse)
        assert np.array_equal(g.action_table(left, right), want)

    def test_stack_of_order_rows_that_is_not_a_permutation(self, monkeypatch, sp2_13):
        g, index = sp2_13, kernels.build_index(sp2_13.elements, sp2_13.m)
        a = g.elements.copy()
        a[::7] = 2 * np.eye(2, dtype=a.dtype)  # det 4: these products miss
        a[1::7] = a[2::7]  # and these repeat an element
        calls = []
        real = kernels._search
        monkeypatch.setattr(kernels, "_search", lambda *args: calls.append(1) or real(*args))
        got = kernels.product_ids(index, a, g.elements[11])
        want = _ids_row_by_row(g, (a.astype(np.int64) @ g.elements[11]) % g.m)
        assert calls and got.tolist() == want
        assert want[::7] == [-1] * len(want[::7]) and min(want[1:7]) >= 0


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


def test_lookup_rejects_non_integral_entries(sp2_5):
    # a float stack is compared, never truncated: 1.5 is not the identity's 1
    mats = np.array([[[1.5, 0], [0, 1]], [[1.0, 0], [0, 1]], sp2_5.elements[17] + 0.25])
    assert sp2_5.ids_of(mats).tolist() == [-1, 0, -1]
    assert sp2_5.ids_of(sp2_5.elements[[17, 3]].astype(np.float64)).tolist() == [17, 3]


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
    assert sp2_5.ids_of(over97.entries[None])[0] == -1
    with pytest.raises(StructuralError, match="not an element"):
        sp2_5.id_of(over97)
    # every member with one entry moved by +-m, whichever digit that aliases
    step = 5 * np.eye(4, dtype=np.int64).reshape(4, 2, 2)
    moved = np.concatenate([sp2_5.elements[:, None] + step, sp2_5.elements[:, None] - step])
    assert np.all(sp2_5.ids_of(moved.reshape(-1, 2, 2)) == -1)


def test_ids_of_a_permuted_stack(sp2_5, monkeypatch):
    # |G| rows: product_ids sorts their codes once and finds them equal to
    # the index keys, with no search
    perm = np.random.default_rng(0).permutation(sp2_5.order)
    stack = sp2_5.elements[perm].astype(np.int64)
    searches = []
    real = kernels._search
    monkeypatch.setattr(kernels, "_search", lambda *args: searches.append(1) or real(*args))
    assert sp2_5.ids_of(stack).tolist() == perm.tolist() and not searches
    # one unreduced entry: that row alone is not found
    stack[7, 1, 0] += sp2_5.m
    want = perm.copy()
    want[7] = -1
    assert sp2_5.ids_of(stack).tolist() == want.tolist()


def _assert_sorts_as_stable_argsort(codes):
    want = np.argsort(codes, kind="stable")
    got, tags = kernels._sort_tagged(codes.copy())
    assert got.dtype == codes.dtype and np.array_equal(got, codes[want])
    assert np.array_equal(tags, want)
    return tags


@pytest.mark.parametrize("top,packed", [
    (2**62 - 1, True),  # (max + 1) * 4 = 2**64: code * 4 + position fits uint64
    (2**62, False),  # one above: packing would wrap, so the stable argsort
], ids=["at-the-bound", "one-above"])
def test_sort_tagged_on_both_sides_of_the_packing_bound(top, packed):
    tags = _assert_sorts_as_stable_argsort(np.array([top, 0, top, 1], dtype=np.int64))
    assert (tags.dtype == np.int32) == packed


@pytest.mark.parametrize("top,packed", [
    (2**61 - 1, True),  # positions 0..4 take 3 bits: code << 3 | position fits uint64
    (2**61, False),  # one above: the stable argsort, though code * 5 + position would fit
], ids=["at-the-bound", "one-above"])
def test_sort_tagged_on_both_sides_of_the_shift_bound(top, packed):
    tags = _assert_sorts_as_stable_argsort(np.array([top, 0, top, 1, 2], dtype=np.int64))
    assert (tags.dtype == np.int32) == packed


def test_sp2_127_sorts_stay_packed(monkeypatch):
    # every closure level, build_index and a |G|-row action table of
    # Sp(2, Z_127) take the packed sort (int32 tags), not the argsort
    real, tag_dtypes = kernels._sort_tagged, []

    def record(codes):
        out = real(codes)
        tag_dtypes.append((len(codes), out[1].dtype))
        return out

    monkeypatch.setattr(kernels, "_sort_tagged", record)
    g = rm.generate_group(rm.standard_generators(1, 127))
    g.action_table(g.elements[g.generators[0]], g.elements[g.generators[1]])
    assert len(tag_dtypes) == len(g.levels) - 1 + 2  # the levels, build_index, the table
    assert [n for n, _ in tag_dtypes[-2:]] == [g.order, g.order] == [2_048_256] * 2
    assert all(dt == np.int32 for _, dt in tag_dtypes)


@pytest.mark.parametrize("n,bits", [
    (64_790_264, 26),  # the widest closure level of Sp(4, Z_5), measured
    (9_360_000, 24),  # its build_index and every |G|-row action table
])
def test_sp4_5_codes_stay_packed(n, bits):
    # codes of 4 x 4 matrices over Z_5 are below 5**16 < 2**38, so up to
    # 2**26 positions pack; one more position bit would not
    assert kernels._tag_bits(n, 5**16 - 1) == bits
    assert kernels._tag_bits(2**26 + 1, 5**16 - 1) is None


def test_sort_tagged_breaks_ties_by_position():
    codes = np.random.default_rng(0).integers(0, 10, 1000)
    assert _assert_sorts_as_stable_argsort(codes).dtype == np.int32
    assert len(_assert_sorts_as_stable_argsort(codes[:0])) == 0


def test_sort_tagged_on_void_keys():
    # two-word codes, as _codes gives past 2**63, with repeats
    words = np.random.default_rng(1).integers(0, 3, (200, 2)).astype(">u8")
    _assert_sorts_as_stable_argsort(words.view(np.dtype((np.void, 16))).ravel())


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("length", [0, 2**14 - 1, 2**14, 2**14 + 1,
                                    kernels.GATHER_BLOCK - 1, kernels.GATHER_BLOCK,
                                    kernels.GATHER_BLOCK + 1])
def test_gather_is_fancy_indexing(dtype, length):
    # lengths about 2**14, the block of earlier versions, and about GATHER_BLOCK
    # int64 values past int32 (character values are int64): nothing narrows
    rng = np.random.default_rng(length)
    src = rng.integers(-2**40, 2**40, size=1000).astype(dtype)
    for idx in (rng.integers(0, len(src), size=length, dtype=np.int32),
                rng.integers(0, len(src), size=length, dtype=np.int64)):
        got = kernels.gather(src, idx)
        assert got.dtype == src.dtype and got.shape == (length,)
        assert np.array_equal(got, src[idx])


class _NoReduction(np.ndarray):
    """An id array whose min and max may not be called."""

    def min(self, *args, **kwargs):
        raise AssertionError("min of an id array of one block")

    max = min


@pytest.mark.parametrize("length", [kernels.GATHER_BLOCK - 1, kernels.GATHER_BLOCK,
                                    kernels.GATHER_BLOCK + 1])
@pytest.mark.parametrize("at", [0, -1])
def test_gather_at_the_ends_of_the_id_range(length, at):
    # src[idx] for every id in [-len(src), len(src)), IndexError for any other,
    # whether the ids are taken whole or in blocks; one block takes no min or max
    src = np.random.default_rng(length).integers(-2**40, 2**40, size=1000)
    for bad, fits in ((-1, True), (-len(src), True), (len(src), False), (-len(src) - 1, False)):
        idx = np.arange(length, dtype=np.int32) % len(src)
        idx[at] = bad
        if length <= kernels.GATHER_BLOCK:
            idx = idx.view(_NoReduction)
        if fits:
            assert np.array_equal(kernels.gather(src, idx), src[np.asarray(idx)])
        else:
            with pytest.raises(IndexError):
                kernels.gather(src, idx)


def test_first_index_matches_unique():
    labels = np.random.default_rng(2).integers(0, 40, 500)
    first = kernels.first_index(labels, 50)
    present, want = np.unique(labels, return_index=True)
    assert np.array_equal(first[present], want)
    absent = np.setdiff1d(np.arange(50), present)  # 40..49 at least
    assert len(absent) >= 10 and np.all(first[absent] == len(labels))


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


def _cycle_move(n, n_cycles, rnd, falling=False):
    """A permutation of range(n): the ids are dealt into n_cycles sets, and
    each set, in ascending order, is one cycle whose ids rise along the move
    (or fall, with falling)."""
    colour = [rnd.randrange(n_cycles) for _ in range(n)]
    move = np.arange(n)
    for c in range(n_cycles):
        ids = [x for x in range(n) if colour[x] == c]
        move[ids] = np.roll(ids, 1 if falling else -1)
    return move


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4096), st.integers(1, 4), st.randoms(use_true_random=False))
# one rising 4096-cycle: without root hooking this takes one round per element
@example(4096, 1, random.Random(0))
def test_orbit_rounds_on_rising_cycles(n, n_cycles, rnd):
    # every cycle of move rises along it, and every cycle of its inverse falls
    move = _cycle_move(n, n_cycles, rnd)
    want, want_count = union_find_labels(n, [(x, int(move[x])) for x in range(n)])
    for t in (move, np.argsort(move)):
        moves = _CountingMoves([t])
        labels, count = kernels.orbits(moves, n)
        assert (labels.tolist(), count) == (want, want_count)
        assert moves.rounds <= 3 + int(np.log2(n))


def _count_gathers(monkeypatch):
    """kernels.gather, wrapped to count its calls: the list of their lengths."""
    calls, gather = [], kernels.gather

    def counting(src, idx, out=None):
        calls.append(len(idx))
        return gather(src, idx, out)

    monkeypatch.setattr(kernels, "gather", counting)
    return calls


@pytest.mark.parametrize("n, k", [(0, 1), (1, 2), (70_000, 3)])
def test_fixed_labels_cost_one_gather_a_move(monkeypatch, n, k):
    # moves that fix every label stop the first round: no hooking, no jumps
    calls = _count_gathers(monkeypatch)
    labels, count = kernels.orbits([np.arange(n)] * k, n)
    assert (labels.tolist(), count) == (list(range(n)), n)
    assert calls == [n] * k


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 512), st.lists(st.tuples(st.integers(1, 4), st.booleans()),
                                     min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_orbit_gathers_per_round(n, shapes, rnd):
    # each round that hooks gathers label[t] for all k moves and jumps twice;
    # the last round gathers label[t] for all k and finds every label fixed
    moves = _CountingMoves(_cycle_move(n, n_cycles, rnd, falling)
                           for n_cycles, falling in shapes)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_gathers(monkeypatch)
        kernels.orbits(moves, n)
    k, rounds = len(moves), moves.rounds
    assert len(calls) == (k + 2) * (rounds - 1) + k


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 512), st.lists(st.tuples(st.integers(1, 4), st.booleans()),
                                     min_size=2, max_size=4),
       st.randoms(use_true_random=False))
def test_orbits_of_rising_and_falling_moves(n, shapes, rnd):
    # 2-4 moves, each with cycles that all rise or all fall along it
    moves = [_cycle_move(n, n_cycles, rnd, falling) for n_cycles, falling in shapes]
    labels, count = kernels.orbits(moves, n)
    want, want_count = union_find_labels(
        n, [(x, int(t[x])) for t in moves for x in range(n)])
    assert (labels.tolist(), count) == (want, want_count)
