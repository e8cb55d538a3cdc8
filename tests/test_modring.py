import math
import random
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reidemeister as rm
from reidemeister import modring
from reidemeister.errors import SingularMatrixError, StructuralError
from reidemeister.modring import (_is_prime, check_int64, entry_dtype, matmul_mod,
                                  product_dtype, symplectic_form)

from conftest import from_canonical_key, torus, within_one_second


def mm(entries, m):
    return rm.ModMatrix(entries, m)


class TestModulus:
    def test_prime_flag(self):
        assert _is_prime(7)
        assert not _is_prime(9)
        assert _is_prime(2)

    def test_too_small(self):
        # m = 0 checks that the bound is tested before any reduction by m
        for m in (1, 0, -3):
            with pytest.raises(StructuralError, match=f"modulus must be >= 2, got {m}"):
                rm.ModMatrix([[1, 0], [0, 1]], m)
        with pytest.raises(StructuralError, match="modulus must be >= 2, got 1"):
            rm.standard_generators(1, 1)


class TestMatMul:
    def test_identity(self):
        m = mm([[1, 2], [3, 4]], 5)
        ident = rm.ModMatrix.identity(2, 5)
        assert ident @ m == m
        assert m @ ident == m

    def test_diagonal_units(self):
        a = mm([[2, 0], [0, 3]], 5)
        b = mm([[3, 0], [0, 2]], 5)
        assert a @ b == rm.ModMatrix.identity(2, 5)

    def test_mismatch(self):
        with pytest.raises(StructuralError):
            mm([[1, 0], [0, 1]], 5) @ mm([[1, 0], [0, 1]], 7)

    def test_torus_conjugation_closed_form(self):
        # M wbar phi(M^-1) for symplectic M = [[a,b],[c,d]] has the closed
        # form [[w a d + w^-1 b c, (w + w^-1) a b], [(w + w^-1) c d, w b c + w^-1 a d]]
        p = 7
        rng = random.Random(42)
        checked = 0
        while checked < 20:
            a, b, c = rng.randrange(1, p), rng.randrange(p), rng.randrange(p)
            d = (1 + b * c) * pow(a, -1, p) % p
            w = rng.randrange(1, p)
            M = mm([[a, b], [c, d]], p)
            assert rm.is_symplectic(M.entries, M.m)
            wbar = torus(w, p)
            flipped_inv = mm([[d, b], [c, a]], p)  # phi(M^-1)
            prod = M @ wbar @ flipped_inv
            winv = pow(w, -1, p)
            expected = mm([[w * a * d + winv * b * c, (w + winv) * a * b],
                           [(w + winv) * c * d, w * b * c + winv * a * d]], p)
            assert prod == expected
            checked += 1


class TestInverse:
    def test_identity(self):
        ident = rm.ModMatrix.identity(4, 7)
        assert rm.mat_inverse(ident) == ident

    def test_det_one_adjugate(self):
        m = mm([[2, 3], [3, 0]], 5)  # det = -9 = 1 mod 5
        assert rm.det(m) == 1
        assert rm.mat_inverse(m) == mm([[0, -3], [-3, 2]], 5)

    def test_roundtrip_random_4x4(self):
        rng = random.Random(7)
        ident = rm.ModMatrix.identity(4, 7)
        found = 0
        while found < 10:
            m = mm([[rng.randrange(7) for _ in range(4)] for _ in range(4)], 7)
            if rm.det(m) == 0:
                continue
            assert m @ rm.mat_inverse(m) == ident
            assert rm.mat_inverse(m) @ m == ident
            found += 1

    def test_composite_modulus(self):
        m = mm([[1, 2], [0, 1]], 9)
        assert m @ rm.mat_inverse(m) == rm.ModMatrix.identity(2, 9)

    def test_singular_carries_det(self):
        with pytest.raises(SingularMatrixError) as e:
            rm.mat_inverse(mm([[2, 0], [0, 2]], 8))
        assert e.value.det == 4

    def test_non_unit_det_composite(self):
        with pytest.raises(SingularMatrixError):
            rm.mat_inverse(mm([[3, 0], [0, 1]], 9))


class TestDet:
    def test_known(self):
        assert rm.det(mm([[1, 2], [3, 4]], 11)) == (4 - 6) % 11

    def test_multiplicative(self):
        rng = random.Random(3)
        for m in (5, 12):
            for _ in range(25):
                a = mm([[rng.randrange(m) for _ in range(4)] for _ in range(4)], m)
                b = mm([[rng.randrange(m) for _ in range(4)] for _ in range(4)], m)
                assert rm.det(a @ b) == rm.det(a) * rm.det(b) % m


def _largest_modulus(d):
    """The largest m that check_int64 accepts in dimension d: d (m - 1)^2 < 2^63."""
    return math.isqrt((2**63 - 1) // d) + 1


def _preserves_form(a, m):
    """a^T J a = J mod m for a list-of-lists matrix, entry by entry in Python ints."""
    d = len(a)
    J = symplectic_form(d // 2).tolist()
    return all((sum(a[p][l] * J[p][q] * a[q][j] for p in range(d) for q in range(d))
                - J[l][j]) % m == 0 for l in range(d) for j in range(d))


def _int_product(a, b, m):
    return [[sum(x * y for x, y in zip(row, col)) % m for col in zip(*b)] for row in a]


@st.composite
def symplectic_stacks(draw):
    """(m, d, mats): d in {2, 4, 6}, m prime, composite or the largest modulus
    check_int64 accepts, and mats a list of d x d Python-int matrices over Z_m:
    members (products of transvections x -> x + w(x, v) v, built in Python
    ints) and others (random matrices, members with one entry moved)."""
    d = draw(st.sampled_from([2, 4, 6]))
    m = draw(st.sampled_from([2, 3, 97, 1009, 4, 12, 100, _largest_modulus(d)]))
    J = symplectic_form(d // 2).tolist()
    vector = st.lists(st.integers(0, m - 1), min_size=d, max_size=d)

    def transvection(v):
        jv = [sum(J[i][t] * v[t] for t in range(d)) for i in range(d)]
        return [[(int(i == j) + v[i] * jv[j]) % m for j in range(d)] for i in range(d)]

    def member():
        a = [[int(i == j) for j in range(d)] for i in range(d)]
        for v in draw(st.lists(vector, min_size=1, max_size=3)):
            a = _int_product(a, transvection(v), m)
        return a

    mats = []
    for kind in draw(st.lists(st.sampled_from(["member", "random", "moved"]),
                              min_size=1, max_size=6)):
        if kind == "random":
            mats.append([draw(vector) for _ in range(d)])
        else:
            a = member()
            if kind == "moved":
                i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
                a[i][j] = (a[i][j] + draw(st.integers(1, m - 1))) % m if m > 2 else 1 - a[i][j]
            else:
                assert _preserves_form(a, m)
            mats.append(a)
    return m, d, mats


class TestSymplectic:
    def test_largest_modulus_is_the_bound(self):
        for d in (2, 4, 6):
            m = _largest_modulus(d)
            check_int64(d, m)
            with pytest.raises(StructuralError, match="too large"):
                check_int64(d, m + 1)

    @settings(max_examples=200, deadline=None)
    @given(symplectic_stacks(), st.booleans(), st.booleans())
    def test_matches_the_definition(self, case, narrow, batched):
        # the column-pair test against a^T J a = J in exact integers, on int64
        # and on entry_dtype(m) stacks (as the closure stores its elements),
        # with one or two leading batch dimensions
        m, d, mats = case
        stack = np.array(mats, dtype=entry_dtype(m) if narrow else np.int64)
        if batched and len(mats) % 2 == 0:
            stack = stack.reshape(2, -1, d, d)
        got = rm.is_symplectic(stack, m)
        assert got.shape == stack.shape[:-2]
        assert got.ravel().tolist() == [_preserves_form(a, m) for a in mats]

    def test_identity(self):
        assert rm.is_symplectic(rm.ModMatrix.identity(4, 5).entries, 5)

    def test_torus(self):
        for p in (5, 13):
            for w in range(1, p):
                assert rm.is_symplectic(torus(w, p).entries, p)

    def test_scaled_diagonal_fails(self):
        assert not rm.is_symplectic(mm([[2, 0], [0, 2]], 5).entries, 5)

    def test_dim2_equals_det_one(self):
        rng = random.Random(11)
        for _ in range(200):
            m = mm([[rng.randrange(5) for _ in range(2)] for _ in range(2)], 5)
            assert rm.is_symplectic(m.entries, m.m) == (rm.det(m) == 1)

    def test_mask_on_a_mixed_stack(self):
        # members of Sp(4, Z_5) interleaved with non-members, as a (2, 4, 4, 4) stack
        ident = np.eye(4, dtype=np.int64)
        members = [g.entries for g in rm.standard_generators(2, 5)[:3]]
        members.append(np.diag([2, 3, 1, 1]))  # the torus element w = 2
        others = [2 * ident, np.diag([2, 2, 1, 1]), ident[[2, 1, 0, 3]],
                  ident + np.eye(4, k=2, dtype=np.int64)]
        stack = np.stack([x for pair in zip(members, others) for x in pair])
        got = rm.is_symplectic(stack.reshape(2, 4, 4, 4), 5)
        assert got.shape == (2, 4)
        assert got.ravel().tolist() == [True, False] * 4

    def test_closure_under_product_and_inverse(self):
        rng = random.Random(5)
        gens = rm.standard_generators(2, 5)
        words = []
        for _ in range(20):
            w = rm.ModMatrix.identity(4, 5)
            for _ in range(rng.randrange(1, 8)):
                w = w @ gens[rng.randrange(len(gens))]
            words.append(w)
        for a in words:
            assert rm.is_symplectic(a.entries, a.m)
            assert rm.is_symplectic(rm.mat_inverse(a).entries, a.m)
        for a, b in zip(words, words[1:]):
            assert rm.is_symplectic((a @ b).entries, a.m)


class TestInt64Bound:
    """dim * (m - 1)^2 must stay below 2^63 so no int64 product wraps."""

    def test_too_wide_modulus_rejected(self):
        m = 2**32 + 15
        with pytest.raises(StructuralError):
            a = mm([[2**32 + 1, 0], [0, 1]], m)
            a @ a  # would square to 4294967282, not 196
        with pytest.raises(StructuralError):
            rm.canonical_key(mm([[1, 0], [0, 1]], m))

    def test_bound_depends_on_dimension(self):
        m = 2**31  # 2 * (m - 1)^2 < 2^63 <= 4 * (m - 1)^2
        a = mm([[m - 1, m - 1], [m - 1, m - 1]], m)
        exact = [[(2 * (m - 1) ** 2) % m] * 2] * 2
        assert (a @ a).entries.tolist() == exact
        with pytest.raises(StructuralError):
            mm(np.eye(4, dtype=np.int64), m)
        with pytest.raises(StructuralError):
            mm(np.eye(2, dtype=np.int64), m + 1)

    @pytest.mark.parametrize("m", [2**61 - 1, 10**30])
    def test_checked_before_reducing(self, m):
        # a modulus beyond int64 would overflow the reduction itself, and a
        # Mersenne prime must not be trial-divided before it is rejected
        with within_one_second("ModMatrix"):
            with pytest.raises(StructuralError, match="too large"):
                mm([[1, 0], [0, 1]], m)


class TestProductDtype:
    """product_dtype(d, m) holds d * (m - 1)^2, the entries of the product of
    two all-(m - 1) matrices, in the narrowest of uint8, uint16, int32 and
    int64; each case sits just below or just above one of those bounds."""

    @pytest.mark.parametrize("d,m,want", [
        (255, 2, np.uint8),  # 255, the uint8 maximum
        (256, 2, np.uint16),  # 256
        (2, 12, np.uint8),  # 242
        (2, 13, np.uint16),  # 288
        (2, 182, np.uint16),  # 65,522
        (4, 129, np.int32),  # 65,536 = 2^16
        (2, 32768, np.int32),  # 2,147,352,578
        (2, 32769, np.int64),  # 2^31
        (2, 2**31, np.int64),  # 2^63 - 2^33 + 2
    ])
    def test_exact_at_each_bound(self, d, m, want):
        a = np.full((d, d), m - 1, dtype=np.int64)
        dt = product_dtype(d, m)
        got = a.astype(dt) @ a.astype(dt)
        assert np.array_equal(got, a @ a)
        assert all(int(x) == d * (m - 1) ** 2 for x in got.flat[:3])
        assert dt == want
        assert np.array_equal(matmul_mod(m, a, a), (a @ a) % m)

    def test_past_int64_rejected(self):
        with pytest.raises(StructuralError, match="too large"):
            product_dtype(2, 2**31 + 1)  # 2 * (2^31)^2 = 2^63


class TestGemmRoute:
    """A stack between single matrices goes through matmul_mod's float64
    GEMM; with _gemm_stack patched to None the same call takes the integer
    np.matmul route, which the result must equal entry for entry and in dtype."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([2, 3, 5, 13, 97, 127, 256, 257, 1009, 65537]),
           st.sampled_from([2, 4, 6]), st.sampled_from(["first", "middle", "last"]),
           st.integers(1, 2), st.integers(1, 2),
           st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_equals_the_integer_route(self, m, d, where, n_before, n_after, length,
                                      narrow, seed):
        # 0 rows, 1 row, or one GEMM block -1, exactly and +1
        rng = np.random.default_rng(seed)
        n = length[0] * (modring.GEMM_MACS // d**4) + length[1]
        stack = rng.integers(0, m, (n, d, d)).astype(entry_dtype(m) if narrow else np.int64)
        stack[:1] = m - 1  # the largest entries the bound must hold
        fixed = [rng.integers(0, m, (d, d)) for _ in range(n_before + n_after)]
        before = [] if where == "first" else fixed[:n_before]
        after = [] if where == "last" else fixed[n_before:]
        factors = (*before, stack, *after)
        assert modring._gemm_stack(m, factors) == len(before)
        got = matmul_mod(m, *factors)
        with mock.patch.object(modring, "_gemm_stack", return_value=None):
            want = matmul_mod(m, *factors)
        assert got.dtype == want.dtype == product_dtype(d, m)
        assert got.shape == (n, d, d)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m,gemm", [(2**25, True), (2**25 + 1, False)])
    def test_bound(self, m, gemm):
        # d = 2: d^2 m^2 <= 2^52 exactly up to m = 2^25
        rng = np.random.default_rng(m)
        stack = rng.integers(m - 3, m, (5, 2, 2))
        left, right = (rng.integers(m - 3, m, (2, 2)) for _ in range(2))
        assert (modring._gemm_stack(m, (left, stack, right)) is not None) == gemm
        got = matmul_mod(m, left, stack, right)
        assert got.dtype == np.int64
        for x, g in zip(stack.tolist(), got):
            assert g.tolist() == _int_product(_int_product(left.tolist(), x, m), right.tolist(), m)

    @pytest.mark.parametrize("shapes", [
        [(7, 2, 2)],  # one stack alone is returned as it is
        [(7, 2, 2), (7, 2, 2)],  # stack by stack
        [(2, 2), (2, 2)],  # no stack
        [(7, 1, 2, 2), (2, 2)],  # a 4-D stack
        [(16, 2), (3, 2, 2)],  # closure's row tables: digit rows by a stack
    ])
    def test_other_shapes_take_the_integer_route(self, shapes):
        assert modring._gemm_stack(5, [np.zeros(s, dtype=np.int64) for s in shapes]) is None

    def test_no_block_past_gemm_macs(self):
        # d = 22 fits one row a block (22^4 = 234,256); d = 24 would not
        assert modring._gemm_stack(3, (np.eye(22), np.zeros((1, 22, 22)))) == 1
        assert modring._gemm_stack(3, (np.eye(24), np.zeros((1, 24, 24)))) is None


class TestCanonicalKey:
    def test_equal_matrices_equal_keys(self):
        assert rm.canonical_key(mm([[1, 2], [3, 4]], 5)) == \
            rm.canonical_key(mm([[6, 7], [8, 9]], 5))

    def test_single_entry_difference(self):
        assert rm.canonical_key(mm([[1, 2], [3, 4]], 7)) != \
            rm.canonical_key(mm([[1, 2], [3, 5]], 7))

    def test_roundtrip(self):
        ident = rm.ModMatrix.identity(2, 5)
        assert from_canonical_key(rm.canonical_key(ident)) == ident

    def test_bit_exact_layout(self):
        key = rm.canonical_key(mm([[1, 2], [3, 4]], 5))
        assert key == struct.pack("<II", 2, 5) + bytes([1, 2, 3, 4])

    def test_wide_modulus_layout(self):
        key = rm.canonical_key(mm([[300, 0], [0, 1]], 1000))
        assert entry_dtype(1000) == "<u2"
        assert key == struct.pack("<II", 2, 1000) + struct.pack("<4H", 300, 0, 0, 1)
        assert from_canonical_key(key) == mm([[300, 0], [0, 1]], 1000)

    def test_injective_on_enumeration(self, sp2_5):
        keys = {rm.canonical_key(sp2_5.element(i)) for i in range(sp2_5.order)}
        assert len(keys) == sp2_5.order


class TestStructure:
    def test_odd_dim_rejected(self):
        with pytest.raises(StructuralError):
            rm.ModMatrix(np.eye(3, dtype=np.int64), 5)

    def test_empty_rejected(self):
        with pytest.raises(StructuralError, match="even and >= 2, got 0"):
            rm.ModMatrix(np.zeros((0, 0), dtype=np.int64), 5)

    def test_nonsquare_rejected(self):
        with pytest.raises(StructuralError):
            rm.ModMatrix(np.ones((2, 4), dtype=np.int64), 5)

    def test_entries_normalized(self):
        m = mm([[-1, 6], [0, 1]], 5)
        assert m.entries.tolist() == [[4, 1], [0, 1]]


small_matrix = st.integers(2, 9).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(0, m - 1), min_size=4, max_size=4)))


@settings(max_examples=60, deadline=None)
@given(small_matrix, small_matrix, small_matrix)
def test_associativity(am, bm, cm):
    m = am[0]
    a = mm(np.array(am[1]).reshape(2, 2), m)
    b = mm(np.array(bm[1]).reshape(2, 2) % m, m)
    c = mm(np.array(cm[1]).reshape(2, 2) % m, m)
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_identity_neutral(am):
    m = am[0]
    a = mm(np.array(am[1]).reshape(2, 2), m)
    ident = rm.ModMatrix.identity(2, m)
    assert a @ ident == a
    assert ident @ a == a
