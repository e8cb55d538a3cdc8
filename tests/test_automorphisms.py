import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reidemeister as rm
from conftest import mul_ids, reference_character_values
from reidemeister.automorphisms import (RANDOM_PAIR_SAMPLES, _check_homomorphism,
                                        _from_generator_images, load_character_file,
                                        parse_descriptor)
from reidemeister.errors import (IntegrityError, PreconditionError, StructuralError,
                                 UnsupportedTwistError)
from reidemeister.group import random_pairs


class TestSignFlip:
    def test_fixes_identity(self, sp2_5):
        phi = rm.sign_flip(sp2_5)
        assert phi.perm[sp2_5.identity] == sp2_5.identity

    def test_entrywise_signs(self, sp2_7):
        phi = rm.sign_flip(sp2_7)
        m = rm.ModMatrix([[2, 3], [3, 5]], 7)  # det = 1 mod 7
        assert sp2_7.element(phi.perm[sp2_7.id_of(m)]) == rm.ModMatrix([[2, -3], [-3, 5]], 7)

    def test_involution(self, sp2_5):
        phi = rm.sign_flip(sp2_5)
        assert np.array_equal(phi.perm[phi.perm], np.arange(sp2_5.order))
        assert phi.order() == 2

    def test_dim4(self):
        g = rm.generate_group(rm.standard_generators(2, 3))
        phi = rm.sign_flip(g)
        m = g.element(5)
        signs = np.fromfunction(lambda i, j: 1 - 2 * ((i + j) % 2), (4, 4))
        expected = rm.ModMatrix(m.entries * signs.astype(np.int64), 3)
        assert g.element(phi.perm[5]) == expected


class TestInner:
    def test_identity_conjugator(self, sp2_5):
        phi = rm.inner(sp2_5, rm.ModMatrix.identity(2, 5))
        assert phi == rm.identity_automorphism(sp2_5)

    def test_group_element_gives_ordinary_count(self, sp2_5):
        theta = sp2_5.element(7)
        count = rm.twisted_classes(sp2_5, rm.inner(sp2_5, theta)).n_classes
        assert count == rm.ordinary_classes(sp2_5).n_classes

    def test_diag_matches_sign_flip(self, sp2_5, sp2_7):
        for g in (sp2_5, sp2_7):
            d = rm.ModMatrix([[1, 0], [0, -1]], g.m)
            assert rm.inner(g, d) == rm.sign_flip(g)

    def test_composition_law(self, sp2_5):
        u = sp2_5.element(3)
        v = sp2_5.element(11)
        left = rm.compose(rm.inner(sp2_5, u), rm.inner(sp2_5, v))
        right = rm.inner(sp2_5, u @ v)
        assert left == right

    def test_normalizer_check_exact_at_wide_modulus(self):
        # u x u^-1 on {I, -I}: the unreduced triple product wraps int64 here
        m = 2**21 + 17
        g = rm.generate_group([rm.ModMatrix(-np.eye(2, dtype=np.int64), m)])
        u = rm.ModMatrix([[m - 2, 1], [m - 3, 1]], m)
        assert rm.det(u) == 1
        neg = g.element(1)
        assert u @ neg @ rm.mat_inverse(u) == neg
        assert rm.inner(g, u).is_identity

    def test_non_normalizing_conjugator(self, dihedral8):
        with pytest.raises(IntegrityError):
            rm.inner(dihedral8, rm.ModMatrix([[1, 1], [0, 1]], 3))

    @pytest.mark.parametrize("u", [rm.ModMatrix.identity(4, 5), rm.ModMatrix.identity(2, 7)])
    def test_conjugator_of_another_shape_or_ring(self, sp2_5, u):
        with pytest.raises(StructuralError, match="^conjugator has wrong dimension or modulus$"):
            rm.inner(sp2_5, u)

    def test_order_vs_element_order(self, sp2_5):
        # u of element order 4 with central square: the induced permutation
        # has order 2, not 4
        u = rm.ModMatrix([[0, 1], [-1, 0]], 5)
        uid = sp2_5.id_of(u)
        u2 = mul_ids(sp2_5, uid, uid)
        assert sp2_5.element(u2) == rm.ModMatrix([[-1, 0], [0, -1]], 5)
        phi = rm.inner(sp2_5, u)
        assert phi.order() == 2

    def test_descriptor(self, sp2_5):
        u = sp2_5.element(3)
        desc = rm.inner(sp2_5, u).descriptor
        assert desc["kind"] == "inner"
        assert desc["conjugator"] == [int(x) for x in u.entries.ravel()]


class TestCharacter:
    def test_trivial(self, sp2_5):
        chi = rm.Character.trivial(sp2_5)
        assert chi.is_trivial
        assert chi.validate()

    def test_determinant_character(self, dihedral8, dihedral8_chi):
        assert not dihedral8_chi.is_trivial
        assert dihedral8_chi.validate()
        assert dihedral8_chi.values[dihedral8.identity] == 1

    def test_from_generator_values(self, dihedral8, dihedral8_chi):
        # dihedral generators: rotation (det 1), reflection (det -1)
        chi = rm.Character.from_generator_values(dihedral8, [1, -1])
        assert np.array_equal(chi.values, dihedral8_chi.values)
        assert np.array_equal(chi.values, reference_character_values(dihedral8, [1, -1]))

    @pytest.mark.parametrize("m", [6, 10, 12])
    def test_level_walk_matches_per_element_loop(self, m):
        # the S_3 sign character of SL(2, Z_2), pulled back along Z_m -> Z_2
        g = rm.generate_group(rm.standard_generators(1, m))
        chi = rm.Character.from_generator_values(g, [-1, -1])
        want = reference_character_values(g, [-1, -1])
        assert chi.values.dtype == want.dtype and np.array_equal(chi.values, want)
        assert not chi.is_trivial

    def test_inconsistent_values_rejected(self, sp2_5):
        # Sp(2, Z_5) is perfect: no nontrivial character can exist
        with pytest.raises(IntegrityError):
            rm.Character.from_generator_values(sp2_5, [-1, 1])

    def test_bad_values_rejected(self, dihedral8):
        with pytest.raises(Exception):
            rm.Character.from_generator_values(dihedral8, [1, 2])

    def test_validate_rejects_malformed_tables(self, dihedral8, dihedral8_chi):
        outside = np.ones(dihedral8.order)
        outside[3] = 0
        for values, message in [(np.ones(dihedral8.order - 1), "table has wrong size"),
                                (outside, "values outside {+1,-1}"),
                                (-dihedral8_chi.values, "does not send identity to +1")]:
            with pytest.raises(IntegrityError, match=re.escape(f"character {message}")):
                rm.Character(dihedral8, values)

    def test_non_integer_values_rejected_not_truncated(self, dihedral8, dihedral8_chi):
        # int() would truncate these to the S_3 sign character [-1, -1] and
        # the trivial one [1, 1] of Sp(2, Z_6)
        g = rm.generate_group(rm.standard_generators(1, 6))
        for gen_values in ([-1.7, -1.2], [1.9, 1.2]):
            with pytest.raises(StructuralError, match="character values must be"):
                rm.Character.from_generator_values(g, gen_values)
        assert not rm.Character.from_generator_values(g, [-1, -1]).is_trivial
        chi = rm.Character.from_generator_values(dihedral8, {0: 1, 1: -1})
        assert np.array_equal(chi.values, dihedral8_chi.values)

    @pytest.mark.parametrize("gen_values", [[-1], {0: -1}])
    def test_missing_value_rejected(self, gen_values):
        g = rm.generate_group(rm.standard_generators(1, 6))
        with pytest.raises(StructuralError, match="no character value for generator 1"):
            rm.Character.from_generator_values(g, gen_values)


@pytest.fixture(scope="module")
def sp2_12():
    return rm.generate_group(rm.standard_generators(1, 12))


@pytest.fixture(scope="module", params=[
    ("sp2_12", "sign_flip"), ("sp2_12", "inner"), ("sp2_12", "character"),
    ("sp4_2", "sign_flip"), ("sp4_2", "inner"), ("dihedral8", "inner")], ids="-".join)
def valid_table(request):
    """(g, table, times, mul) as _check_homomorphism takes them, for a valid
    automorphism or character: the sign flip, conjugation by the first
    generator (on dihedral8 the quarter turn; its reflection, an involution,
    is one column) or the S_3 sign character of Sp(2, Z_12)."""
    name, kind = request.param
    g = request.getfixturevalue(name)
    if kind == "character":
        return g, rm.Character.from_generator_values(g, [-1, -1]).values, np.multiply, np.multiply
    phi = rm.sign_flip(g) if kind == "sign_flip" else rm.inner(g, g.element(g.generators[0]))
    return g, phi.perm, g.times, g.products


class TestValidation:
    @pytest.mark.parametrize("make, message", [
        (lambda n: np.arange(n - 1), "image table has wrong size"),
        (lambda n: np.append(np.arange(n - 1), n), "not a bijection of the element table"),
        (lambda n: np.append(np.arange(n - 1), -1), "not a bijection of the element table"),
        (lambda n: np.roll(np.arange(n), 1), "identity not fixed"),
    ])
    def test_malformed_tables_rejected(self, sp2_5, make, message):
        with pytest.raises(IntegrityError, match=f"^bad: {message}$"):
            rm.Automorphism(sp2_5, make(sp2_5.order), {"kind": "bad"})

    def test_all_zero_table_fails_only_as_a_bijection(self, sp2_5):
        # x -> identity is a homomorphism: only the bijectivity check refutes it
        zero = np.zeros(sp2_5.order, dtype=np.int64)
        _check_homomorphism(sp2_5, zero, sp2_5.times, sp2_5.products, "zero")
        with pytest.raises(IntegrityError, match="^zero: not a bijection of the element table$"):
            rm.Automorphism(sp2_5, zero, {"kind": "zero"})

    def test_random_pair_check(self, monkeypatch, dihedral8, dihedral8_chi):
        # every product reported as the identity: the Cayley edges, read from
        # the table, pass, and the random pairs, multiplied by products, do not
        monkeypatch.setattr(rm.FiniteGroup, "products",
                            lambda g, a, b: np.zeros(len(a), dtype=np.int32))
        with pytest.raises(IntegrityError,
                           match=r"^character not multiplicative at pair \(\d+,\d+\)$"):
            rm.Character(dihedral8, dihedral8_chi.values)

    def test_swap_rejected(self, sp2_5):
        # a bijection fixing the identity that swaps two other elements
        perm = np.arange(sp2_5.order)
        perm[[1, 2]] = [2, 1]
        with pytest.raises(IntegrityError, match="homomorphism property fails at gen"):
            rm.Automorphism(sp2_5, perm, {"kind": "swap"})

    def test_images_that_do_not_extend_rejected(self, sp2_5):
        # both user generators sent to the first (and their inverses to its
        # inverse): the extension agrees with itself on every BFS tree edge,
        # so only the other Cayley edges can refute it
        assert sp2_5.gen_source == [0, 1, 0, 1]  # columns a, b, a^-1, b^-1
        a, _, a_inv, _ = sp2_5.generators
        images = [a, a, a_inv, a_inv]
        perm = sp2_5.extend(images)
        for x in range(1, sp2_5.order):
            parent, c = sp2_5.parents[x], sp2_5.parent_gens[x]
            assert perm[x] == sp2_5.times(perm[[parent]], images[c])[0]
        with pytest.raises(IntegrityError, match="homomorphism property fails at gen"):
            _from_generator_images(sp2_5, sp2_5.elements[images], {"kind": "bad"}, "{}")

    @pytest.mark.parametrize("table", ["automorphism", "character"])
    def test_corrupt_entry_fails_at_a_cayley_edge(self, table):
        # Sp(2, Z_12), |G| = 1152, with its sign flip and the S_3 sign
        # character: the entry corrupted is one that no seeded random pair
        # reads, so only the Cayley-edge check can refute the table
        g = rm.generate_group(rm.standard_generators(1, 12))
        i, j = random_pairs(g.order, RANDOM_PAIR_SAMPLES)
        unread = np.setdiff1d(np.arange(1, g.order), np.concatenate([i, j, g.products(i, j)]))
        x, y = unread[:2]
        if table == "automorphism":
            perm = rm.sign_flip(g).perm.copy()
            perm[x] = perm[y]
            build, args = rm.Automorphism, (g, perm, {"kind": "corrupt"})
        else:
            values = rm.Character.from_generator_values(g, [-1, -1]).values.copy()
            values[x] *= -1
            build, args = rm.Character, (g, values)
        with pytest.raises(IntegrityError, match=r"at generator \d+$"):
            build(*args)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_first_failing_column_is_that_of_all_columns(self, valid_table, data):
        # the edge check skips the second column of each inverse pair; one
        # corrupted non-identity entry must still fail at the column, and so
        # with the message, that a loop over all k columns finds first
        g, table, times, mul = valid_table
        f = table.copy()
        x = data.draw(st.integers(1, g.order - 1), label="x")
        if mul is np.multiply:
            f[x] *= -1
        else:
            f[x] = data.draw(st.integers(0, g.order - 1).filter(lambda v: v != f[x]))
        first = next(s for c, s in enumerate(g.generators)
                     if not np.array_equal(f[g.right[c]], times(f, f[s])))
        with pytest.raises(IntegrityError, match=f"^bad at generator {first}$"):
            _check_homomorphism(g, f, times, mul, "bad")

    def test_sign_flip_needs_normalizer(self):
        # <[[0, 1], [2, 1]]> over Z_3 is cyclic of order 6; its sign flip
        # [[0, 2], [1, 1]] is not in it
        g = rm.generate_group([rm.ModMatrix([[0, 1], [2, 1]], 3)])
        assert g.order == 6
        with pytest.raises(IntegrityError, match="not normalized by diag"):
            rm.sign_flip(g)


class TestCharacterFile:
    def test_repeated_generator(self, tmp_path):
        # generators [a, a, b]: gen_source names the first a and b only, and
        # a file giving a and b is complete
        a, b = rm.ModMatrix([[1, 1], [0, 1]], 5), rm.ModMatrix([[1, 0], [1, 1]], 5)
        g = rm.generate_group([a, a, b])
        assert g.gen_source == [0, 2, 0, 2]
        path = tmp_path / "char.txt"
        path.write_text("".join(f"{rm.canonical_key(x).hex()}=+1\n" for x in (a, b)))
        chi = load_character_file(g, str(path))
        assert np.array_equal(chi.values, np.ones(g.order))
        assert parse_descriptor(g, f"twist:{path}").descriptor == {"kind": "identity"}


class TestCharacterTwist:
    def test_trivial_character_is_noop(self, sp2_5):
        base = rm.sign_flip(sp2_5)
        assert rm.character_twist(rm.Character.trivial(sp2_5), base) == base

    def test_twist_twice(self, dihedral8, dihedral8_chi):
        base = rm.identity_automorphism(dihedral8)
        once = rm.character_twist(dihedral8_chi, base)
        twice = rm.character_twist(dihedral8_chi, once)
        assert once != base
        assert twice == base

    def test_twisted_is_valid_automorphism(self, dihedral8, dihedral8_chi):
        base = rm.inner(dihedral8, dihedral8.element(1))
        twisted = rm.character_twist(dihedral8_chi, base)
        # construction re-validates; spot check a few pairs directly
        for i in range(dihedral8.order):
            for j in range(dihedral8.order):
                assert twisted.perm[mul_ids(dihedral8, i, j)] == \
                    mul_ids(dihedral8, twisted.perm[i], twisted.perm[j])

    def test_missing_negative_identity(self):
        shear = rm.generate_group([rm.ModMatrix([[1, 1], [0, 1]], 3)])
        assert shear.order == 3
        chi = rm.Character(shear, np.array([1, -1, 1]), _validated=True)
        with pytest.raises(UnsupportedTwistError):
            rm.character_twist(chi, rm.identity_automorphism(shear))

    def test_descriptor(self, dihedral8, dihedral8_chi):
        t = rm.character_twist(dihedral8_chi, rm.identity_automorphism(dihedral8))
        assert t.descriptor["kind"] == "character_twist"
        assert t.descriptor["character"] == dihedral8_chi.digest()


class TestParseDescriptor:
    def test_named(self, sp2_5):
        assert parse_descriptor(sp2_5, "identity").is_identity
        assert parse_descriptor(sp2_5, "sign_flip") == rm.sign_flip(sp2_5)

    def test_inner_entries(self, sp2_5):
        phi = parse_descriptor(sp2_5, "inner:1,0,0,-1")
        assert phi == rm.sign_flip(sp2_5)

    def test_bad_specs(self, sp2_5):
        with pytest.raises(PreconditionError):
            parse_descriptor(sp2_5, "frobenius")
        with pytest.raises(PreconditionError):
            parse_descriptor(sp2_5, "inner:1,2,3")
        with pytest.raises(PreconditionError):
            parse_descriptor(sp2_5, "inner:a,b,c,d")


class TestOrder:
    def test_identity(self, sp2_5):
        assert rm.identity_automorphism(sp2_5).order() == 1

    def test_lazy_idempotent(self, sp2_5):
        phi = rm.sign_flip(sp2_5)
        assert phi.order() == phi.order() == 2

    def test_lcm_of_cycle_lengths(self, sp2_5):
        # order() depends on the permutation alone: a 2-cycle and a 3-cycle,
        # with no 6-cycle, give order 6, not the longest cycle's length
        perm = np.arange(sp2_5.order)
        perm[[1, 2, 3, 4, 5]] = [2, 1, 4, 5, 3]
        phi = rm.Automorphism(sp2_5, perm, {"kind": "cycles"}, _validated=True)
        assert phi.order() == 6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 335), st.booleans())
    def test_least_power_giving_identity(self, sp2_7, conjugator, flip):
        phi = rm.sign_flip(sp2_7) if flip else rm.identity_automorphism(sp2_7)
        phi = rm.compose(rm.inner(sp2_7, sp2_7.element(conjugator)), phi)
        k, power = 1, phi.perm
        while not np.array_equal(power, np.arange(sp2_7.order)):
            k, power = k + 1, phi.perm[power]
        assert phi.order() == k
