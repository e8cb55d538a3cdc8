import random

import numpy as np
import pytest
from hypothesis import given, settings

import reidemeister as rm
from reidemeister import kernels
from reidemeister.group import DEFAULT_CAP, sp_group, twisted_moves
from reidemeister.errors import (CapacityError, IntegrityError, SingularMatrixError,
                                 StructuralError)

from conftest import (brute_force_twisted_partition, mul_ids, small_groups_with_automorphism,
                      torus, verify_closure, within_one_second)


class TestGenerateGroup:
    def test_trivial(self):
        g = rm.generate_group([rm.ModMatrix.identity(2, 5)])
        assert g.order == 1
        assert g.identity == 0

    def test_sp2_orders(self, sp2_5, sp2_7):
        assert sp2_5.order == 120
        assert sp2_7.order == 336

    def test_sp4_z3_order(self):
        g = rm.generate_group(rm.standard_generators(2, 3))
        assert g.order == 51840
        assert g.order == rm.sp_order(2, 3)

    def test_composite_orders(self):
        assert rm.generate_group(rm.standard_generators(1, 9)).order == 648
        assert rm.sp_order(1, 9) == 648
        assert rm.sp_order(1, 25) == 15000

    def test_symplectic_flag(self, sp2_5, dihedral8):
        assert sp2_5.symplectic
        assert not dihedral8.symplectic

    def test_cap(self):
        with pytest.raises(CapacityError) as e:
            rm.generate_group(rm.standard_generators(1, 7), cap=10)
        assert e.value.found == 10

    @pytest.mark.parametrize("m,bad", [(13, [7]), (29, [9000, 5000]), (61, [200_000, 70_000])],
                             ids=["one-chunk", "later-chunks", "later-blocks"])
    def test_symplectic_check_names_first_bad_element(self, monkeypatch, m, bad):
        # the per-element check stays live: a closure that returns a
        # non-symplectic element (row 0 doubled) is refused, naming the least
        # bad id, also past the first 4,096 rows (|Sp(2, Z_29)| = 24,360) and
        # past the first SYMPLECTIC_BLOCK of 2**16 (|Sp(2, Z_61)| = 226,920)
        real = kernels.closure

        def corrupt(*args):
            elements, *rest = real(*args)
            for i in bad:
                elements[i, 0] = elements[i, 0] * 2 % m
            return (elements, *rest)

        monkeypatch.setattr(kernels, "closure", corrupt)
        with pytest.raises(IntegrityError,
                           match=f"element {min(bad)} violates the symplectic condition"):
            rm.generate_group(rm.standard_generators(1, m))

    def test_huge_sp_group_refused_uncounted(self):
        # |Sp(6000, Z_3)| >= 2**(3000**2): the cap rejects it before sp_order,
        # whose big products would not finish, and names no count
        with within_one_second("sp_group(3000, 3)"):
            with pytest.raises(CapacityError) as e:
                sp_group(3000, 3, DEFAULT_CAP)
        assert e.value.found is None
        assert str(e.value) == "closure exceeded cap of 10000000 elements (too many to count)"

    def test_singular_generator(self):
        with pytest.raises(SingularMatrixError):
            rm.generate_group([rm.ModMatrix([[2, 0], [0, 2]], 8)])

    def test_mixed_moduli(self):
        with pytest.raises(StructuralError):
            rm.generate_group([rm.ModMatrix.identity(2, 5),
                               rm.ModMatrix.identity(2, 7)])

    def test_generators_closed_under_inverse(self, sp2_5):
        gen_ids = set(sp2_5.generators)
        for s in sp2_5.generators:
            assert sp2_5.inverse_id(s) in gen_ids

    def test_determinism(self):
        a = rm.generate_group(rm.standard_generators(1, 7))
        b = rm.generate_group(rm.standard_generators(1, 7))
        assert np.array_equal(a.elements, b.elements)
        assert np.array_equal(a.parents, b.parents)
        pa = rm.twisted_classes(a, rm.sign_flip(a))
        pb = rm.twisted_classes(b, rm.sign_flip(b))
        assert np.array_equal(pa.class_of, pb.class_of)
        assert np.array_equal(pa.representatives, pb.representatives)

    def test_parent_links(self, sp2_5):
        gens = sp2_5.elements[sp2_5.generators].astype(np.int64)
        for i in range(1, sp2_5.order):
            prod = (sp2_5.elements[sp2_5.parents[i]] @ gens[sp2_5.parent_gens[i]]) % sp2_5.m
            assert np.array_equal(prod, sp2_5.elements[i])

    def test_verify_closure(self, sp2_5):
        assert verify_closure(sp2_5)

    def test_verify_closure_reports_escape(self, sp2_5):
        # the same group with its last element dropped is not closed
        n = sp2_5.order - 1
        index = kernels.build_index(sp2_5.elements[:n], sp2_5.m)
        g = rm.FiniteGroup(sp2_5.elements[:n], sp2_5.parents[:n], sp2_5.parent_gens[:n],
                           index, sp2_5.right[:, :n], sp2_5.levels, sp2_5.gen_source,
                           sp2_5.m, True)
        with pytest.raises(IntegrityError, match="escapes the group"):
            verify_closure(g)


class TestPartitions:
    def test_sizes_sum(self, sp2_5):
        part = rm.twisted_classes(sp2_5, rm.sign_flip(sp2_5))
        assert int(part.class_sizes.sum()) == sp2_5.order

    def test_ordinary_matches_brute_force(self, sp2_5):
        part = rm.ordinary_classes(sp2_5)
        labels, count = brute_force_twisted_partition(
            sp2_5, rm.identity_automorphism(sp2_5))
        assert part.n_classes == count
        # same partition up to relabeling
        mapping = {}
        for mine, theirs in zip(part.class_of, labels):
            assert mapping.setdefault(int(mine), theirs) == theirs

    def test_twisted_matches_brute_force(self, sp2_5):
        phi = rm.sign_flip(sp2_5)
        part = rm.twisted_classes(sp2_5, phi)
        labels, count = brute_force_twisted_partition(sp2_5, phi)
        assert part.n_classes == count
        mapping = {}
        for mine, theirs in zip(part.class_of, labels):
            assert mapping.setdefault(int(mine), theirs) == theirs

    @settings(max_examples=40, deadline=None)
    @given(small_groups_with_automorphism())
    def test_matches_brute_force_exactly(self, case):
        g, phi = case
        part = rm.twisted_classes(g, phi)
        labels, count = brute_force_twisted_partition(g, phi)
        assert part.n_classes == count
        assert part.class_of.tolist() == labels

    def test_identity_automorphism_gives_ordinary(self, sp2_7):
        a = rm.ordinary_classes(sp2_7)
        b = rm.twisted_classes(sp2_7, rm.identity_automorphism(sp2_7))
        assert np.array_equal(a.class_of, b.class_of)

    def test_abelian_group_singletons(self):
        g = rm.generate_group([torus(2, 11)])
        assert g.order == 10
        part = rm.ordinary_classes(g)
        assert part.n_classes == g.order
        assert all(int(s) == 1 for s in part.class_sizes)

    def test_identity_class_is_singleton(self, sp2_5):
        part = rm.ordinary_classes(sp2_5)
        c = part.class_of[sp2_5.identity]
        assert int(part.class_sizes[c]) == 1

    def test_partition_soundness(self, sp2_7):
        phi = rm.sign_flip(sp2_7)
        part = rm.twisted_classes(sp2_7, phi)
        ident = np.eye(sp2_7.dim, dtype=np.int64)
        for s in sp2_7.generators:
            move = sp2_7.action_table(
                sp2_7.elements[s],
                sp2_7.elements[sp2_7.inverse_id(phi.perm[s])])
            assert np.array_equal(part.class_of[move], part.class_of)

    def test_lemma61_image_in_same_class(self, sp2_5, sp2_7, dihedral8):
        for g in (sp2_5, sp2_7):
            phi = rm.sign_flip(g)
            part = rm.twisted_classes(g, phi)
            assert np.array_equal(part.class_of[phi.perm], part.class_of)
        phi = rm.inner(dihedral8, dihedral8.element(1))
        part = rm.twisted_classes(dihedral8, phi)
        assert np.array_equal(part.class_of[phi.perm], part.class_of)

    def test_action_axioms(self, sp2_5):
        phi = rm.sign_flip(sp2_5)
        rng = random.Random(0)
        n = sp2_5.order

        def act(a, x):
            elems = sp2_5.elements.astype(np.int64)
            prod = (elems[a] @ elems[x] @ elems[sp2_5.inverse_id(phi.perm[a])]) % sp2_5.m
            return sp2_5.id_of(rm.ModMatrix(prod, sp2_5.m))

        for _ in range(500):
            a, b, x = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            assert act(a, act(b, x)) == act(mul_ids(sp2_5, a, b), x)
            assert act(sp2_5.identity, x) == x

    def test_representatives_lex_minimal(self, sp2_5):
        part = rm.twisted_classes(sp2_5, rm.sign_flip(sp2_5))
        keys = [rm.canonical_key(sp2_5.element(i)) for i in range(sp2_5.order)]
        for c in range(part.n_classes):
            members = [i for i in range(sp2_5.order) if part.class_of[i] == c]
            assert int(part.representatives[c]) == min(members, key=keys.__getitem__)


class TestGatheredTables:
    """Every action table is a chain of gathers from the right Cayley table;
    FiniteGroup.action_table, matmul and lookup, is only the reference."""

    def test_no_matmul_tables_or_scalar_products(self, monkeypatch, sp2_7, dihedral8,
                                                 dihedral8_chi):
        def refuse(*args, **kwargs):
            raise AssertionError("matmul-and-lookup table or scalar product used")

        monkeypatch.setattr(rm.FiniteGroup, "action_table", refuse)
        phi = rm.sign_flip(sp2_7)
        rm.twisted_classes(sp2_7, rm.compose(rm.inner(sp2_7, sp2_7.element(5)), phi))
        assert rm.shift_bijection_check(sp2_7, phi, 11).verdict == "pass"
        assert dihedral8_chi.validate()
        base = rm.inner(dihedral8, dihedral8.element(1))
        twisted = rm.character_twist(dihedral8_chi, base)
        rm.twisted_classes(dihedral8, twisted)
        assert rm.refined_split_check(dihedral8, base, dihedral8_chi).verdict == "pass"

    def test_gathered_tables_match_reference(self, sp2_7, dihedral8):
        ident = np.eye(2, dtype=np.int64)
        for g in (sp2_7, dihedral8):
            for phi in (rm.identity_automorphism(g), rm.sign_flip(g),
                        rm.inner(g, g.element(3))):
                for s, move in zip(g.generators, twisted_moves(g, phi, g.generators)):
                    w = g.inverse_id(phi.perm[s])
                    ref = g.action_table(g.elements[s], g.elements[w])
                    assert move.dtype == np.int32 and np.array_equal(move, ref)
            for x in range(g.order):
                assert np.array_equal(g.extend(g.generators, start=x),
                                      g.action_table(g.elements[x], ident))
                assert np.array_equal(g.times(np.arange(g.order), x),
                                      g.action_table(ident, g.elements[x]))

    def test_gathered_tables_past_the_storage_width(self, sp2_13):
        # 2 * 12^2 = 288 > 255: products of these uint8 elements are exact
        # only in matmul_mod's product dtype, and a uint8 matmul would wrap
        g, ident = sp2_13, np.eye(2, dtype=np.int64)
        assert g.elements.dtype == np.uint8
        for x in range(0, g.order, 97):
            assert np.array_equal(g.times(np.arange(g.order), x),
                                  g.action_table(ident, g.elements[x]))
            assert np.array_equal(g.extend(g.generators, start=x),
                                  g.action_table(g.elements[x], ident))

    @pytest.mark.parametrize("m, k", [(2, 6), (3, 12)])
    def test_padded_words_past_four_columns(self, m, k):
        # u's conjugates of the generators have words of lengths 1 and 3,
        # so extend pads the short ones, on 6 columns and on 12
        g = rm.generate_group(rm.standard_generators(2, m))
        shear = np.eye(4, dtype=np.int64)
        shear[0, 1] = 1  # u = I + E_01: inner:1,1,0,0,0,1,0,0,0,0,1,0,0,0,0,1
        u = rm.ModMatrix(shear, m)
        phi = rm.inner(g, u)
        assert len(g.generators) == k
        assert {len(g.word(int(a))) for a in phi.perm[g.generators]} == {1, 3}
        assert np.array_equal(phi.perm, g.action_table(u.entries, rm.mat_inverse(u).entries))
        for s, move in zip(g.generators, twisted_moves(g, phi, g.generators)):
            w = g.inverse_id(phi.perm[s])
            assert np.array_equal(move, g.action_table(g.elements[s], g.elements[w]))

    def test_twisted_classes_move_by_user_generators(self, monkeypatch, sp2_7):
        # 2 user generators plus their inverses are augmented to 4 columns;
        # the inverse columns' moves are the inverse permutations, redundant
        handed = []
        real = kernels.orbits

        def spy(moves, n):
            handed.append(len(moves))
            return real(moves, n)

        phi = rm.sign_flip(sp2_7)
        monkeypatch.setattr(kernels, "orbits", spy)
        rm.twisted_classes(sp2_7, phi)
        assert len(sp2_7.generators) == 4
        assert handed == [len(sp2_7.user_generators())] == [2]

    def test_character_twist_negates_by_gathers(self, dihedral8, dihedral8_chi):
        base = rm.inner(dihedral8, dihedral8.element(1))
        ident = np.eye(2, dtype=np.int64)
        neg = dihedral8.action_table((-ident) % 3, ident)
        want = np.where(dihedral8_chi.values == 1, base.perm, neg[base.perm])
        assert np.array_equal(rm.character_twist(dihedral8_chi, base).perm, want)

    def test_extension_is_the_entrywise_sign_flip(self, sp2_7):
        signs = np.array([[1, -1], [-1, 1]])
        entrywise = sp2_7.ids_of((sp2_7.elements * signs) % sp2_7.m)
        assert np.array_equal(rm.sign_flip(sp2_7).perm, entrywise)


class TestSharedPartition:
    """twisted_classes computes each automorphism's partition once and
    shares it, read-only, with every later call."""

    def test_second_call_returns_the_same_partition(self, monkeypatch, sp2_7):
        calls = []
        real = kernels.orbits
        monkeypatch.setattr(kernels, "orbits", lambda *args: calls.append(1) or real(*args))
        phi = rm.sign_flip(sp2_7)
        first = rm.twisted_classes(sp2_7, phi)
        assert rm.twisted_classes(sp2_7, phi) is first
        assert len(calls) == 1

    def test_arrays_and_perm_are_read_only(self, sp2_5):
        phi = rm.sign_flip(sp2_5)
        part = rm.twisted_classes(sp2_5, phi)
        for a in (part.class_of, part.representatives, part.class_sizes, phi.perm):
            with pytest.raises(ValueError):
                a[0] = a[0]

    def test_other_group_raises_after_caching(self, sp2_5, sp2_7):
        phi = rm.sign_flip(sp2_5)
        rm.twisted_classes(sp2_5, phi)
        with pytest.raises(StructuralError):
            rm.twisted_classes(sp2_7, phi)

    def test_derived_maps_get_their_own_partitions(self, sp2_5, dihedral8, dihedral8_chi):
        phi = rm.sign_flip(sp2_5)
        base = rm.inner(dihedral8, dihedral8.element(1))
        for g, parent, derived in (
                (sp2_5, phi, rm.compose(rm.inner(sp2_5, sp2_5.element(5)), phi)),
                (dihedral8, base, rm.character_twist(dihedral8_chi, base))):
            own = rm.twisted_classes(g, parent)
            part = rm.twisted_classes(g, derived)
            assert part is not own
            labels, count = brute_force_twisted_partition(g, derived)
            assert (part.class_of.tolist(), part.n_classes) == (labels, count)
            assert rm.twisted_classes(g, parent) is own


class TestRestrictTo:
    """Class labels of chosen element ids, read from Partition.class_of."""

    def test_identity_label(self, sp2_5):
        part = rm.ordinary_classes(sp2_5)
        assert sp2_5.identity == 0
        assert part.class_of[sp2_5.identity] == 0

    def test_torus_pairing_p13(self, sp2_13):
        p = 13
        part = rm.twisted_classes(sp2_13, rm.sign_flip(sp2_13))
        ids = {w: sp2_13.id_of(torus(w, p)) for w in range(1, p)}
        non_v1 = [w for w in range(1, p) if (w * w) % p != p - 1]
        labels = {ids[w]: int(part.class_of[ids[w]]) for w in non_v1}
        for w in non_v1:
            partner = (-pow(w, -1, p)) % p
            assert labels[ids[w]] == labels[ids[partner]]
        # distinct labels among non-V1 torus elements: (p-3)/2 here
        assert len(set(labels.values())) == (p - 3) // 2

    def test_class_count_is_label_count(self, sp2_5):
        part = rm.twisted_classes(sp2_5, rm.sign_flip(sp2_5))
        assert part.n_classes == len(set(int(c) for c in part.class_of))
