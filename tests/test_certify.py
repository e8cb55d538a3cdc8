import json
from types import SimpleNamespace

import numpy as np
import pytest

import reidemeister as rm
from conftest import (reference_coset_move, reference_refined_partition, semidirect_inv,
                      semidirect_mult, torus, within_one_second)
from reidemeister import certify, cli
from reidemeister.certify import FAIL, INCONCLUSIVE, PASS, _class_map, _refined_partition
from reidemeister.errors import PreconditionError, StructuralError


@pytest.fixture(scope="module")
def sp2_3():
    return rm.generate_group(rm.standard_generators(1, 3))


@pytest.fixture(scope="module")
def sp2_6():
    return rm.generate_group(rm.standard_generators(1, 6))


def _shears(m):
    """<[[1, 1], [0, 1]]> over Z_m, cyclic of order m."""
    return rm.generate_group([rm.ModMatrix([[1, 1], [0, 1]], m)])


def _nontrivial_inner(g):
    # conjugation by a non-central element is a nontrivial inner map
    return next(rm.inner(g, g.element(i)) for i in range(g.order)
                if not rm.inner(g, g.element(i)).is_identity)


def _merge_two_classes(monkeypatch):
    """Make certify's twisted_classes merge its classes 0 and 1."""
    real = certify.twisted_classes

    def merged(g, phi):
        part = real(g, phi)
        class_of = np.where(part.class_of == 1, 0, part.class_of)
        class_of = np.where(class_of > 1, class_of - 1, class_of)
        return rm.Partition(class_of, part.representatives[1:], np.bincount(class_of))

    monkeypatch.setattr(certify, "twisted_classes", merged)


class TestClassMap:
    def test_well_defined(self):
        image, ok = _class_map(np.array([1, 0, 1, 0]), np.array([7, 5, 7, 5]), 3)
        assert image.tolist() == [5, 7, -1]
        assert ok is True

    def test_not_well_defined(self):
        # label 0 meets dst 5 first, then 6: the first occurrence gives the image
        image, ok = _class_map(np.array([0, 1, 0]), np.array([5, 7, 6]), 2)
        assert image.tolist() == [5, 7]
        assert ok is False


class TestSemidirectOracle:
    def test_identity_automorphism(self, sp2_5):
        cert = rm.semidirect_oracle(sp2_5, rm.identity_automorphism(sp2_5))
        assert cert.verdict == PASS
        assert cert.computed["twisted_class_count"] == \
            rm.ordinary_classes(sp2_5).n_classes

    @pytest.mark.parametrize("p", [5, 7])
    def test_sign_flip(self, p, sp2_5, sp2_7):
        g = {5: sp2_5, 7: sp2_7}[p]
        cert = rm.semidirect_oracle(g, rm.sign_flip(g))
        assert cert.verdict == PASS
        assert cert.computed["semidirect_order"] == 2 * g.order

    def test_fixture_inner(self, dihedral8, gl2_z2, quaternion8):
        for g in (dihedral8, gl2_z2, quaternion8):
            # conjugation by a non-central element is a nontrivial inner map
            phi = next(rm.inner(g, g.element(i)) for i in range(g.order)
                       if not rm.inner(g, g.element(i)).is_identity)
            cert = rm.semidirect_oracle(g, phi)
            assert cert.verdict == PASS

    def test_batched_path_needs_no_scalar_products(self, sp2_5, sp2_7,
                                                  dihedral8, quaternion8, sp4_2):
        cases = [(g, rm.sign_flip(g)) for g in (sp2_5, sp2_7, sp4_2)]
        cases += [(g, _nontrivial_inner(g)) for g in (dihedral8, quaternion8)]
        for g, phi in cases:
            assert rm.semidirect_oracle(g, phi).verdict == PASS

    @pytest.mark.parametrize("k", [0, 1])
    def test_coset_moves_match_scalar_reference(self, k, sp2_7, dihedral8, quaternion8,
                                                dihedral8_outer):
        cases = [(sp2_7, rm.sign_flip(sp2_7)), (dihedral8, dihedral8_outer),
                 (dihedral8, rm.identity_automorphism(dihedral8)),
                 (quaternion8, _nontrivial_inner(quaternion8))]
        for g, phi in cases:
            conjugators = [(s, 0) for s in g.user_generators().values()]
            if phi.order() > 1:
                conjugators.append((g.identity, 1))
            moves = rm.coset_moves(g, phi, k)
            assert len(moves) == len(conjugators)
            for c, move in zip(conjugators, moves):
                assert np.array_equal(move, reference_coset_move(g, phi, c, k))

    def test_order_four_outer_automorphism(self, dihedral8, dihedral8_outer):
        cert = rm.semidirect_oracle(dihedral8, dihedral8_outer)
        assert cert.verdict == PASS
        assert cert.inputs["automorphism_order"] == 4
        assert cert.computed["semidirect_order"] == 32

    def test_one_move_per_user_generator(self, sp2_7):
        # 2 user generators plus their inverses are augmented to 4 columns
        assert len(sp2_7.generators) == 4
        assert sp2_7.user_generators() == dict(enumerate(sp2_7.generators[:2]))
        assert len(rm.coset_moves(sp2_7, rm.sign_flip(sp2_7), 1)) == 3

    def test_broken_table_breaks_product_rule(self, monkeypatch, dihedral8):
        real = rm.FiniteGroup.action_table
        monkeypatch.setattr(rm.FiniteGroup, "action_table",
                            lambda g, left, right: np.roll(real(g, left, right), 1))
        with pytest.raises(StructuralError):
            rm.semidirect_oracle(dihedral8, rm.sign_flip(dihedral8))

    def test_merged_classes_fail(self, monkeypatch, sp2_7):
        _merge_two_classes(monkeypatch)
        cert = rm.semidirect_oracle(sp2_7, rm.sign_flip(sp2_7))
        assert cert.computed["twisted_class_count"] == 6
        assert cert.computed["coset_conjugacy_class_count"] == 7
        assert cert.verdict == FAIL

    def test_semidirect_group_law(self, dihedral8):
        # the scalar product that reference_coset_move is built on is a group law
        phi = rm.inner(dihedral8, dihedral8.element(1))
        assert phi.order() == 2
        import random
        rng = random.Random(0)
        n = dihedral8.order

        def mult(a, b):
            return semidirect_mult(dihedral8, phi, a, b)

        for _ in range(200):
            a = (rng.randrange(n), rng.randrange(phi.order()))
            b = (rng.randrange(n), rng.randrange(phi.order()))
            c = (rng.randrange(n), rng.randrange(phi.order()))
            assert mult(mult(a, b), c) == mult(a, mult(b, c))
            assert mult(a, semidirect_inv(dihedral8, phi, a)) == (dihedral8.identity, 0)


class TestBurnsideOracle:
    def test_every_group(self, sp2_5, sp2_7, sp2_13, dihedral8, gl2_z2, quaternion8,
                         sp4_2, dihedral8_outer):
        cases = [(dihedral8, dihedral8_outer)]
        for g in (sp2_5, sp2_7, sp2_13, dihedral8, gl2_z2, quaternion8, sp4_2):
            cases += [(g, rm.identity_automorphism(g)), (g, _nontrivial_inner(g))]
            try:
                cases.append((g, rm.sign_flip(g)))
            except rm.IntegrityError:  # not normalized by diag(1, -1)
                pass
        for g, phi in cases:
            cert = rm.burnside_oracle(g, phi)
            assert cert.verdict == PASS
            assert cert.computed["class_map_well_defined"]
            assert cert.computed["fixed_class_count"] == \
                rm.twisted_classes(g, phi).n_classes

    def test_counts(self, sp2_7):
        cert = rm.burnside_oracle(sp2_7, rm.sign_flip(sp2_7))
        assert cert.computed == {"twisted_class_count": 7, "conjugacy_class_count": 11,
                                 "fixed_class_count": 7, "class_map_well_defined": True}

    def test_identity_fixes_every_class(self, sp2_5):
        cert = rm.burnside_oracle(sp2_5, rm.identity_automorphism(sp2_5))
        assert cert.computed["fixed_class_count"] == cert.computed["conjugacy_class_count"]

    def test_needs_no_scalar_products(self, sp2_7):
        phi = rm.sign_flip(sp2_7)
        assert rm.burnside_oracle(sp2_7, phi).verdict == PASS

    def test_merged_classes_fail(self, monkeypatch, sp2_7):
        _merge_two_classes(monkeypatch)
        cert = rm.burnside_oracle(sp2_7, rm.sign_flip(sp2_7))
        assert cert.computed["twisted_class_count"] == 6
        assert cert.computed["fixed_class_count"] == 7
        assert cert.verdict == FAIL

    def test_not_class_preserving_fails(self, sp2_5):
        # a bijection fixing the identity but mixing two classes is not an
        # automorphism; the class map is not well defined
        ordinary = rm.ordinary_classes(sp2_5)
        a, b = (int(np.flatnonzero(ordinary.class_of == c)[0]) for c in (1, 2))
        perm = np.arange(sp2_5.order)
        perm[[a, b]] = [b, a]
        fake = rm.Automorphism(sp2_5, perm, {"kind": "swap"}, _validated=True)
        cert = rm.burnside_oracle(sp2_5, fake)
        assert cert.computed["class_map_well_defined"] is False
        assert cert.verdict == FAIL


class TestShiftBijection:
    def test_identity_theta(self, sp2_5):
        cert = rm.shift_bijection_check(sp2_5, rm.sign_flip(sp2_5), sp2_5.identity)
        assert cert.verdict == PASS

    def test_every_theta_small_group(self, sp2_5):
        phi = rm.sign_flip(sp2_5)
        for theta in range(sp2_5.order):
            assert rm.shift_bijection_check(sp2_5, phi, theta).verdict == PASS

    def test_abelian_fixture(self):
        g = rm.generate_group([torus(2, 11)])
        phi = rm.identity_automorphism(g)
        for theta in range(g.order):
            assert rm.shift_bijection_check(g, phi, theta).verdict == PASS

    @pytest.mark.parametrize("theta", [-1, 120])
    def test_theta_outside_the_ids(self, theta, sp2_5):
        # |Sp(2, Z_5)| = 120: ids are 0..119, and -1 is not the last one
        with pytest.raises(PreconditionError, match="theta"):
            rm.shift_bijection_check(sp2_5, rm.sign_flip(sp2_5), theta)


class TestRefinedSplit:
    def test_identity_base(self, dihedral8, dihedral8_chi):
        cert = rm.refined_split_check(
            dihedral8, rm.identity_automorphism(dihedral8), dihedral8_chi)
        assert cert.verdict == PASS
        assert cert.computed["max_subsets_per_class"] <= 2

    def test_inner_base(self, dihedral8, dihedral8_chi):
        phi = rm.inner(dihedral8, dihedral8.element(1))
        cert = rm.refined_split_check(dihedral8, phi, dihedral8_chi)
        assert cert.verdict == PASS
        assert cert.computed["twist_classes_are_unions"]

    @pytest.mark.parametrize("m", [6, 10, 12])
    def test_schreier_moves_match_every_element(self, m):
        g = rm.generate_group(rm.standard_generators(1, m))
        chi = rm.Character.from_generator_values(g, [-1, -1])
        for phi in (rm.identity_automorphism(g), rm.sign_flip(g)):
            labels, count = _refined_partition(g, phi, chi)
            want, want_count = reference_refined_partition(g, phi, chi)
            assert count == want_count
            assert np.array_equal(labels, want)

    def test_trivial_character_rejected(self, dihedral8):
        with pytest.raises(PreconditionError):
            rm.refined_split_check(dihedral8, rm.identity_automorphism(dihedral8),
                                   rm.Character.trivial(dihedral8))

    def test_gl2_sign_character(self, gl2_z2):
        # GL(2, Z_2) ~ S3 acting on the 3 nonzero vectors; the sign
        # character is nontrivial, but -1 = 1 over Z_2 collapses the twist
        # back onto the base map, so the refinement check must still pass
        # with identical class counts on both sides.
        import numpy as np
        parity = []
        for i in range(gl2_z2.order):
            e = gl2_z2.element(i).entries
            # a 2x2 matrix over Z2 permutes the 3 nonzero vectors
            vecs = [(0, 1), (1, 0), (1, 1)]
            perm = []
            for v in vecs:
                w = ((e[0, 0] * v[0] + e[0, 1] * v[1]) % 2,
                     (e[1, 0] * v[0] + e[1, 1] * v[1]) % 2)
                perm.append(vecs.index(w))
            inversions = sum(1 for a in range(3) for b in range(a + 1, 3)
                             if perm[a] > perm[b])
            parity.append(1 if inversions % 2 == 0 else -1)
        chi = rm.Character(gl2_z2, np.array(parity))
        assert not chi.is_trivial
        cert = rm.refined_split_check(gl2_z2, rm.identity_automorphism(gl2_z2), chi)
        assert cert.verdict == PASS
        assert cert.computed["twisted_class_count"] == \
            cert.computed["phi_class_count"]


class TestQuotientEpi:
    def test_identity_reduction(self, sp2_5):
        cert = rm.quotient_epi_check(sp2_5, sp2_5, rm.sign_flip(sp2_5))
        assert cert.verdict == PASS
        assert cert.computed["class_count"] == cert.computed["target_class_count"]

    def test_9_to_3(self):
        g9 = rm.generate_group(rm.standard_generators(1, 9))
        g3 = rm.generate_group(rm.standard_generators(1, 3))
        assert g9.order == 648
        cert = rm.quotient_epi_check(g9, g3, rm.sign_flip(g9))
        assert cert.verdict == PASS
        assert cert.computed["class_count"] >= cert.computed["target_class_count"]

    def test_25_to_5(self, sp2_5):
        g25 = rm.generate_group(rm.standard_generators(1, 25))
        assert g25.order == 15000
        cert = rm.quotient_epi_check(g25, sp2_5, rm.sign_flip(g25))
        assert cert.verdict == PASS

    def test_non_divisor_rejected(self, sp2_5, sp2_7):
        with pytest.raises(StructuralError):
            rm.quotient_epi_check(sp2_5, sp2_7, rm.sign_flip(sp2_5))

    def test_dimension_mismatch(self, sp2_6, sp4_2):
        with pytest.raises(StructuralError,
                           match="^dimension mismatch between group and quotient$"):
            rm.quotient_epi_check(sp2_6, sp4_2, rm.sign_flip(sp2_6))

    def test_reduction_outside_the_target(self, sp2_6):
        with pytest.raises(StructuralError,
                           match=r"^reduction of element \d+ is not in the target group$"):
            rm.quotient_epi_check(sp2_6, _shears(3), rm.sign_flip(sp2_6))

    def test_reduction_not_onto(self, sp2_3):
        shears = _shears(6)
        with pytest.raises(StructuralError,
                           match="^reduction does not map onto the target group$"):
            rm.quotient_epi_check(shears, sp2_3, rm.identity_automorphism(shears))

    def test_twist_that_does_not_commute(self, sp2_6, sp2_3):
        # Sp(2, Z_6) = SL(2, Z_2) x SL(2, Z_3), and the S_3 sign character
        # reads the factor mod 2: its twist sends elements with one residue
        # mod 3 to both x and -x mod 3
        chi = rm.Character.from_generator_values(sp2_6, [-1, -1])
        phi = rm.character_twist(chi, rm.identity_automorphism(sp2_6))
        with pytest.raises(StructuralError,
                           match="^automorphism does not commute with the reduction"):
            rm.quotient_epi_check(sp2_6, sp2_3, phi)


class TestProp32:
    @pytest.mark.parametrize("p,v1,r", [(5, 2, 9), (7, 0, 7), (13, 2, 17)])
    def test_certificates(self, p, v1, r):
        cert = rm.prop32_certificate(p)
        assert cert.verdict == PASS
        assert cert.computed["v1_size"] == v1
        assert cert.computed["class_count"] == r
        assert cert.computed["class_count"] >= cert.computed["bound"]
        assert cert.computed["torus_pairing_ok"]
        assert cert.computed["torus_classes_exactly_pairs"]

    @pytest.mark.parametrize("relabel,pairing,exact", [
        (None, True, True),
        ("merge", True, False),  # the class of torus(2) joins that of torus(1) and (-1)
        ("split", False, False),  # torus(1) alone, apart from its partner torus(-1)
    ])
    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_torus_flags_match_scalar_reference(self, monkeypatch, p, relabel, pairing, exact):
        real = certify.twisted_classes

        def relabeled(g, phi):
            part = real(g, phi)
            class_of = part.class_of.copy()
            one, two = g.id_of(torus(1, p)), g.id_of(torus(2, p))
            if relabel == "merge":
                class_of[class_of == class_of[two]] = class_of[one]
            elif relabel == "split":
                class_of[one] = part.n_classes
            return rm.Partition(class_of, part.representatives, part.class_sizes)

        monkeypatch.setattr(certify, "twisted_classes", relabeled)
        cert = rm.prop32_certificate(p)
        # the torus flags, recomputed one unit w at a time from torus(w, p)
        g = rm.generate_group(rm.standard_generators(1, p))
        class_of = certify.twisted_classes(g, rm.sign_flip(g)).class_of
        label = {w: int(class_of[g.id_of(torus(w, p))]) for w in range(1, p)}
        v1 = [w for w in range(1, p) if w * w % p == p - 1]
        partner = {w: -pow(w, -1, p) % p for w in range(1, p) if w not in v1}
        assert pairing == all(label[w] == label[u] for w, u in partner.items())
        assert exact == all({x for x in label if label[x] == label[w]} == {w, u}
                            for w, u in partner.items())
        assert cert.computed["torus_pairing_ok"] == pairing
        assert cert.computed["torus_classes_exactly_pairs"] == exact
        assert cert.computed["v1_class_labels"] == sorted(label[w] for w in v1)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            rm.prop32_certificate(4)
        with pytest.raises(PreconditionError):
            rm.prop32_certificate(3)


class TestGrowthScan:
    def test_single_prime(self):
        cert = rm.growth_scan([5])
        assert cert.verdict == PASS
        assert cert.computed["rows"][0]["reidemeister_count"] == 9

    def test_default_primes_exact_counts(self):
        # frozen by enumeration (twice: orbit BFS and the O(|G|^2) oracle);
        # the count is p+4 when -1 is a square mod p (the flip is inner
        # there) and p otherwise, so the column is NOT monotone at 5 -> 7.
        cert = rm.growth_scan([5, 7, 11, 13])
        counts = [r["reidemeister_count"] for r in cert.computed["rows"]]
        assert counts == [9, 7, 11, 17]
        assert cert.computed["bound_ok"] is True
        assert cert.computed["strictly_increasing"] is False
        assert cert.verdict == FAIL

    def test_capacity_partial(self):
        cert = rm.growth_scan([5, 7], cap=200)
        assert cert.verdict == INCONCLUSIVE
        assert len(cert.computed["rows"]) == 1
        assert cert.computed["capacity_exceeded_at"] == 7

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            rm.growth_scan([7, 5])
        with pytest.raises(PreconditionError):
            rm.growth_scan([6])

    @pytest.mark.parametrize("n", [0, -1])
    def test_half_dimension_checked_before_the_primes(self, n):
        # with no dimension the int64 bound admits 2**61 - 1, whose trial
        # division would run for hours
        with within_one_second("growth_scan"), \
                pytest.raises(PreconditionError, match=f"^half-dimension must be >= 1, got {n}$"):
            rm.growth_scan([5, 2**61 - 1], n=n)

    def test_empty_prime_list_rejected(self):
        # an empty scan certifies nothing; it must not pass vacuously
        with pytest.raises(PreconditionError):
            rm.growth_scan([])

    def test_csv(self):
        cert = rm.growth_scan([5])
        csv = cli._certificate_report(SimpleNamespace(output="csv"), cert)
        assert csv.splitlines()[0] == "p,group_order,reidemeister_count,bound"
        assert csv.splitlines()[1] == "5,120,9,1"


class TestThm33Blocks:
    def test_exhaustive_p3(self):
        # frozen by exhaustive filtering over all 51840 elements: with the
        # only usable unit w = 2 = -1 mod 3, w - w^-1 = 0 and the rank
        # argument degenerates; 88 of the 96 torus solutions carry nonzero
        # off-diagonal blocks, so the verdict is honestly "fail" here.
        cert = rm.thm33_block_certificate(3)
        assert cert.computed["group_order"] == 51840
        assert cert.computed["solutions_in_torus"] == 96
        assert cert.computed["block_violations"] == 88
        assert cert.verdict == FAIL
        assert "first_violation_entries" in cert.computed

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            rm.thm33_block_certificate(4)
        with pytest.raises(PreconditionError):
            rm.thm33_block_certificate(3, n=1)
        with pytest.raises(PreconditionError):
            rm.thm33_block_certificate(3, w=3)


class TestCertificateFormat:
    def test_json_shape(self, sp2_5):
        cert = rm.semidirect_oracle(sp2_5, rm.sign_flip(sp2_5))
        payload = json.loads(cert.to_json())
        assert list(payload.keys()) == \
            ["format", "claim_id", "paper_anchor", "inputs", "computed", "verdict"]
        assert payload["format"] == 1

    def test_integers_only(self, sp2_5):
        cert = rm.prop32_certificate(5)
        def walk(x):
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)
            else:
                assert not isinstance(x, float)
        walk(cert.to_dict())


class TestMapsOfAnotherGroup:
    @pytest.mark.parametrize("entry", ["twisted_classes", "semidirect_oracle",
                                       "burnside_oracle", "refined_split_check",
                                       "quotient_epi_check", "compose", "character_twist"])
    def test_map_of_sp2_5_with_sp2_7(self, entry, sp2_5, sp2_7):
        phi = rm.sign_flip(sp2_5)
        calls = {
            "twisted_classes": [lambda: rm.twisted_classes(sp2_7, phi)],
            "semidirect_oracle": [lambda: rm.semidirect_oracle(sp2_7, phi)],
            "burnside_oracle": [lambda: rm.burnside_oracle(sp2_7, phi)],
            "refined_split_check": [
                lambda: rm.refined_split_check(sp2_7, phi, rm.Character.trivial(sp2_7)),
                lambda: rm.refined_split_check(sp2_7, rm.sign_flip(sp2_7),
                                               rm.Character.trivial(sp2_5))],
            "quotient_epi_check": [lambda: rm.quotient_epi_check(sp2_7, sp2_7, phi)],
            "compose": [lambda: rm.compose(rm.sign_flip(sp2_7), phi)],
            "character_twist": [
                lambda: rm.character_twist(rm.Character.trivial(sp2_7), phi)],
        }
        for call in calls[entry]:
            with pytest.raises(StructuralError, match="different group"):
                call()


def test_public_names_resolve():
    assert len(set(rm.__all__)) == len(rm.__all__)
    for name in rm.__all__:
        assert getattr(rm, name) is not None
    namespace = {}
    exec("from reidemeister import *", namespace)
    assert set(rm.__all__) <= set(namespace)
