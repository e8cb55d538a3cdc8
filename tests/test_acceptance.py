"""Acceptance gate: one criterion per test, one printed verdict line each.

Criterion 3 checks the growth that the R-infinity argument uses: over
p = 5..17 every row meets R >= (p-3)/2 (Lemma 2.2, Proposition 3.2) and
that certified bound strictly increases. Criterion 9 checks the Thm 3.3
block structure where its hypothesis w^2 != 1 (mod p) holds, p = 5 and 7,
through an independent support-mask oracle, and has that oracle reproduce
the certificate's p = 3 counts. The refutations of the stronger claims, a
non-monotone R column and 88 of 96 off-block solutions at p = 3, stay
frozen in test_certify.py and test_cli.py.
"""

import json
import random
import sys

import numpy as np
import pytest

import conftest
import reidemeister as rm
from reidemeister.certify import PASS


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    conftest.ACCEPTANCE_RESULTS[criterion] = line
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def groups():
    cache = {}

    def get(n, m):
        if (n, m) not in cache:
            cache[(n, m)] = rm.generate_group(rm.standard_generators(n, m))
        return cache[(n, m)]

    return get


def test_criterion_1_group_orders(groups):
    ok = all(groups(1, p).order == p * (p * p - 1) for p in (3, 5, 7, 11, 13))
    ok = ok and groups(2, 3).order == 51840 == rm.sp_order(2, 3)
    report(1, ok)


def test_criterion_2_prop32_bound(groups):
    ok = True
    for p in (5, 7, 11, 13, 17):
        cert = rm.prop32_certificate(p)
        expected_v1 = 2 if (p - 1) % 4 == 0 else 0
        ok = ok and cert.verdict == PASS
        ok = ok and cert.computed["class_count"] >= (p - 3) // 2
        ok = ok and cert.computed["v1_size"] == expected_v1
    report(2, ok)


def test_criterion_3_growth_strictly_increasing():
    # R(phi) >= R(phi_p) >= (p-3)/2 and the bound grows without limit; the
    # R column itself is not monotone (R = p+4 when -1 is a square mod p)
    primes = [5, 7, 11, 13, 17]
    cert = rm.growth_scan(primes)
    rows = cert.computed["rows"]
    counts = [r["reidemeister_count"] for r in rows]
    bounds = [r["bound"] for r in rows]
    ok = "capacity_exceeded_at" not in cert.computed
    ok = ok and [r["p"] for r in rows] == primes
    ok = ok and all(r["group_order"] == r["p"] * (r["p"] ** 2 - 1) for r in rows)
    ok = ok and cert.computed["bound_ok"] is True
    ok = ok and all(2 * r["reidemeister_count"] >= r["p"] - 3 for r in rows)
    ok = ok and bounds == [(p - 3) // 2 for p in primes]
    ok = ok and all(a < b for a, b in zip(bounds, bounds[1:]))
    report(3, ok, f"R column = {counts}, bound column = {bounds}")


def test_criterion_4_semidirect_oracle(groups):
    ok = True
    for p in (5, 7, 11):
        g = groups(1, p)
        ok = ok and rm.semidirect_oracle(g, rm.sign_flip(g)).verdict == PASS
    fixtures = []
    fixtures.append(rm.generate_group(
        [rm.ModMatrix([[0, 1], [2, 0]], 3), rm.ModMatrix([[1, 0], [0, 2]], 3)]))
    fixtures.append(rm.generate_group(
        [rm.ModMatrix([[0, 1], [1, 0]], 2), rm.ModMatrix([[1, 1], [0, 1]], 2)]))
    fixtures.append(rm.generate_group(
        [rm.ModMatrix([[0, 2], [1, 0]], 3), rm.ModMatrix([[1, 1], [1, 2]], 3)]))
    for g in fixtures:
        phi = next(rm.inner(g, g.element(i)) for i in range(g.order)
                   if not rm.inner(g, g.element(i)).is_identity)
        ok = ok and rm.semidirect_oracle(g, phi).verdict == PASS
    report(4, ok)


def test_criterion_5_shift_bijection(groups):
    ok = True
    rng = random.Random(0)
    for p in (5, 7):
        g = groups(1, p)
        phi = rm.sign_flip(g)
        for _ in range(5):
            theta = rng.randrange(g.order)
            cert = rm.shift_bijection_check(g, phi, theta)
            ok = ok and cert.verdict == PASS
            ok = ok and cert.computed["class_count"] == \
                cert.computed["shifted_class_count"]
    report(5, ok)


def test_criterion_6_image_in_same_class(groups):
    pairs = []
    for p in (5, 7, 11):
        g = groups(1, p)
        pairs.append((g, rm.sign_flip(g)))
    d8 = rm.generate_group(
        [rm.ModMatrix([[0, 1], [2, 0]], 3), rm.ModMatrix([[1, 0], [0, 2]], 3)])
    pairs.append((d8, rm.inner(d8, d8.element(1))))
    big = groups(2, 3)  # 51840 elements: sampled
    pairs.append((big, rm.sign_flip(big)))
    ok = True
    rng = random.Random(0)
    for g, phi in pairs:
        part = rm.twisted_classes(g, phi)
        if g.order <= 5000:
            ok = ok and bool(np.array_equal(part.class_of[phi.perm], part.class_of))
        else:
            sample = np.array([rng.randrange(g.order) for _ in range(10**5)])
            ok = ok and bool(np.array_equal(part.class_of[phi.perm[sample]],
                                            part.class_of[sample]))
    report(6, ok)


def test_criterion_7_quotient_epimorphism(groups):
    ok = True
    for m, mq in ((9, 3), (25, 5)):
        g = groups(1, m)
        q = groups(1, mq)
        cert = rm.quotient_epi_check(g, q, rm.sign_flip(g))
        ok = ok and cert.verdict == PASS
        ok = ok and cert.computed["class_map_surjective"]
        ok = ok and cert.computed["class_count"] >= cert.computed["target_class_count"]
    report(7, ok)


def test_criterion_8_torus_conjugation_closed_form():
    p = 13
    rng = random.Random(13)
    ok = True
    checked = 0
    while checked < 1000:
        a = rng.randrange(1, p)
        b, c = rng.randrange(p), rng.randrange(p)
        d = (1 + b * c) * pow(a, -1, p) % p
        w = rng.randrange(1, p)
        M = rm.ModMatrix([[a, b], [c, d]], p)
        if not rm.is_symplectic(M.entries, M.m):
            ok = False
            break
        wbar = conftest.torus(w, p)
        flipped_inv = rm.ModMatrix([[d, b], [c, a]], p)  # phi(M^-1)
        prod = M @ wbar @ flipped_inv
        wi = pow(w, -1, p)
        expected = rm.ModMatrix(
            [[w * a * d + wi * b * c, (w + wi) * a * b],
             [(w + wi) * c * d, w * b * c + wi * a * d]], p)
        if prod != expected:
            ok = False
            break
        checked += 1
    report(8, ok and checked == 1000)


def has_off_blocks(entries, n):
    mat = np.array(entries).reshape(2 * n, 2 * n)
    return bool(mat[2:, :2].any() or mat[:2, 2:].any())


def test_criterion_9_block_structure():
    # p = 3 is the degenerate case (w = 2 = -1, w^2 = 1): the oracle must
    # reproduce the certificate's frozen 96 solutions and 88 violations
    cert = rm.thm33_block_certificate(3, n=2)
    sols = conftest.torus_support_solutions(3, 2, cert.computed["w"])
    bad = [s for s in sols if has_off_blocks(s, 2)]
    ok = len(sols) == cert.computed["solutions_in_torus"] == 96
    ok = ok and len(bad) == cert.computed["block_violations"] == 88
    ok = ok and tuple(cert.computed["first_violation_entries"]) in bad
    detail = [f"p=3 w={cert.computed['w']}: {len(bad)}/{len(sols)}"]
    # where the hypothesis w^2 != 1 holds, no torus solution has off-blocks
    for p in (5, 7):
        for w in range(2, p):
            if w * w % p == 1:
                continue
            sols = conftest.torus_support_solutions(p, 2, w)
            bad = [s for s in sols if has_off_blocks(s, 2)]
            ok = ok and not bad and len(sols) >= p - 1
            detail.append(f"p={p} w={w}: {len(bad)}/{len(sols)}")
    report(9, ok, "off-block violations/torus solutions: " + ", ".join(detail))


def test_criterion_10_determinism(capsys):
    from reidemeister.cli import main
    outputs = []
    for _ in range(2):
        code = main(["certify-prop32", "--p", "5", "--seed", "1", "--no-header"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    same_cli = outputs[0] == outputs[1]
    json.loads(outputs[0])  # must be valid JSON
    same_lib = rm.growth_scan([5]).to_json() == rm.growth_scan([5]).to_json()
    report(10, same_cli and same_lib)
