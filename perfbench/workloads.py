"""Job lists of the three benchmark workloads, built from a seed.

A job is one unit of work through the public API of ``reidemeister``.  It
returns two dicts: what it observed, and the values that closed forms
predict (|G| from ``sp_order``, R(sign flip) = p or p + 4 on Sp(2, Z_p)).
The observed dict must equal the frozen values in ``expected.json``
merged with those closed-form values.  Job keys never depend on the seed,
so one frozen table serves every seed.

Jobs call the package through attributes of the module they are handed
(``rd.generate_group(...)``), looked up at call time, so a traced run sees
every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("sp2-sign-flip", "sp4-oracles", "small-many")
SIZES = ("full", "tiny")

# Pipeline stages a job passes through; ru_maxrss is read after each.
STAGES = ("enumerate", "automorphism", "partition", "certificate", "report")


@dataclass(frozen=True)
class Job:
    key: str
    run: Callable  # run(rd, ctx) -> (observed, closed_form)
    inputs: dict = field(default_factory=dict)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def partition_digest(part) -> str:
    """Pins class ids, representatives and sizes bit for bit."""
    h = hashlib.sha256()
    for arr in (part.class_of, part.representatives, part.class_sizes):
        h.update(arr.astype("<i8").tobytes())
    return h.hexdigest()


def certificate_digest(cert) -> str:
    return sha256_hex(cert.to_json().encode())


def sign_flip_r(p: int) -> int:
    """R(sign flip) on Sp(2, Z_p) for a prime p >= 5: p + 4 if p = 1 mod 4, else p."""
    return p + 4 if p % 4 == 1 else p


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _sp(rd, n, m):
    return rd.generate_group(rd.standard_generators(n, m))


# --- sp2-sign-flip -----------------------------------------------------------

def _sign_flip_job(p):
    def run(rd, ctx):
        with ctx.stage("enumerate"):
            g = _sp(rd, 1, p)
        with ctx.stage("automorphism"):
            phi = rd.sign_flip(g)
        with ctx.stage("partition"):
            part = rd.twisted_classes(g, phi)
        observed = {"order": g.order, "R": part.n_classes,
                    "partition": partition_digest(part)}
        return observed, {"order": rd.sp_order(1, p), "R": sign_flip_r(p)}

    return Job(f"sp2-sign-flip/p{p}", run, {"p": p})


def sp2_sign_flip(size, rng):
    return [_sign_flip_job(97 if size == "full" else 13)]


# --- sp4-oracles -------------------------------------------------------------

def sp4_oracles(size, rng):
    """One Sp(4, Z_m) shared by the oracle jobs, then the Thm 3.3 filter."""
    m = 3 if size == "full" else 2
    order = 51840 if m == 3 else 720  # |Sp(4, Z_m)|, to draw theta up front
    thetas = [rng.randrange(order) for _ in range(3)]
    pre = f"sp4-oracles/m{m}"

    def build(rd, ctx):
        with ctx.stage("enumerate"):
            g = ctx.shared["g"] = _sp(rd, 2, m)
        with ctx.stage("automorphism"):
            phi = ctx.shared["phi"] = rd.sign_flip(g)
        with ctx.stage("partition"):
            part = rd.twisted_classes(g, phi)
        observed = {"order": g.order, "R": part.n_classes,
                    "partition": partition_digest(part)}
        return observed, {"order": rd.sp_order(2, m)}

    def semidirect(rd, ctx):
        with ctx.stage("certificate"):
            cert = rd.semidirect_oracle(ctx.shared["g"], ctx.shared["phi"])
        return {"verdict": cert.verdict, "certificate": certificate_digest(cert)}, {}

    def shift(theta):
        def run(rd, ctx):
            with ctx.stage("certificate"):
                cert = rd.shift_bijection_check(ctx.shared["g"], ctx.shared["phi"], theta)
            observed = {"theta": cert.inputs["theta"], "verdict": cert.verdict}
            # theta is seed-chosen; the rest of the certificate is frozen.
            cert.inputs["theta"] = 0
            observed["certificate"] = certificate_digest(cert)
            return observed, {"theta": theta}

        return Job(f"{pre}/shift", run, {"theta": theta})

    def thm33(rd, ctx):
        with ctx.stage("certificate"):
            cert = rd.thm33_block_certificate(3, n=2)
        observed = {"verdict": cert.verdict,
                    "solutions": cert.computed["solutions_in_torus"],
                    "violations": cert.computed["block_violations"],
                    "certificate": certificate_digest(cert)}
        return observed, {}

    return ([Job(f"{pre}/twisted", build, {"n": 2, "m": m}),
             Job(f"{pre}/semidirect", semidirect)]
            + [shift(t) for t in thetas]
            + [Job("sp4-oracles/thm33", thm33, {"p": 3, "n": 2})])


# --- small-many --------------------------------------------------------------

def _classes_job(m):
    def run(rd, ctx):
        with ctx.stage("enumerate"):
            g = _sp(rd, 1, m)
        with ctx.stage("partition"):
            ordinary = rd.ordinary_classes(g)
        with ctx.stage("automorphism"):
            phi = rd.sign_flip(g)
        with ctx.stage("partition"):
            twisted = rd.twisted_classes(g, phi)
        observed = {"order": g.order, "classes": ordinary.n_classes,
                    "ordinary": partition_digest(ordinary), "R": twisted.n_classes,
                    "twisted": partition_digest(twisted)}
        closed = {"order": rd.sp_order(1, m)}
        if m >= 5 and _is_prime(m):
            closed["R"] = sign_flip_r(m)
        return observed, closed

    return Job(f"small-many/classes-m{m}", run, {"m": m})


def _quotient_job(m, q):
    def run(rd, ctx):
        with ctx.stage("enumerate"):
            g = _sp(rd, 1, m)
            target = _sp(rd, 1, q)
        with ctx.stage("automorphism"):
            phi = rd.sign_flip(g)
        with ctx.stage("certificate"):
            cert = rd.quotient_epi_check(g, target, phi)
        return {"verdict": cert.verdict, "certificate": certificate_digest(cert)}, {}

    return Job(f"small-many/quotient-m{m}-q{q}", run, {"m": m, "target": q})


def _growth_job(primes):
    def run(rd, ctx):
        with ctx.stage("certificate"):
            cert = rd.growth_scan(primes)
        column = [row["reidemeister_count"] for row in cert.computed["rows"]]
        observed = {"verdict": cert.verdict, "column": column,
                    "certificate": certificate_digest(cert)}
        return observed, {"column": [sign_flip_r(p) for p in primes]}

    return Job("small-many/growth-" + "-".join(map(str, primes)), run,
               {"primes": list(primes)})


def _prop32_job(p):
    def run(rd, ctx):
        with ctx.stage("certificate"):
            cert = rd.prop32_certificate(p)
        observed = {"verdict": cert.verdict, "certificate": certificate_digest(cert)}
        return observed, {}

    return Job(f"small-many/prop32-p{p}", run, {"p": p})


def _refined_job(m):
    def run(rd, ctx):
        with ctx.stage("enumerate"):
            g = _sp(rd, 1, m)
        with ctx.stage("automorphism"):
            # sign character of SL(2, Z_2) = S_3, pulled back along Z_m -> Z_2
            chi = rd.Character.from_generator_values(g, [-1, -1])
            phi = rd.sign_flip(g)
        with ctx.stage("certificate"):
            cert = rd.refined_split_check(g, phi, chi)
        return {"verdict": cert.verdict, "certificate": certificate_digest(cert)}, {}

    return Job(f"small-many/refined-m{m}", run, {"m": m})


def _cli_job(name, argv):
    def run(rd, ctx):
        out = ctx.scratch / f"{name}.out"
        with ctx.stage("report"):
            status = rd.cli.main(list(argv) + ["--no-header", "--out", str(out)])
        report = out.read_bytes()
        out.unlink()
        return {"exit": status, "report": sha256_hex(report)}, {}

    return Job(f"small-many/cli-{name}", run, {"argv": list(argv)})


def small_many(size, rng):
    top = 24 if size == "full" else 8
    primes = [p for p in range(5, top) if _is_prime(p)]
    jobs = [_classes_job(m) for m in range(2, top + 1)]
    jobs += [_quotient_job(m, q) for m in range(4, top + 1) if not _is_prime(m)
             for q in range(2, m) if m % q == 0 and _is_prime(q)]
    jobs.append(_growth_job(primes))
    jobs += [_prop32_job(p) for p in primes]
    jobs += [_refined_job(m) for m in ((6, 10, 12) if size == "full" else (6,))]
    cli = [("order", ["order", "--modulus", "11"]),
           ("classes-csv", ["classes", "--modulus", "8", "--output", "csv"]),
           ("twisted-text", ["twisted", "--modulus", "13", "--output", "text"]),
           ("oracle-quotient", ["oracle-quotient", "--modulus", "15", "--target", "5"]),
           ("oracle-shift", ["oracle-shift", "--modulus", "7", "--trials", "2"]),
           ("growth-csv", ["certify-growth", "--primes", "5,7,11", "--output", "csv"])]
    jobs += [_cli_job(name, argv) for name, argv in (cli if size == "full" else cli[:2])]
    rng.shuffle(jobs)
    return jobs


JOB_LISTS = {"sp2-sign-flip": sp2_sign_flip, "sp4-oracles": sp4_oracles,
            "small-many": small_many}


def build(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The job list of a workload; the same seed gives the same list."""
    return JOB_LISTS[workload](size, random.Random(seed))
