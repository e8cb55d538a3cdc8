"""Command-line interface: group construction, class enumeration, oracles
and certification scans with reproducible JSON/CSV reports.

Exit status: 0 pass, 1 fail verdict, 2 usage/structural error, 3 capacity
error, 4 internal error (any other exception, reported on one stderr line;
it is a bug, never a verdict).  Reports are byte-identical across reruns
with the same flags and seed; the only timestamp lives in the optional
header line (suppress with --no-header).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from datetime import datetime, timezone

from . import certify
from .automorphisms import parse_descriptor
from .errors import CapacityError, IntegrityError, PreconditionError, StructuralError
from .generators import sp_order
from .group import DEFAULT_CAP, ordinary_classes, sp_group, twisted_classes
from .modring import canonical_key

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _add_common(p):
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="element cap for closure")
    p.add_argument("--output", choices=["json", "csv", "text"], default="json")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of oracle-shift's random thetas; others ignore it")
    p.add_argument("--no-header", action="store_true",
                   help="suppress the timestamped header line")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="reidemeister",
        description="Twisted conjugacy class enumeration and certification "
                    "for finite symplectic matrix groups.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="order of Sp(2n, Z_m) by enumeration")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--modulus", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("classes", help="ordinary conjugacy classes of Sp(2n, Z_m)")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--modulus", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("twisted", help="twisted conjugacy classes under an automorphism")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--aut", default="sign_flip",
                   help="sign_flip | identity | inner:<entries> | twist:<char-file>")
    _add_common(p)

    p = sub.add_parser("certify-prop32", help="lower bound and torus pairing certificate")
    p.add_argument("--p", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("certify-growth", help="growth scan over a prime list")
    p.add_argument("--primes", default="5,7,11,13", help="comma-separated ascending primes")
    p.add_argument("--n", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("oracle-semidirect", help="semidirect-product conjugacy oracle")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--aut", default="sign_flip")
    _add_common(p)

    p = sub.add_parser("oracle-burnside",
                       help="twisted Burnside-Frobenius count: phi-invariant classes")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--aut", default="sign_flip")
    _add_common(p)

    p = sub.add_parser("oracle-shift", help="inner-shift class bijection check")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--aut", default="sign_flip")
    p.add_argument("--trials", type=int, default=5, help="number of seeded random thetas")
    _add_common(p)

    p = sub.add_parser("oracle-quotient", help="ring-quotient epimorphism check")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--target", type=int, required=True, help="target modulus m' | m")
    p.add_argument("--aut", default="sign_flip")
    _add_common(p)

    p = sub.add_parser("blocks-thm33", help="torus-reduction block structure filter")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--modulus", type=int, default=3)
    p.add_argument("--w", type=int, default=None)
    _add_common(p)

    return ap


def _emit(args, payload: str):
    out = sys.stdout
    close = False
    if args.out:
        out = open(args.out, "w")
        close = True
    try:
        if not args.no_header:
            stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            out.write(f"# reidemeister {args.command} format=1 {stamp}\n")
        out.write(payload)
        if not payload.endswith("\n"):
            out.write("\n")
    finally:
        if close:
            out.close()


def _report_json(fields: dict) -> str:
    return json.dumps({"format": 1, **fields}, indent=2)


def _partition_report(args, g, part, label):
    if args.output == "csv":
        lines = ["class_id,representative,size"]
        for c in range(part.n_classes):
            rep = canonical_key(g.element(int(part.representatives[c]))).hex()
            lines.append(f"{c},{rep},{int(part.class_sizes[c])}")
        return "\n".join(lines) + "\n"
    fields = {
        "command": label,
        "n": args.n,
        "modulus": args.modulus,
        "group_order": g.order,
        "class_count": part.n_classes,
        "class_sizes": [int(x) for x in part.class_sizes],
    }
    if args.output == "text":
        return "\n".join(f"{k}: {v}" for k, v in fields.items() if k != "class_sizes")
    return _report_json(fields)


def _certificate_report(args, cert):
    if args.output == "csv" and cert.claim_id == "lemma2.2-growth-evidence":
        return certify.growth_rows_csv(cert)
    if args.output == "text":
        lines = [f"claim: {cert.claim_id}", f"verdict: {cert.verdict}"]
        lines += [f"{k}: {v}" for k, v in cert.computed.items() if k != "rows"]
        for r in cert.computed.get("rows", []):
            lines.append(f"  p={r['p']} order={r['group_order']} "
                         f"R={r['reidemeister_count']} bound={r['bound']}")
        return "\n".join(lines)
    return cert.to_json()


def run(args) -> int:
    if args.cap < 1:
        raise PreconditionError(f"--cap must be >= 1, got {args.cap}")
    if args.command == "order":
        g = sp_group(args.n, args.modulus, args.cap)
        payload = _report_json({"command": "order", "n": args.n,
                                "modulus": args.modulus, "group_order": g.order,
                                "order_formula": sp_order(args.n, args.modulus)})
        _emit(args, payload)
        return EXIT_PASS

    if args.command == "classes":
        g = sp_group(args.n, args.modulus, args.cap)
        part = ordinary_classes(g)
        _emit(args, _partition_report(args, g, part, "classes"))
        return EXIT_PASS

    if args.command == "twisted":
        g = sp_group(args.n, args.modulus, args.cap)
        phi = parse_descriptor(g, args.aut)
        part = twisted_classes(g, phi)
        _emit(args, _partition_report(args, g, part, "twisted"))
        return EXIT_PASS

    if args.command == "certify-prop32":
        cert = certify.prop32_certificate(args.p, cap=args.cap)
    elif args.command == "certify-growth":
        try:
            primes = [int(x) for x in args.primes.split(",") if x.strip()]
        except ValueError:
            raise PreconditionError(f"--primes must be comma-separated integers, "
                                    f"got {args.primes!r}") from None
        cert = certify.growth_scan(primes, n=args.n, cap=args.cap)
    elif args.command == "oracle-semidirect":
        g = sp_group(args.n, args.modulus, args.cap)
        phi = parse_descriptor(g, args.aut)
        cert = certify.semidirect_oracle(g, phi, cap=args.cap)
    elif args.command == "oracle-burnside":
        g = sp_group(args.n, args.modulus, args.cap)
        cert = certify.burnside_oracle(g, parse_descriptor(g, args.aut))
    elif args.command == "oracle-shift":
        if args.trials < 1:
            raise PreconditionError(f"--trials must be >= 1, got {args.trials}")
        g = sp_group(args.n, args.modulus, args.cap)
        phi = parse_descriptor(g, args.aut)
        rng = random.Random(args.seed)
        certs = [certify.shift_bijection_check(g, phi, rng.randrange(g.order))
                 for _ in range(args.trials)]
        worst = next((c for c in certs if c.verdict != certify.PASS), certs[-1])
        worst.computed["trials"] = args.trials
        worst.computed["all_pass"] = all(c.verdict == certify.PASS for c in certs)
        worst.verdict = certify.PASS if worst.computed["all_pass"] else certify.FAIL
        cert = worst
    elif args.command == "oracle-quotient":
        g = sp_group(args.n, args.modulus, args.cap)
        phi = parse_descriptor(g, args.aut)
        q = sp_group(args.n, args.target, args.cap)
        cert = certify.quotient_epi_check(g, q, phi)
    elif args.command == "blocks-thm33":
        cert = certify.thm33_block_certificate(args.modulus, n=args.n, w=args.w,
                                               cap=args.cap)
    else:
        raise StructuralError(f"unknown command {args.command}")

    _emit(args, _certificate_report(args, cert))
    if cert.verdict == certify.PASS:
        return EXIT_PASS
    if cert.verdict == certify.FAIL:
        return EXIT_FAIL
    return EXIT_CAPACITY  # inconclusive certificates stem from capacity overruns


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return run(args)
    except CapacityError as e:
        print(f"error: capacity: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except (StructuralError, IntegrityError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
