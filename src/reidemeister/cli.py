"""Command-line interface: group construction, class enumeration, oracles
and certification scans with reproducible reports: JSON from every command,
CSV from the three whose report is a table, text from all but order.

Exit status: 0 pass, 1 fail verdict, 2 usage/structural error, 3 capacity
error, 4 internal error (any other exception, reported on one stderr line;
it is a bug, never a verdict).  Reports are byte-identical across reruns
with the same flags and seed; the only timestamp lives in the optional
header line (suppress with --no-header).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
from datetime import datetime, timezone

from . import certify
from .automorphisms import parse_descriptor
from .errors import CapacityError, IntegrityError, PreconditionError, StructuralError
from .generators import sp_order
from .group import DEFAULT_CAP, sp_group, twisted_classes
from .modring import canonical_key, check_int64

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


# The seven commands on Sp(2n, Z_m): help, and the default --aut, if any.
# classes takes no --aut: it is twisted with phi the identity.
SP_COMMANDS = {
    "order": ("order of Sp(2n, Z_m) by enumeration", None),
    "classes": ("ordinary conjugacy classes of Sp(2n, Z_m)", None),
    "twisted": ("twisted conjugacy classes under an automorphism", "sign_flip"),
    "oracle-semidirect": ("semidirect-product conjugacy oracle", "sign_flip"),
    "oracle-burnside": ("twisted Burnside-Frobenius count: phi-invariant classes",
                        "sign_flip"),
    "oracle-shift": ("inner-shift class bijection check", "sign_flip"),
    "oracle-quotient": ("ring-quotient epimorphism check", "sign_flip"),
}

FORMATS = {"order": ["json"], "classes": ["json", "csv", "text"],
           "twisted": ["json", "csv", "text"], "certify-growth": ["json", "csv", "text"]}


def _add_common(p, formats):
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="element cap for closure")
    p.add_argument("--output", choices=formats, default="json")
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

    for name, (text, aut) in SP_COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--modulus", dest="m", type=int, required=True)
        if aut:
            p.add_argument("--aut", default=aut,
                           help="sign_flip | identity | inner:<entries> | twist:<char-file>")
        else:
            p.set_defaults(aut="identity")
        if name == "oracle-shift":
            p.add_argument("--trials", type=int, default=5,
                           help="number of seeded random thetas")
        if name == "oracle-quotient":
            p.add_argument("--target", type=int, required=True, help="target modulus m' | m")

    p = sub.add_parser("certify-prop32", help="lower bound and torus pairing certificate")
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("certify-growth", help="growth scan over a prime list")
    p.add_argument("--primes", default="5,7,11,13", help="comma-separated ascending primes")
    p.add_argument("--n", type=int, default=1)

    p = sub.add_parser("blocks-thm33", help="torus-reduction block structure filter")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--modulus", dest="m", type=int, default=3)
    p.add_argument("--w", type=int, default=2)

    for name, p in sub.choices.items():
        _add_common(p, FORMATS.get(name, ["json", "text"]))
    return ap


def _emit(args, payload: str):
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        if not args.no_header:
            stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            out.write(f"# reidemeister {args.command} format=1 {stamp}\n")
        out.write(payload)
        if not payload.endswith("\n"):
            out.write("\n")


def _report_json(fields: dict) -> str:
    return json.dumps({"format": 1, **fields}, indent=2)


def _partition_report(args, g, part):
    if args.output == "csv":
        lines = ["class_id,representative,size"]
        for c in range(part.n_classes):
            rep = canonical_key(g.element(int(part.representatives[c]))).hex()
            lines.append(f"{c},{rep},{int(part.class_sizes[c])}")
        return "\n".join(lines) + "\n"
    fields = {
        "command": args.command,
        "n": args.n,
        "modulus": args.m,
        "group_order": g.order,
        "class_count": part.n_classes,
        "class_sizes": [int(x) for x in part.class_sizes],
    }
    if args.output == "text":
        return "\n".join(f"{k}: {v}" for k, v in fields.items() if k != "class_sizes")
    return _report_json(fields)


def _certificate_report(args, cert):
    rows = cert.computed.get("rows", [])
    if args.output == "csv":
        lines = ["p,group_order,reidemeister_count,bound"]
        lines += [f"{r['p']},{r['group_order']},{r['reidemeister_count']},{r['bound']}"
                  for r in rows]
        return "\n".join(lines) + "\n"
    if args.output == "text":
        lines = [f"claim: {cert.claim_id}", f"verdict: {cert.verdict}"]
        lines += [f"{k}: {v}" for k, v in cert.computed.items() if k != "rows"]
        for r in rows:
            lines.append(f"  p={r['p']} order={r['group_order']} "
                         f"R={r['reidemeister_count']} bound={r['bound']}")
        return "\n".join(lines)
    return cert.to_json()


def _oracle(args, g, phi):
    """The certificate of the oracle command args.command on g and phi."""
    if args.command == "oracle-semidirect":
        return certify.semidirect_oracle(g, phi)
    if args.command == "oracle-burnside":
        return certify.burnside_oracle(g, phi)
    if args.command == "oracle-quotient":
        return certify.quotient_epi_check(g, sp_group(args.n, args.target, args.cap), phi)
    rng = random.Random(args.seed)
    certs = [certify.shift_bijection_check(g, phi, rng.randrange(g.order))
             for _ in range(args.trials)]
    worst = next((c for c in certs if c.verdict != certify.PASS), certs[-1])
    worst.computed["trials"] = args.trials
    worst.computed["all_pass"] = all(c.verdict == certify.PASS for c in certs)
    worst.verdict = certify.PASS if worst.computed["all_pass"] else certify.FAIL
    return worst


def run(args) -> int:
    if args.cap < 1:
        raise PreconditionError(f"--cap must be >= 1, got {args.cap}")
    if args.command == "certify-prop32":
        cert = certify.prop32_certificate(args.p, cap=args.cap)
    elif args.command == "certify-growth":
        try:
            primes = [int(x) for x in args.primes.split(",") if x.strip()]
        except ValueError:
            raise PreconditionError(f"--primes must be comma-separated integers, "
                                    f"got {args.primes!r}") from None
        cert = certify.growth_scan(primes, n=args.n, cap=args.cap)
    elif args.command == "blocks-thm33":
        cert = certify.thm33_block_certificate(args.m, n=args.n, w=args.w,
                                               cap=args.cap)
    else:  # one of SP_COMMANDS; its flags are checked before any closure
        if args.command == "oracle-shift" and args.trials < 1:
            raise PreconditionError(f"--trials must be >= 1, got {args.trials}")
        if args.command == "oracle-quotient":
            if args.target < 2:
                raise PreconditionError(f"--target must be >= 2, got {args.target}")
            check_int64(2 * args.n, args.target)  # "too large" before "does not divide"
            if args.m % args.target:
                raise StructuralError(
                    f"target modulus {args.target} does not divide {args.m}")
        g = sp_group(args.n, args.m, args.cap)
        if args.command == "order":
            _emit(args, _report_json({"command": "order", "n": args.n,
                                      "modulus": args.m, "group_order": g.order,
                                      "order_formula": sp_order(args.n, args.m)}))
            return EXIT_PASS
        phi = parse_descriptor(g, args.aut)
        if args.command in ("classes", "twisted"):
            _emit(args, _partition_report(args, g, twisted_classes(g, phi)))
            return EXIT_PASS
        cert = _oracle(args, g, phi)

    _emit(args, _certificate_report(args, cert))
    if cert.verdict == certify.INCONCLUSIVE:  # growth_scan met the cap at a prime
        print(f"error: capacity: closure exceeded cap of {args.cap} elements at p = "
              f"{cert.computed['capacity_exceeded_at']}", file=sys.stderr)
        return EXIT_CAPACITY
    return EXIT_PASS if cert.verdict == certify.PASS else EXIT_FAIL


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
