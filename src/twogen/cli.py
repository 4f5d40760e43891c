"""Command-line entry point.

Exit codes: 0 success, 1 a verification sweep found a mismatch, 2 usage or
domain error, 3 a computation was blocked (factoring budget exhausted or a
derivation blocked on an unfactored number).  All output is ASCII and all
randomized internals are deterministically seeded, so identical invocations
produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import FactorizationTimeout
from .counting import special_factorizations, surviving_exponents
from .factor_cache import FactorCache
from .indicators import reduce_power
from .modulus import dependence_check, modulus_of
from .reduction import euclidean_trace, normalize_target, reduce, verify_reduction
from .semigroup import (
    BudgetExceeded,
    count_by_genus,
    count_two_generator,
    enumerate_by_genus,
)
from .synthesis import (
    SynthesisBlocked,
    minimal_modulus,
    render,
    synthesize,
    verify_formula,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BLOCKED = 3


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _factors_text(factors) -> str:
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)


def cmd_count(args, cache) -> int:
    if (args.genus is None) == (args.prime is None):
        raise ValueError("need exactly one of --genus or --prime/--power")
    if args.genus is not None:
        pairs = special_factorizations(args.genus, cache)
        if args.json:
            payload = {"genus": args.genus, "count": len(pairs)}
            if args.witnesses:
                payload["witnesses"] = [list(p) for p in pairs]
            _emit_json(payload)
        else:
            print(f"n({args.genus},2) = {len(pairs)}")
            if args.witnesses:
                for u, v in pairs:
                    print(f"  {{{u}, {v}}}")
        return EXIT_OK
    if args.power is None:
        raise ValueError("--prime requires --power")
    exponents = surviving_exponents(args.prime, args.power)
    if args.json:
        payload = {"prime": args.prime, "power": args.power, "count": len(exponents)}
        if args.witnesses:
            payload["witnesses"] = exponents
        _emit_json(payload)
    else:
        print(f"n({args.prime}^{args.power},2) = {len(exponents)}")
        if args.witnesses:
            print(f"  surviving exponents: {', '.join(map(str, exponents))}")
    return EXIT_OK


def cmd_enumerate(args, cache) -> int:
    if args.count_only:
        levels = None
        counts = count_by_genus(args.genus)
    else:
        levels = enumerate_by_genus(args.genus)
        counts = [(len(nodes), count_two_generator(nodes)) for nodes in levels]
    rows = [
        {"genus": g, "total": total, "two_generator": pairs}
        for g, (total, pairs) in enumerate(counts)
    ]
    if args.json:
        payload: dict = {"levels": rows}
        if levels is not None:
            payload["semigroups"] = [
                {"gaps": list(n.gaps), "generators": list(n.generators)}
                for n in levels[-1]
            ]
        _emit_json(payload)
        return EXIT_OK
    print("genus  total  two-generator")
    for row in rows:
        print(f"{row['genus']:>5}  {row['total']:>5}  {row['two_generator']:>13}")
    if levels is not None:
        print(f"semigroups of genus {args.genus}:")
        for node in levels[-1]:
            gaps = ",".join(map(str, node.gaps))
            gens = ",".join(map(str, node.generators))
            print(f"  gaps=[{gaps}] generators=[{gens}]")
    return EXIT_OK


def cmd_reduce(args, cache) -> int:
    trace = euclidean_trace(args.alpha, args.beta)
    form = reduce(args.alpha, args.beta)
    a, c = normalize_target(form)
    check = verify_reduction(args.alpha, args.beta, args.prime_bound) if args.verify else None
    if args.json:
        payload = {
            "alpha": args.alpha,
            "beta": args.beta,
            "trace": {
                "r": list(trace.r),
                "a": list(trace.a),
                "s": list(trace.s),
                "t": list(trace.t),
            },
            "delta": form.delta,
            "sign": form.sign,
            "two_exp": form.two_exp,
            "modulus": form.modulus,
            "residue": a,
        }
        if check is not None:
            payload["verified_primes"] = check.primes_checked
            payload["counterexample"] = (
                list(check.counterexample) if check.counterexample else None
            )
        _emit_json(payload)
    else:
        print(f"gcd(p^{args.alpha}+1, 2p^{args.beta}+1)")
        print(f"  r = {list(trace.r)}")
        print(f"  a = {list(trace.a)}")
        print(f"  s = {list(trace.s)}")
        print(f"  t = {list(trace.t)}")
        op = "-" if form.sign > 0 else "+"
        print(f"  reduced: gcd(p^{form.delta} {op} 2^{form.two_exp}, {form.modulus})")
        print(f"  normalized: gcd(p^{form.delta} - {a}, {c})")
        if check is not None:
            if check.ok:
                print(f"  verified for {check.primes_checked} odd primes <= {args.prime_bound}")
            else:
                p, lhs, rhs = check.counterexample
                print(f"  MISMATCH at p={p}: direct {lhs} != reduced {rhs}")
    if check is not None and not check.ok:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_modulus(args, cache) -> int:
    report = modulus_of(args.k, cache)
    if args.json:
        _emit_json(
            {
                "k": report.k,
                "per_i": [list(pair) for pair in report.per_i],
                "M": report.modulus,
                "factors": [list(pair) for pair in report.factors.factors],
                "complete": report.complete,
                "unfactored": list(report.unfactored),
            }
        )
    else:
        for i, m in report.per_i:
            print(f"  m_{args.k}({i}) = {m}")
        factors = _factors_text(report.factors.factors)
        tail = f" = {factors}" if factors else ""
        print(f"M({args.k}) = {report.modulus}{tail}")
        if not report.complete:
            unfactored = ", ".join(map(str, report.unfactored))
            print(f"status: incomplete; M({args.k}) is divisible by the above;")
            print(f"unfactored: {unfactored}")
    return EXIT_OK if report.complete else EXIT_BLOCKED


def cmd_verify_dependence(args, cache) -> int:
    report = dependence_check(args.k, args.prime_bound, cache)
    if args.json:
        _emit_json(
            {
                "k": report.k,
                "modulus": report.modulus,
                "primes_checked": report.primes_checked,
                "classes": len(report.classes),
                "values": sorted(report.values),
                "violations": [list(v) for v in report.violations],
            }
        )
    else:
        print(
            f"k={report.k}: {report.primes_checked} odd primes <= {args.prime_bound}"
            f" in {len(report.classes)} classes mod {report.modulus};"
            f" values {sorted(report.values)}"
        )
        for p, residue, got, expected in report.violations:
            print(f"  VIOLATION p={p} (class {residue}): {got} != {expected}")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_derive(args, cache) -> int:
    formula = synthesize(args.k, cache)
    if args.json:
        _emit_json(
            {
                "k": formula.k,
                "constant": formula.constant,
                "terms": [
                    [{"a": x.a, "q": x.q} for x in term.factors]
                    for term in formula.terms
                ],
                "natural_modulus": formula.natural_modulus,
                "minimal_modulus": minimal_modulus(formula),
            }
        )
        return EXIT_OK
    if args.rows:
        for row in formula.rows:
            lhs = f"gcd(p^{row.i}+1, 2p^{args.k - row.i}+1)"
            if row.modulus == 1:
                rhs = "1"
            else:
                rhs = f"gcd(p^{row.exponent} - {row.residue}, {row.modulus})"
            product = "*".join(str(x) for x in row.factors) if row.factors else "1"
            print(f"  i={row.i:>2}: {lhs} = {rhs}  -> {product}")
    print(render(formula, args.style))
    return EXIT_OK


def cmd_verify(args, cache) -> int:
    formula = synthesize(args.k, cache)
    check = verify_formula(formula, args.prime_bound)
    if args.json:
        _emit_json(
            {
                "k": check.k,
                "prime_bound": check.prime_bound,
                "primes_checked": check.primes_checked,
                "mismatches": [list(m) for m in check.mismatches],
            }
        )
    else:
        if check.ok:
            print(
                f"k={args.k}: formula matches the direct count at all"
                f" {check.primes_checked} odd primes <= {args.prime_bound}"
            )
        else:
            for p, got, want in check.mismatches:
                print(f"  MISMATCH at p={p}: formula {got} != direct {want}")
    return EXIT_OK if check.ok else EXIT_MISMATCH


def cmd_minimal_modulus(args, cache) -> int:
    formula = synthesize(args.k, cache)
    minimal = minimal_modulus(formula)
    if args.json:
        _emit_json(
            {
                "k": args.k,
                "natural_modulus": formula.natural_modulus,
                "minimal_modulus": minimal,
            }
        )
    else:
        print(
            f"k={args.k}: natural modulus {formula.natural_modulus},"
            f" minimal modulus {minimal}"
        )
    return EXIT_OK


def cmd_xreduce(args, cache) -> int:
    factors = reduce_power(args.a, args.q, args.s, cache)
    product = "*".join(str(x) for x in factors) if factors else "1"
    if args.json:
        _emit_json(
            {
                "a": args.a,
                "q": args.q,
                "s": args.s,
                "factors": [{"a": x.a, "q": x.q} for x in factors],
            }
        )
    else:
        print(f"X({args.a},{args.q})(n^{args.s}) = {product}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--factor-cache",
        default="./factors.txt",
        metavar="PATH",
        help="factorization cache file (default ./factors.txt)",
    )
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument(
        "--prime-bound",
        type=int,
        default=2000,
        metavar="N",
        help="bound for prime sweeps (default 2000)",
    )

    parser = argparse.ArgumentParser(
        prog="twogen",
        description="count two-generator numerical semigroups and derive "
        "residue-class formulas for prime-power genus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="count n(g,2) or n(p^k,2)")
    p.add_argument("--genus", type=int)
    p.add_argument("--prime", type=int)
    p.add_argument("--power", type=int, dest="power")
    p.add_argument("--witnesses", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser(
        "enumerate", parents=[common], help="census of all semigroups up to a genus"
    )
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "reduce", parents=[common], help="reduce gcd(p^a+1, 2p^b+1) to gcd(p^d - a, c)"
    )
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("modulus", parents=[common], help="the governing modulus M(k)")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_modulus)

    p = sub.add_parser(
        "verify-dependence",
        parents=[common],
        help="check n(p^k,2) is constant on classes mod M(k)",
    )
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_verify_dependence)

    p = sub.add_parser("derive", parents=[common], help="derive the formula for n(p^k,2)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--style", choices=["flat", "factored", "case-table"], default="factored"
    )
    p.add_argument("--rows", action="store_true", help="print the per-exponent table")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser(
        "verify", parents=[common], help="sweep a derived formula against direct counts"
    )
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "minimal-modulus",
        parents=[common],
        help="smallest modulus the derived formula depends on",
    )
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_minimal_modulus)

    p = sub.add_parser(
        "xreduce", parents=[common], help="reduce an indicator at a power argument"
    )
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_xreduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cache = FactorCache.load(args.factor_cache)
        code = args.func(args, cache)
        if cache.dirty:
            cache.save(args.factor_cache)
        return code
    except (FactorizationTimeout, SynthesisBlocked) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOCKED
    except (ValueError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
