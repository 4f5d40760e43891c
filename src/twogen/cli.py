"""Command-line entry point.

Exit codes: 0 success, 1 a verification sweep found a mismatch, 2 usage or
domain error, 3 a computation was blocked (factoring budget exhausted or a
derivation blocked on an unfactored number).  All output is ASCII and all
randomized internals are deterministically seeded, so identical invocations
produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys

# The layers of M(k) are imported here; every other layer, and json, is
# imported by the command that runs it, so `twogen modulus` loads no more.
from .counting import special_factorizations, surviving_exponents
from .factor_cache import FactorCache, format_factors
from .factoring import FactorizationTimeout
from .modulus import dependence_check, modulus_of
from .primes import check_prime_bound

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BLOCKED = 3


def _emit_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=2))


def _emit_json_listing(payload: dict, key: str, items) -> None:
    """Print `json.dumps({**payload, key: [...]}, indent=2)`, given the list
    as the texts of its items, each indented as that dump indents an item
    two levels deep, and write them one at a time rather than building the
    whole list and then one string for it."""
    import json

    head = json.dumps({**payload, key: []}, indent=2)  # ends with '[]\n}'
    write = sys.stdout.write
    write(head[:-3])
    separator = "\n"
    for item in items:
        write(separator + item)
        separator = ",\n"
    write("]\n}\n" if separator == "\n" else "\n  ]\n}\n")


def cmd_count(args, load_cache) -> int:
    if (args.genus is None) == (args.prime is None):
        raise ValueError("need exactly one of --genus or --prime/--power")
    if (args.prime is None) != (args.power is None):
        given, needed = ("--prime", "--power") if args.power is None else ("--power", "--prime")
        raise ValueError(f"{given} requires {needed}")
    if args.genus is not None:
        pairs = special_factorizations(args.genus, load_cache())
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


def cmd_enumerate(args, load_cache) -> int:
    from itertools import compress

    from .semigroup import bit_flags, count_by_genus, deepest_level

    if args.count_only:
        deepest = None
        counts = count_by_genus(args.genus)
    else:
        counts, deepest = deepest_level(args.genus)
    # Generators of genus g are at most 2g + 1, gaps below them.
    names = [str(s) for s in range(2 * args.genus + 2)]
    rows = [
        {"genus": g, "total": total, "two_generator": pairs}
        for g, (total, pairs) in enumerate(counts)
    ]
    if args.json:
        payload = {"levels": rows}
        if deepest is None:
            _emit_json(payload)
        else:
            # From the masks: reading n.gaps would decode and keep a tuple
            # per node.  The lists sit three levels deep, as json.dumps
            # indents them, and print as [] when empty.
            def listed(mask: int) -> str:
                body = ",\n        ".join(compress(names, bit_flags(mask)))
                return f"[\n        {body}\n      ]" if body else "[]"

            nodes = (
                f'    {{\n      "gaps": {listed(n.gap_mask)},\n'
                f'      "generators": {listed(n.generator_mask)}\n    }}'
                for n in deepest
            )
            _emit_json_listing(payload, "semigroups", nodes)
        return EXIT_OK
    print("genus  total  two-generator")
    for row in rows:
        print(f"{row['genus']:>5}  {row['total']:>5}  {row['two_generator']:>13}")
    if deepest is not None:
        print(f"semigroups of genus {args.genus}:")
        for node in deepest:
            gaps = ",".join(compress(names, bit_flags(node.gap_mask)))
            gens = ",".join(compress(names, bit_flags(node.generator_mask)))
            print(f"  gaps=[{gaps}] generators=[{gens}]")
    return EXIT_OK


def cmd_reduce(args, load_cache) -> int:
    from .reduction import euclidean_trace, normalize_target, reduce, verify_reduction

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


def cmd_modulus(args, load_cache) -> int:
    report = modulus_of(args.k, load_cache())
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
        factors = format_factors(report.factors.factors)
        tail = f" = {factors}" if factors else ""
        print(f"M({args.k}) = {report.modulus}{tail}")
        if not report.complete:
            unfactored = ", ".join(map(str, report.unfactored))
            print(f"status: incomplete; M({args.k}) is divisible by the above;")
            print(f"unfactored: {unfactored}")
    return EXIT_OK if report.complete else EXIT_BLOCKED


def cmd_verify_dependence(args, load_cache) -> int:
    report = dependence_check(args.k, args.prime_bound, load_cache())
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


def cmd_derive(args, load_cache) -> int:
    from .synthesis import minimal_modulus, render, synthesize

    formula = synthesize(args.k, load_cache())
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
    text = render(formula, args.style)  # before any output: render may refuse
    if args.rows:
        for row in formula.rows:
            lhs = f"gcd(p^{row.i}+1, 2p^{args.k - row.i}+1)"
            if row.modulus == 1:
                rhs = "1"
            else:
                rhs = f"gcd(p^{row.exponent} - {row.residue}, {row.modulus})"
            product = "*".join(str(x) for x in row.factors) if row.factors else "1"
            print(f"  i={row.i:>2}: {lhs} = {rhs}  -> {product}")
    print(text)
    return EXIT_OK


def cmd_verify(args, load_cache) -> int:
    from .synthesis import synthesize, verify_formula

    check_prime_bound(args.prime_bound)  # before the derivation, which may block
    formula = synthesize(args.k, load_cache())
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


def cmd_minimal_modulus(args, load_cache) -> int:
    from .synthesis import minimal_modulus, synthesize

    formula = synthesize(args.k, load_cache())
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


def cmd_xreduce(args, load_cache) -> int:
    from .indicators import reduce_power

    factors = reduce_power(args.a, args.q, args.s, load_cache())
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

    # Only the commands that sweep primes take a bound for the sweep.
    for name in ("reduce", "verify-dependence", "verify"):
        sub.choices[name].add_argument(
            "--prime-bound",
            type=int,
            default=2000,
            metavar="N",
            help="bound for prime sweeps (default 2000)",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    loaded: list[FactorCache] = []

    def load_cache() -> FactorCache:
        # Read on first use, so a command that never factors never reads it.
        if not loaded:
            loaded.append(FactorCache.load(args.factor_cache))
        return loaded[0]

    try:
        try:
            return args.func(args, load_cache)
        finally:
            # On a timeout too: the next run starts from what was factored.
            if loaded and loaded[0].dirty:
                loaded[0].save(args.factor_cache)
    # The class of a layer error decides its code: a derivation blocked on a
    # row is a factoring timeout, a genus above the census cap a ValueError.
    except FactorizationTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOCKED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
