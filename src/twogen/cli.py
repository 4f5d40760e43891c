"""Command-line entry point.

Exit codes: 0 success, 1 a verification sweep found a mismatch, 2 usage or
domain error, or memory ran out (a sieve to a huge --prime-bound), or a
command succeeded but its factor cache could not be saved, 3 a
computation was blocked (factoring budget exhausted or a derivation blocked
on an unfactored number), 141 (128 + SIGPIPE) the reader of stdout closed it
early, as `| head` does.  All output is ASCII and all
randomized internals are deterministically seeded, so identical invocations
produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import compress
from operator import getitem

# The layers of M(k) are imported here; every other layer, and json, is
# imported by the command that runs it, so `twogen modulus` loads no more.
from .counting import special_factorizations, surviving_exponents
from .factor_cache import LazyFactorCache, format_factors
from .factoring import FactorizationTimeout
from .modulus import dependence_check, modulus_of
from .primes import check_prime_bound

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BLOCKED = 3
EXIT_BROKEN_PIPE = 141


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


def cmd_count(args, cache) -> int:
    if (args.genus is None) == (args.prime is None):
        raise ValueError("need exactly one of --genus or --prime/--power")
    if (args.prime is None) != (args.power is None):
        given, needed = ("--prime", "--power") if args.power is None else ("--power", "--prime")
        raise ValueError(f"{given} requires {needed}")
    if args.genus is not None:
        witnesses = special_factorizations(args.genus, cache)
        payload = {"genus": args.genus, "count": len(witnesses)}
        name = f"n({args.genus},2)"
        lines = [f"  {{{u}, {v}}}" for u, v in witnesses]
    else:
        witnesses = surviving_exponents(args.prime, args.power)
        payload = {"prime": args.prime, "power": args.power, "count": len(witnesses)}
        name = f"n({args.prime}^{args.power},2)"
        lines = [f"  surviving exponents: {', '.join(map(str, witnesses))}"]
    if args.json:
        if args.witnesses:
            payload["witnesses"] = witnesses
        _emit_json(payload)
    else:
        print(f"{name} = {len(witnesses)}")
        if args.witnesses:
            for line in lines:
                print(line)
    return EXIT_OK


def _joiner(names: list[str], separator: str):
    """The function from a mask below 2**len(names) to the names of its set
    bits joined by `separator`, looked up byte by byte, each byte in a table
    of its 256 joined pieces."""
    from .semigroup import bit_flags

    tables = [
        [separator.join(compress(names[i : i + 8], bit_flags(b))) for b in range(256)]
        for i in range(0, len(names), 8)
    ]
    return lambda mask: separator.join(
        filter(None, map(getitem, tables, mask.to_bytes(len(tables), "little")))
    )


def cmd_enumerate(args, cache) -> int:
    from .semigroup import count_by_genus, masks_of_genus

    counts = count_by_genus(args.genus)
    # The listing is a second walk, one semigroup at a time, so no level is
    # held.  Generators of genus g are at most 2g + 1, gaps below them.
    names = [str(s) for s in range(2 * args.genus + 2)]
    rows = [
        {"genus": g, "total": total, "two_generator": pairs}
        for g, (total, pairs) in enumerate(counts)
    ]
    if args.json:
        payload = {"levels": rows}
        if args.count_only:
            _emit_json(payload)
        else:
            # The lists sit three levels deep, as json.dumps indents them,
            # and print as [] when empty.
            joined = _joiner(names, ",\n        ")

            def listed(mask: int) -> str:
                body = joined(mask)
                return f"[\n        {body}\n      ]" if body else "[]"

            items = (
                f'    {{\n      "gaps": {listed(holes)},\n'
                f'      "generators": {listed(gens)}\n    }}'
                for gens, holes in masks_of_genus(args.genus)
            )
            _emit_json_listing(payload, "semigroups", items)
        return EXIT_OK
    write = sys.stdout.write
    write("genus  total  two-generator\n")
    for row in rows:
        write(f"{row['genus']:>5}  {row['total']:>5}  {row['two_generator']:>13}\n")
    if not args.count_only:
        write(f"semigroups of genus {args.genus}:\n")
        joined = _joiner(names, ",")
        for gens, holes in masks_of_genus(args.genus):
            write(f"  gaps=[{joined(holes)}] generators=[{joined(gens)}]\n")
    return EXIT_OK


def cmd_reduce(args, cache) -> int:
    from .reduction import euclidean_trace, normalize_target, reduce, verify_reduction

    trace = euclidean_trace(args.alpha, args.beta)
    form = reduce(args.alpha, args.beta)
    a, c = normalize_target(form)
    check = verify_reduction(args.alpha, args.beta, args.prime_bound) if args.verify else None
    if args.json:
        payload = {
            "alpha": args.alpha,
            "beta": args.beta,
            "trace": trace._asdict(),
            **form._asdict(),
            "residue": a,
        }
        if check is not None:
            payload["verified_primes"] = check.primes_checked
            payload["counterexample"] = check.counterexample
        _emit_json(payload)
    else:
        print(f"gcd(p^{args.alpha}+1, 2p^{args.beta}+1)")
        for name, values in trace._asdict().items():
            print(f"  {name} = {list(values)}")
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
                "per_i": report.per_i,
                "M": report.modulus,
                "factors": report.factors.factors,
                "complete": report.complete,
                "unfactored": report.unfactored,
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
                "violations": report.violations,
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
    from .indicators import _product
    from .rendering import render
    from .synthesis import minimal_modulus, synthesize

    formula = synthesize(args.k, cache)
    if args.json:
        _emit_json(
            {
                "k": formula.k,
                "constant": formula.constant,
                "terms": [[x._asdict() for x in term.factors] for term in formula.terms],
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
            print(f"  i={row.i:>2}: {lhs} = {rhs}  -> {_product(row.factors)}")
    print(text)
    return EXIT_OK


def cmd_verify(args, cache) -> int:
    from .synthesis import synthesize, verify_formula

    formula = synthesize(args.k, cache)
    check = verify_formula(formula, args.prime_bound)
    if args.json:
        _emit_json(check._asdict())
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
    from .synthesis import minimal_modulus, synthesize

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
    from .indicators import _product, reduce_power

    # A residue outside [0, q) would be echoed unreduced; a modulus below 2
    # is left to reduce_power's own check.
    if args.q >= 2 and not 0 <= args.a < args.q:
        raise ValueError(f"--a must be in [0, {args.q}), got {args.a}")
    factors = reduce_power(args.a, args.q, args.s, cache)
    if args.json:
        _emit_json(
            {"a": args.a, "q": args.q, "s": args.s, "factors": [x._asdict() for x in factors]}
        )
    else:
        print(f"X({args.a},{args.q})(n^{args.s}) = {_product(factors)}")
    return EXIT_OK


# Each command's help, handler and own options.  Every command also takes
# --factor-cache and --json, and main checks --prime-bound before the handler.
_INT = {"type": int}
_REQUIRED = {"type": int, "required": True}
_SWITCH = {"action": "store_true"}
_PRIME_BOUND = {
    "type": int,
    "default": 2000,
    "metavar": "N",
    "help": "bound for prime sweeps (default 2000)",
}
COMMANDS = {
    "count": (
        "count n(g,2) or n(p^k,2)",
        cmd_count,
        {"--genus": _INT, "--prime": _INT, "--power": _INT, "--witnesses": _SWITCH},
    ),
    "enumerate": (
        "census of all semigroups up to a genus",
        cmd_enumerate,
        {"--genus": _REQUIRED, "--count-only": _SWITCH},
    ),
    "reduce": (
        "reduce gcd(p^a+1, 2p^b+1) to gcd(p^d - a, c)",
        cmd_reduce,
        {
            "--alpha": _REQUIRED,
            "--beta": _REQUIRED,
            "--verify": _SWITCH,
            "--prime-bound": _PRIME_BOUND,
        },
    ),
    "modulus": ("the governing modulus M(k)", cmd_modulus, {"--k": _REQUIRED}),
    "verify-dependence": (
        "check n(p^k,2) is constant on classes mod M(k)",
        cmd_verify_dependence,
        {"--k": _REQUIRED, "--prime-bound": _PRIME_BOUND},
    ),
    "derive": (
        "derive the formula for n(p^k,2)",
        cmd_derive,
        {
            "--k": _REQUIRED,
            "--style": {"choices": ["flat", "factored", "case-table"], "default": "factored"},
            "--rows": {"action": "store_true", "help": "print the per-exponent table"},
        },
    ),
    "verify": (
        "sweep a derived formula against direct counts",
        cmd_verify,
        {"--k": _REQUIRED, "--prime-bound": _PRIME_BOUND},
    ),
    "minimal-modulus": (
        "smallest modulus the derived formula depends on",
        cmd_minimal_modulus,
        {"--k": _REQUIRED},
    ),
    "xreduce": (
        "reduce an indicator at a power argument",
        cmd_xreduce,
        {"--a": _REQUIRED, "--q": _REQUIRED, "--s": _REQUIRED},
    ),
}


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
    for name, (help_text, _, options) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def _exit_code(step, *args) -> int:
    """Run `step(*args)` and return the exit code of its outcome: what it
    returns (0 for None), or, after one `error:` line on stderr, the code of
    the class of what it raises."""
    try:
        code = step(*args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code or EXIT_OK
    # A BrokenPipeError is an OSError, so it is caught first.  Python flushes
    # stdout again at exit; pointing it at devnull keeps that flush quiet.
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    # The class of a layer error decides its code: a derivation blocked on a
    # row is a factoring timeout, a genus above the census cap a ValueError.
    except FactorizationTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOCKED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Not 1, which would read as a mismatch the sweep found.
    except MemoryError:
        print("error: ran out of memory", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # Every sweep needs an odd prime: refused before any sieve, derivation
    # or factoring, and before the cache is read.
    if "prime_bound" in args and _exit_code(check_prime_bound, args.prime_bound):
        return EXIT_USAGE
    _, handler, _ = COMMANDS[args.command]
    cache = LazyFactorCache(args.factor_cache)
    # Integers print whole, a modulus of any length too.  argv was parsed
    # under Python's limit on digits, which callers in process get back.
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    saved = EXIT_OK
    try:
        code = _exit_code(handler, args, cache)
    finally:
        # On every exit, a timeout too: the next run starts from what was
        # factored.  A failed save is reported after the command's own
        # outcome, and decides the code only when the command succeeded.
        if cache.dirty:
            saved = _exit_code(cache.save, args.factor_cache)
        if digits is not None:
            sys.set_int_max_str_digits(digits)
    return code or saved


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
