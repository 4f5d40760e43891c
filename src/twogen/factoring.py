"""Factorization of positive integers under an iteration budget.

Factorization strips the small primes with one gcd with the product of the
primes below 10^4, then hunts each composite cofactor in three steps under
one iteration budget: a short slice of Pollard rho with Brent's cycle
detection, which wins on small factors; Pollard's p-1 (1974), stage 1 to
PM1_B1 and a baby-step giant-step stage 2 to PM1_B2; and the same rho hunt
resumed with the budget left.  Every modular squaring or multiplication of
every stage is charged to the budget, and exhausting it raises
FactorizationTimeout instead of hanging, so a known factorization can be
supplied through a cache (see factor_cache) as the escape hatch.

Every large number this package factors is 2^m - 1 or 2^m + 1, so
factorize recognises that form and uses the algebra of the Cunningham
tables (Brillhart et al., Factorizations of b^n +- 1) first: the cofactor
is split along the cyclotomic values Phi_d(2) and the Aurifeuillian halves
of Phi_4o(2).  The primes of Phi_d(2) are 1 mod e = lcm(2, d), so each
piece is hunted with the rho map x^e + c (Brent & Pollard, 1981), and e is
multiplied into the p-1 exponent, leaving only (q - 1)/e to be smooth.
The split, the map and p-1 change only the speed; every prime is still
proven by is_prime.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Iterator
from typing import NamedTuple

from .primes import is_prime, odd_primes_up_to, primes_up_to

TRIAL_DIVISION_BOUND = 10_000
DEFAULT_RHO_BUDGET = 10_000_000
# Squarings of the first rho run on each piece, before p-1 is tried.
RHO_SLICE = 1 << 16
# Pollard p-1: stage-1 bound, stage-2 bound, the wheel of the stage-2
# giant steps, and the base.
PM1_B1 = 50_000
PM1_B2 = 1_000_000
PM1_WHEEL = 2 * 3 * 5 * 7 * 11
PM1_BASE = 3
# The baby steps u: 0 < u < D/2 and coprime to D, as every prime above 11 is.
_PM1_BABIES = frozenset(u for u in range(1, PM1_WHEEL // 2) if math.gcd(u, PM1_WHEEL) == 1)


class FactorizationTimeout(RuntimeError):
    """The factoring budget ran out; carries the stubborn cofactor, when
    known the iterations spent on n before giving up, and the last stage
    run on the cofactor: "rho", or "p-1" when Pollard p-1 ran between the
    two rho runs."""

    def __init__(
        self, n: int, cofactor: int, iterations: int | None = None, stage: str = "rho"
    ):
        methods = "rho" if stage == "rho" else "rho and p-1"
        spent = "" if iterations is None else f" after {iterations} {methods} iterations"
        super().__init__(
            f"could not factor {n}: budget exhausted on cofactor {cofactor}{spent}"
        )
        self.n = n
        self.cofactor = cofactor
        self.iterations = iterations
        self.stage = stage


class Factorization(NamedTuple):
    """A prime factorization: value == prod(p**e), primes strictly increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def check(self, proven: set[int] | None = None) -> None:
        """Re-verify all invariants; raises ValueError on any violation.

        The structure and the product are checked before any prime is
        proven.  An exponent e >= value.bit_length() is refused before p**e
        is formed: p**e >= 2**e > value could never divide it, and its digits
        could be too many to compute or print.  Primes in `proven` are not
        tested again, and every prime this check proves is added to it."""
        if self.value < 1:
            raise ValueError(f"value must be positive, got {self.value}")
        product = 1
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError(f"primes not strictly increasing at {p}")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {e}")
            if e >= self.value.bit_length():
                raise ValueError(f"exponent of {p} is too large for the value, got {e}")
            product *= p**e
            last = p
        if product != self.value:
            raise ValueError(f"factors multiply to {product}, not {self.value}")
        if proven is None:
            proven = set()
        for p, _ in self.factors:
            if p not in proven:
                if not is_prime(p):
                    raise ValueError(f"{p} is not prime")
                proven.add(p)


def _iroot(n: int, k: int) -> int:
    """Integer floor of the k-th root of n."""
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)  # >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(base, k) with base**k == n for the least k >= 2, or None.  Only prime
    k are tried: the least k is prime, as base**(ab) == (base**a)**b."""
    for k in primes_up_to(n.bit_length()):
        r = _iroot(n, k)
        if r < 2:
            return None
        if r**k == n:
            return r, k
    return None


def _rho_batches(n: int, e: int = 2) -> Iterator[tuple[int | None, int]]:
    """Brent's rho on the map x -> x^e + c, hunting a nontrivial factor of
    the odd composite n one batch of at most 128 steps at a time.

    When every prime factor p of n has p = 1 (mod e), x^e takes only
    (p-1)/e values mod p and the cycle is about sqrt(e-1) times shorter
    (Brent & Pollard, 1981).  Each step is charged e.bit_length() - 1
    iterations, the squarings in x^e, so the budget counts squarings for
    every e.  Yields (None, iterations_so_far) after each batch that found
    nothing and (factor, iterations_so_far) once, at the end.  Parameters
    are drawn from an n-seeded RNG, so a hunt is reproducible and a caller
    that stops between batches can resume it on the same trajectory.
    """
    rng = random.Random(n)
    cost = e.bit_length() - 1
    used = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            k = 0
            while k < r:
                count = min(m, r - k)
                for _ in range(count):
                    y = (pow(y, e, n) + c) % n
                k += count
                used += count * cost
                yield None, used
            k = 0
            while k < r and g == 1:
                ys = y
                count = min(m, r - k)
                for _ in range(count):
                    y = (pow(y, e, n) + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += count
                used += count * cost
                if g == 1:
                    yield None, used
            r *= 2
        if g == n:
            # Batched gcd overshot; replay one step at a time.
            g = 1
            while g == 1:
                ys = (pow(ys, e, n) + c) % n
                g = math.gcd(abs(x - ys), n)
                used += cost
        if g < n:
            yield g, used
            return
        yield None, used


def _advance(
    batches: Iterator[tuple[int | None, int]], used: int, budget: int
) -> tuple[int | None, int]:
    """Run a rho hunt that has spent `used` iterations until it finds a
    factor or has spent `budget`, checking before every batch, so it stops
    less than one batch beyond the budget.  Returns (factor_or_None,
    iterations_used)."""
    while used < budget:
        factor, used = next(batches)
        if factor is not None:
            return factor, used
    return None, used


@functools.cache
def _stage1_powers() -> tuple[int, ...]:
    """The stage-1 exponent of p-1 as its prime powers: for each prime
    q <= PM1_B1, the largest power of q that is <= PM1_B1."""
    powers = []
    for q in primes_up_to(PM1_B1):
        power = q
        while power * q <= PM1_B1:
            power *= q
        powers.append(power)
    return tuple(powers)


# Multipliers v of the stage-2 giant steps v*D: every prime q in
# (PM1_B1, PM1_B2] is v*D +- u for one of them and some 0 < u < D/2.
_PM1_GIANTS = range(PM1_B1 // PM1_WHEEL, PM1_B2 // PM1_WHEEL + 2)
# Stage-2 charges: the baby values and the first giant step, then each
# giant step with its products against every baby value.
_PM1_STAGE2_SETUP = PM1_WHEEL // 2 + 2 * (_PM1_GIANTS.start * PM1_WHEEL).bit_length()
_PM1_GIANT_COST = len(_PM1_BABIES) + 2


@functools.cache
def _pm1_fixed_cost() -> int:
    """What `_pollard_pm1` spends on a number it cannot split, apart from
    the e.bit_length() for e."""
    stage1 = sum(power.bit_length() for power in _stage1_powers())
    return stage1 + _PM1_STAGE2_SETUP + len(_PM1_GIANTS) * _PM1_GIANT_COST


def _pm1_cost(e: int) -> int:
    """Modular squarings and multiplications that `_pollard_pm1(n, e)`
    spends on a number it cannot split."""
    return e.bit_length() + _pm1_fixed_cost()


def _pollard_pm1(n: int, e: int = 2) -> tuple[int | None, int]:
    """Pollard's p-1 (1974) for a factor of the odd composite n, prime to
    PM1_BASE, with e multiplied into the exponent because every prime of n
    is 1 (mod e).

    Stage 1 raises a = PM1_BASE to e and then to each prime power of the
    PM1_B1-smooth exponent in turn, with a gcd after every one.  A gcd equal
    to n means every prime of n completed at the same prime power, and p-1
    gives up.  Stage 2 catches one more prime of q - 1 up to PM1_B2 by baby
    steps and giant steps over the wheel D = PM1_WHEEL.  With f(t) = b^t + b^-t,
    f(vD) - f(u) = b^-vD (b^vD - b^u)(b^vD - b^-u), so one product covers
    both vD - u and vD + u, and no prime list above PM1_B1 is built.  Every
    modular squaring or multiplication is charged one iteration, as
    `_pm1_cost` totals them.  Returns (factor_or_None, iterations_used).
    """
    x = pow(PM1_BASE, e, n)
    used = e.bit_length()
    g = math.gcd(x - 1, n)
    for power in _stage1_powers():
        if g != 1:
            break
        x = pow(x, power, n)
        used += power.bit_length()
        g = math.gcd(x - 1, n)
    if g != 1:
        return (g if g < n else None), used
    # Stage 2 on b = x: baby values f(u), then f(vD) for each giant step.
    inverse = pow(x, -1, n)
    up, down = x, inverse  # b^u and b^-u for odd u
    square_up, square_down = x * x % n, inverse * inverse % n
    babies = []
    for u in range(1, PM1_WHEEL // 2, 2):
        if u in _PM1_BABIES:
            babies.append((up + down) % n)
        up, down = up * square_up % n, down * square_down % n
    step_up = pow(x, PM1_WHEEL, n)
    step_down = pow(inverse, PM1_WHEEL, n)
    up = pow(step_up, _PM1_GIANTS.start, n)
    down = pow(step_down, _PM1_GIANTS.start, n)
    used += _PM1_STAGE2_SETUP
    product = 1
    for _ in _PM1_GIANTS:
        giant = up + down
        for baby in babies:
            product = product * (giant - baby) % n
        used += _PM1_GIANT_COST
        g = math.gcd(product, n)
        if g == n:
            g = next((h for h in (math.gcd(giant - b, n) for b in babies) if h > 1), n)
        if g != 1:
            return (g if g < n else None), used
        up, down = up * step_up % n, down * step_down % n
    return None, used


def _split(n: int, e: int, budget: int) -> tuple[int | None, int, str]:
    """Hunt a nontrivial factor of the odd composite n within `budget`
    iterations: a rho slice of RHO_SLICE squarings, which wins on small
    factors, then p-1 if the budget left covers its whole cost, then the
    same rho hunt resumed with what remains.  Returns (factor_or_None,
    iterations_used, last stage run)."""
    rho = _rho_batches(n, e)
    factor, used = _advance(rho, 0, min(budget, RHO_SLICE))
    if factor is not None:
        return factor, used, "rho"
    stage, spent = "rho", 0
    if budget - used >= _pm1_cost(e):
        stage = "p-1"
        factor, spent = _pollard_pm1(n, e)
        if factor is not None:
            return factor, used + spent, stage
    factor, used = _advance(rho, used, budget - spent)
    return factor, used + spent, stage


def _cyclotomic_pieces(n: int) -> list[tuple[int, int]]:
    """Split n = 2^m - 1 or 2^m + 1 into (d, piece) pairs whose pieces
    multiply to n; [] when n has neither form.

    2^m - 1 is the product of Phi_d(2) over d | m, and 2^m + 1 the product
    over d | 2m with d not dividing m.  Each Phi_d(2) comes from the
    divisor recursion Phi_d(2) = (2^d - 1) / prod(Phi_j(2), j | d, j < d).
    For d = 4o with o > 1 odd, Phi_d(2) is split once more by its gcd with
    L = 2^o - 2^((o+1)/2) + 1, the Aurifeuillian factorization of
    2^(2o) + 1 = L * (2^o + 2^((o+1)/2) + 1); that yields two pieces for d.
    Every prime factor of a piece for d is 1 (mod lcm(2, d)) except the
    largest prime of d, which can divide Phi_d(2) once.
    """
    if n >= 1 and n & (n + 1) == 0:
        m, plus = n.bit_length(), False
    elif n >= 3 and (n - 1) & (n - 2) == 0:
        m, plus = n.bit_length() - 1, True
    else:
        return []
    top = 2 * m if plus else m
    low = [d for d in range(1, math.isqrt(top) + 1) if top % d == 0]
    phi: dict[int, int] = {}
    for d in low + [top // d for d in reversed(low) if d * d != top]:
        value = 2**d - 1
        for j, v in phi.items():
            if d % j == 0:
                value //= v
        phi[d] = value
    pieces = []
    for d, value in phi.items():
        if plus and m % d == 0:
            continue
        o = d // 4
        if d % 8 == 4 and o > 1:
            aurifeuillian = math.gcd(value, 2**o - 2 ** ((o + 1) // 2) + 1)
            pieces += [(d, aurifeuillian), (d, value // aurifeuillian)]
        else:
            pieces.append((d, value))
    return [(d, piece) for d, piece in pieces if piece > 1]


@functools.cache
def _small_primes() -> tuple[int, ...]:
    """The odd primes up to TRIAL_DIVISION_BOUND, sieved on the first call."""
    return tuple(odd_primes_up_to(TRIAL_DIVISION_BOUND))


@functools.cache
def _small_prime_product() -> int:
    """The product of `_small_primes()`, built on the first call."""
    return math.prod(_small_primes())


def factorize(n: int, cache=None, max_iterations: int = DEFAULT_RHO_BUDGET) -> Factorization:
    """Factor n >= 1: the odd primes up to TRIAL_DIVISION_BOUND come out
    by one gcd with their product, then rho, p-1 and rho again run on each
    composite cofactor (see _split).

    The primes of the gcd are read off the odd primes up to the bound in
    increasing order, up to the root of what is left of it.  When n =
    2^j - 1 or 2^j + 1, the cofactor left by the gcd is first split along
    the cyclotomic and Aurifeuillian pieces of n, and each piece is hunted
    with the rho map and p-1 exponent matching its primes' congruence.
    Consults and updates `cache` (a factor_cache.FactorCache) when given;
    only n itself is stored, never a piece.  A cofactor outside the cache's
    proven primes (a set of the call's own without a cache) is proven by
    is_prime and joins them.  Raises FactorizationTimeout once
    `max_iterations` modular squarings and multiplications are spent.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    if cache is not None:
        hit = cache.get(n)
        if hit is not None:
            return hit
    proven = set() if cache is None else cache.proven
    counts: dict[int, int] = {}
    m = n
    while m % 2 == 0:
        counts[2] = counts.get(2, 0) + 1
        m //= 2
    g = math.gcd(m, _small_prime_product())
    # g is square-free: what is left of it above the root is 1 or a prime.
    found = []
    for q in _small_primes():
        if q * q > g:
            break
        if g % q == 0:
            found.append(q)
            g //= q
    if g > 1:
        found.append(g)
    for d in found:
        while m % d == 0:
            counts[d] = counts.get(d, 0) + 1
            m //= d
    # Each pending entry carries the exponent e of its rho map: lcm(2, d)
    # inside a piece for d, 2 for whatever no piece covers.
    pending = []
    for d, piece in _cyclotomic_pieces(n) if m > 1 else ():
        g = math.gcd(m, piece)
        if g > 1:
            pending.append((g, d if d % 2 == 0 else 2 * d))
            m //= g
    if m > 1:
        pending.append((m, 2))
    budget = max_iterations
    while pending:
        c, e = pending.pop()
        if c in proven or is_prime(c):
            proven.add(c)
            counts[c] = counts.get(c, 0) + 1
            continue
        power = _perfect_power(c)
        if power is not None:
            base, k = power
            pending.extend([(base, e)] * k)
            continue
        factor, used, stage = _split(c, e, budget)
        budget -= used
        if factor is None:
            raise FactorizationTimeout(n, c, max_iterations - budget, stage)
        pending.append((factor, e))
        pending.append((c // factor, e))
    result = Factorization(n, tuple(sorted(counts.items())))
    if cache is not None:
        cache.put(result)
    return result


def divisors(f: Factorization) -> list[int]:
    """All divisors of f.value in increasing order."""
    divs = [1]
    for p, e in f.factors:
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)
