"""Text renderings of a counting formula: flat, factored, or a case table.

A formula (`synthesis.CountingFormula`) is a constant plus a multiset of
products of indicators X(a,q); here each product is its tuple of factors,
sorted by (q, a).  The flat form lists the products with their
multiplicities, the factored form pulls out a factor that several products
share, and the case table gives the value at every residue signature of p.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .indicators import _product, _residue_model, _sort_key

# The most cells `render(..., "case-table")` prints: k = 37, the largest
# table at k <= 40, has 1,114,156; k = 41 has 8,912,944.
CASE_TABLE_CELLS = 2_000_000


class CaseTableTooLarge(ValueError):
    """The case table has more than CASE_TABLE_CELLS cells."""


def _sum(parts: list[str], counts) -> str:
    """`parts`, then each (factors, count) of `counts` as a product with its
    multiplicity, joined by ' + '."""
    summands = [_product(f) if c == 1 else f"{c}*{_product(f)}" for f, c in counts]
    return " + ".join(parts + summands)


def _grouped(terms):
    """Factor shared single indicators out of the terms.

    Returns (remaining [(factors, count)], groups [(factor, inner_const,
    inner_terms [(cofactors, count)])]).  A factor is pulled when it appears
    in at least two summands, one of which has another factor to leave
    behind; this reproduces groupings like X*(3 + Y + Z).  Only factors held
    by two products, or by one counted twice, are sorted and scanned: counts
    only fall as groups form, so no other factor can group.  The terms come
    in canonical order, so the cofactors left by one factor do too.
    """
    counts = Counter(term.factors for term in terms)  # in order of first appearance
    holders: dict = {}  # factor -> the summands that have it, in that order
    for factors in counts:
        for x in factors:
            holders.setdefault(x, []).append(factors)
    shared = [x for x, held in holders.items() if len(held) > 1 or counts[held[0]] > 1]
    groups = []
    for x in sorted(shared, key=_sort_key):
        members = [(f, counts[f]) for f in holders[x] if f in counts]
        if sum(c for _, c in members) < 2 or all(len(f) == 1 for f, _ in members):
            continue
        inner_const = sum(c for f, c in members if len(f) == 1)
        inner_terms = [
            (tuple(y for y in f if y != x), c) for f, c in members if len(f) > 1
        ]
        groups.append((x, inner_const, inner_terms))
        for f, _ in members:
            del counts[f]
    remaining = list(counts.items())
    return remaining, groups


def _options(counts) -> dict[int, list[tuple[str, int]]]:
    """The options of one case table: per prime q of its terms, in increasing
    order, one for each listed unit a and, when some unit avoids every listed
    residue, the complement '!a/b/...'.  An option is (label, mask), where bit
    j of the mask is set when p in its class zeroes the j-th term: the term
    has the factor X(a,q).  The complement zeroes none."""
    zeroes: dict[tuple[int, int], int] = {}
    for j, (factors, _) in enumerate(counts):
        for x in factors:
            zeroes[x.q, x.a] = zeroes.get((x.q, x.a), 0) | 1 << j
    options = {}
    for q, (residues, units, open_) in _residue_model(f for f, _ in counts).items():
        options[q] = [(str(a), zeroes[q, a]) for a in units]
        if open_:
            options[q].append(("!" + "/".join(str(a) for a in residues), 0))
    return options


def render(formula, style: str = "factored") -> str:
    """Render the formula as text: 'flat', 'factored', or 'case-table'."""
    lhs = f"n(p^{formula.k},2)"
    if style == "flat":
        counts = Counter(term.factors for term in formula.terms).items()
        return f"{lhs} = {_sum([str(formula.constant)], counts)}"
    if style == "factored":
        remaining, groups = _grouped(formula.terms)
        parts = [_sum([str(formula.constant)], remaining)]
        for x, inner_const, inner_terms in groups:
            inner = _sum([str(inner_const)] if inner_const else [], inner_terms)
            parts.append(f"{x}*({inner})")
        return f"{lhs} = {' + '.join(parts)}"
    if style == "case-table":
        return _case_table(formula, lhs)
    raise ValueError(f"unknown style {style!r}")


def _case_table(formula, lhs: str) -> str:
    """The base table of the ungrouped terms, then one adj table per group
    of `_grouped`: each the value of its constant plus its terms at every
    cell, a choice of one of the `_options` of each of its primes."""
    if not formula.terms:
        return f"{lhs} = {formula.constant}"
    remaining, groups = _grouped(formula.terms)
    names = [f"adj{j}" for j in range(1, len(groups) + 1)]
    # Per table: its constant, its terms, the head of its cells, and the
    # line that stands for it when it has no terms.
    tables = [(formula.constant, remaining, "base(p), by", f"base(p) = {formula.constant}")]
    for name, (x, inner_const, inner_terms) in zip(names, groups):
        when = f"{name}(p) = 0 when p = {x.a} (mod {x.q})"
        tables.append(
            (inner_const, inner_terms, f"{when}; otherwise, by", f"{when}, else {inner_const}")
        )
    options = [_options(counts) for _, counts, _, _ in tables]
    size = sum(math.prod(map(len, table.values())) for table in options if table)
    if size > CASE_TABLE_CELLS:
        raise CaseTableTooLarge(
            f"the case table for k={formula.k} has {size} cells, more than"
            f" {CASE_TABLE_CELLS}; use --style factored"
        )
    lines = [f"{lhs} = base(p)" + "".join(f" + {name}(p)" for name in names)]
    for (constant, counts, head, line), table in zip(tables, options):
        lines.append("")
        if not counts:
            lines.append(line)
            continue
        lines.append(f"{head} the class of p mod ({', '.join(map(str, table))}):")
        values: dict[int, int] = {}  # by the mask of the zeroed terms
        for cell in itertools.product(*table.values()):
            zeroed = 0
            for _, mask in cell:
                zeroed |= mask
            if zeroed not in values:
                values[zeroed] = constant + sum(
                    c for j, (_, c) in enumerate(counts) if not zeroed >> j & 1
                )
            lines.append(f"  ({', '.join(label for label, _ in cell)}) -> {values[zeroed]}")
    return "\n".join(lines)
