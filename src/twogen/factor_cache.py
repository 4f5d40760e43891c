"""Persistent, verified store of known factorizations.

File format, one entry per line::

    <value> = <p1>[^e1] * <p2>[^e2] * ...

The exponent is omitted when it is 1 and `#` starts a comment.  The format
is meant to be hand-edited, so published factorizations (e.g. Cunningham
tables for 2^m +- 1) can be pasted in when they are out of reach of the
built-in factoring.  Every entry is re-verified on load -- product check
plus a primality check of each listed prime -- so a corrupted file is
rejected loudly instead of silently poisoning downstream results.

Concurrency: reads are safe from any number of threads; mutation follows a
single-writer discipline and save() is atomic (write to temp, then rename).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .arith import DEFAULT_RHO_BUDGET, Factorization, FactorizationTimeout, factorize


class ParseError(ValueError):
    """A cache file line that could not be accepted."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def _format_entry(value: int, factors: tuple[tuple[int, int], ...]) -> str:
    parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in factors]
    return f"{value} = {' * '.join(parts)}"


class FactorCache:
    """In-memory map from integer to its verified prime factorization."""

    def __init__(self):
        self._entries: dict[int, tuple[tuple[int, int], ...]] = {}
        self.dirty = False

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, n: int) -> bool:
        return n in self._entries

    def get(self, n: int) -> Factorization | None:
        factors = self._entries.get(n)
        if factors is None:
            return None
        return Factorization(n, factors)

    def put(self, fact: Factorization) -> None:
        """Store a factorization after re-verifying it."""
        fact.check()
        if self._entries.get(fact.value) != fact.factors:
            self._entries[fact.value] = fact.factors
            self.dirty = True

    def values(self) -> list[int]:
        return sorted(self._entries)

    @classmethod
    def load(cls, path) -> "FactorCache":
        """Read a cache file; a missing file yields an empty cache."""
        cache = cls()
        path = Path(path)
        if not path.exists():
            return cache
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, sep, tail = line.partition("=")
            if not sep:
                raise ParseError(lineno, "expected '<value> = <factors>'")
            try:
                value = int(head.strip())
            except ValueError:
                raise ParseError(lineno, f"bad integer {head.strip()!r}") from None
            factors = []
            for piece in tail.split("*"):
                base, _, exp = piece.partition("^")
                try:
                    p = int(base.strip())
                    e = int(exp.strip()) if exp.strip() else 1
                except ValueError:
                    raise ParseError(lineno, f"bad factor {piece.strip()!r}") from None
                factors.append((p, e))
            if value in cache._entries:
                raise ParseError(lineno, f"duplicate entry for {value}")
            fact = Factorization(value, tuple(factors))
            try:
                fact.check()
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
            cache._entries[value] = fact.factors
        return cache

    def save(self, path) -> None:
        """Write all entries sorted by value; atomic via temp file + rename."""
        path = Path(path)
        lines = [_format_entry(n, self._entries[n]) for n in sorted(self._entries)]
        text = "\n".join(lines) + ("\n" if lines else "")
        fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.dirty = False

    def seed_power_tables(
        self, max_exponent: int = 64, max_iterations: int = DEFAULT_RHO_BUDGET
    ) -> None:
        """Populate the cache with factorizations of 2^m - 1 and 2^m + 1.

        A number that runs out of budget does not stop the others: every one
        that factors is stored, and then the FactorizationTimeout of the
        first number that failed is raised.
        """
        first_timeout = None
        for m in range(1, max_exponent + 1):
            for n in (2**m - 1, 2**m + 1):
                if n >= 2 and n not in self:
                    try:
                        factorize(n, cache=self, max_iterations=max_iterations)
                    except FactorizationTimeout as exc:
                        first_timeout = first_timeout or exc
        if first_timeout is not None:
            raise first_timeout
