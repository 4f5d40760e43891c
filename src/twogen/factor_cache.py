"""Persistent, verified store of known factorizations.

File format, one entry per line::

    <value> = <p1>[^e1] * <p2>[^e2] * ...

The exponent is omitted when it is 1, the factors of 1 are the empty
product (`1 = `), and `#` starts a comment.  The format is meant to be
hand-edited, so published factorizations (e.g. Cunningham tables for
2^m +- 1) can be pasted in when they are out of reach of the built-in
factoring.  Every entry is re-verified on load (`Factorization.check`:
structure and product first, an exponent too large for its value refused
before its power is formed, then a primality check of each listed prime)
so a corrupted file is rejected loudly instead of silently poisoning
downstream results.  A cache proves each prime once: `load`, `put` and
`factoring.factorize` share its set of primes proven by `is_prime`, and
nothing else enters it.  Each entry is kept as the verified record itself.

Concurrency: reads are safe from any number of threads; mutation follows a
single-writer discipline and save() is atomic (write to temp, then rename).
"""

from __future__ import annotations

import os
import tempfile
from functools import cached_property
from pathlib import Path

from .factoring import Factorization


class ParseError(ValueError):
    """A cache file line that could not be accepted."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def format_factors(factors: tuple[tuple[int, int], ...]) -> str:
    """`p1^e1 * p2 * ...`, the right-hand side of a cache line."""
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)


class FactorCache:
    """Map from integer to its verified Factorization, and the primes proven."""

    def __init__(self):
        self._entries: dict[int, Factorization] = {}
        self.proven: set[int] = set()
        self.dirty = False

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, n: int) -> bool:
        return n in self._entries

    def get(self, n: int) -> Factorization | None:
        return self._entries.get(n)

    def put(self, fact: Factorization) -> None:
        """Store a factorization after re-verifying it, proving new primes."""
        fact.check(self.proven)
        if self._entries.get(fact.value) != fact:
            self._entries[fact.value] = fact
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
            for piece in tail.split("*") if tail.strip() else ():
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
                fact.check(cache.proven)
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
            cache._entries[value] = fact
        return cache

    def save(self, path) -> None:
        """Write all entries sorted by value; atomic via temp file + rename.
        A failure raises an OSError that names `path` and the reason, never
        the temp file, whose name changes from run to run."""
        path = Path(path)
        lines = [f"{n} = {format_factors(f.factors)}" for n, f in sorted(self._entries.items())]
        text = "\n".join(lines) + ("\n" if lines else "")
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(f"cannot save the factor cache to {path}: {exc.strerror}") from None
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
        self.dirty = False


class LazyFactorCache(FactorCache):
    """The cache of one file, read by `FactorCache.load` the first time an
    entry is looked up, stored or counted, or its proven primes are asked
    for, so that a run that never touches an entry never reads the file."""

    def __init__(self, path):
        self.path = path
        self.dirty = False

    @cached_property
    def _loaded(self) -> FactorCache:
        return FactorCache.load(self.path)

    _entries = property(lambda self: self._loaded._entries)
    proven = property(lambda self: self._loaded.proven)
