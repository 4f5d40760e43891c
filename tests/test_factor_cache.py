import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twogen.factoring
from twogen.factoring import Factorization, FactorizationTimeout, factorize
from twogen.factor_cache import FactorCache, ParseError
from twogen.counting import row_modulus


def test_load_valid_file(tmp_path):
    path = tmp_path / "factors.txt"
    path.write_text("513 = 3^3 * 19\n# a comment\n10 = 2 * 5\n")
    cache = FactorCache.load(path)
    assert len(cache) == 2
    assert cache.get(513).factors == ((3, 3), (19, 1))
    assert cache.get(10).factors == ((2, 1), (5, 1))
    assert cache.get(12) is None


def test_load_tolerates_whitespace_and_comments(tmp_path):
    path = tmp_path / "factors.txt"
    path.write_text("\n  # header\n  15 =  3 *  5   # trailing\n\n")
    cache = FactorCache.load(path)
    assert cache.get(15).factors == ((3, 1), (5, 1))


def test_load_empty_and_missing(tmp_path):
    path = tmp_path / "factors.txt"
    path.write_text("")
    assert len(FactorCache.load(path)) == 0
    assert len(FactorCache.load(tmp_path / "absent.txt")) == 0


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("12 = 2 * 5", "multiply to 10"),
        ("15 = 15", "not prime"),
        ("15 = 5 * 3", "increasing"),
        ("9 = 3^0", "exponent"),
        ("just junk", "expected"),
        ("x = 2", "bad integer"),
        ("8 = 2^x", "bad factor"),
        ("12 = ", "multiply to 1, not 12"),
    ],
)
def test_load_rejects_bad_lines(tmp_path, line, fragment):
    path = tmp_path / "factors.txt"
    path.write_text(line + "\n")
    with pytest.raises(ParseError) as info:
        FactorCache.load(path)
    assert info.value.line == 1
    assert fragment in str(info.value)


def test_load_rejects_duplicates(tmp_path):
    path = tmp_path / "factors.txt"
    path.write_text("10 = 2 * 5\n10 = 2 * 5\n")
    with pytest.raises(ParseError) as info:
        FactorCache.load(path)
    assert info.value.line == 2


def test_load_rejects_a_repeated_non_prime_at_its_first_line(tmp_path):
    path = tmp_path / "factors.txt"
    path.write_text("10 = 2 * 5\n45 = 3 * 15\n75 = 5 * 15\n")
    with pytest.raises(ParseError) as info:
        FactorCache.load(path)
    assert info.value.line == 2
    assert "15 is not prime" in str(info.value)


def test_load_proves_each_distinct_prime_once(tmp_path, monkeypatch):
    proven = []
    real = twogen.factoring.is_prime

    def counting(n):
        proven.append(n)
        return real(n)

    monkeypatch.setattr(twogen.factoring, "is_prime", counting)
    path = tmp_path / "factors.txt"
    path.write_text("10 = 2 * 5\n15 = 3 * 5\n30 = 2 * 3 * 5\n513 = 3^3 * 19\n")
    assert len(FactorCache.load(path)) == 4
    assert sorted(proven) == [2, 3, 5, 19]
    proven.clear()
    FactorCache.load(path)  # a new load proves them again
    assert sorted(proven) == [2, 3, 5, 19]


@pytest.mark.parametrize("name", ["missing/factors.txt", "directory"])
def test_a_failed_save_names_the_path_and_leaves_no_temp_file(tmp_path, name):
    # A missing directory fails at the temp file, a directory at the path
    # fails at the rename after it; neither message names the temp file.
    (tmp_path / "directory").mkdir()
    path = tmp_path / name
    cache = FactorCache()
    cache.put(Factorization(10, ((2, 1), (5, 1))))
    messages = []
    for _ in range(2):
        with pytest.raises(OSError) as info:
            cache.save(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"cannot save the factor cache to {path}: ")
    assert ".tmp" not in messages[0]
    assert [p.name for p in tmp_path.rglob("*")] == ["directory"]
    assert cache.dirty


def test_save_format(tmp_path):
    path = tmp_path / "factors.txt"
    cache = FactorCache()
    cache.put(Factorization(10, ((2, 1), (5, 1))))
    cache.put(Factorization(513, ((3, 3), (19, 1))))
    cache.save(path)
    assert path.read_text() == "10 = 2 * 5\n513 = 3^3 * 19\n"


def test_save_empty_cache_writes_empty_file(tmp_path):
    path = tmp_path / "factors.txt"
    FactorCache().save(path)
    assert path.read_text() == ""


def test_save_fermat_number_line(tmp_path):
    # 2^32 + 1 = 641 * 6700417, reproducible by the built-in factoring.
    path = tmp_path / "factors.txt"
    cache = FactorCache()
    factorize(2**32 + 1, cache=cache)
    cache.save(path)
    assert "4294967297 = 641 * 6700417" in path.read_text().splitlines()


def test_save_leaves_no_temp_files(tmp_path):
    path = tmp_path / "factors.txt"
    cache = FactorCache()
    cache.put(Factorization(10, ((2, 1), (5, 1))))
    cache.save(path)
    assert [p.name for p in tmp_path.iterdir()] == ["factors.txt"]


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=2, max_value=10**5), max_size=12))
def test_round_trip(tmp_path_factory, values):
    cache = FactorCache()
    for n in values:
        factorize(n, cache=cache)
    path = tmp_path_factory.mktemp("cache") / "factors.txt"
    cache.save(path)
    loaded = FactorCache.load(path)
    assert loaded.values() == cache.values()
    for n in values:
        assert loaded.get(n) == cache.get(n)


def test_round_trip_of_one_and_its_empty_product(tmp_path):
    path = tmp_path / "factors.txt"
    cache = FactorCache()
    factorize(1, cache=cache)
    factorize(12, cache=cache)
    cache.save(path)
    assert path.read_text() == "1 = \n12 = 2^2 * 3\n"
    loaded = FactorCache.load(path)
    assert loaded.get(1) == Factorization(1, ())
    assert loaded.get(12) == Factorization(12, ((2, 2), (3, 1)))


def test_put_validates():
    cache = FactorCache()
    with pytest.raises(ValueError):
        cache.put(Factorization(12, ((2, 1), (5, 1))))
    assert len(cache) == 0


def test_dirty_flag():
    cache = FactorCache()
    assert not cache.dirty
    cache.put(Factorization(10, ((2, 1), (5, 1))))
    assert cache.dirty
    cache.put(Factorization(10, ((2, 1), (5, 1))))  # no change
    assert cache.dirty


def test_dirty_cleared_by_save(tmp_path):
    cache = FactorCache()
    cache.put(Factorization(10, ((2, 1), (5, 1))))
    cache.save(tmp_path / "factors.txt")
    assert not cache.dirty


def test_factorize_consults_and_updates_cache():
    cache = FactorCache()
    fact = factorize(36465, cache=cache)
    assert 36465 in cache
    assert cache.get(36465) == fact
    # Beyond trial division and with a zero rho budget, only the cache
    # can answer; a supplied entry must be trusted as-is.
    n = 1000003 * 1000033
    with pytest.raises(FactorizationTimeout):
        factorize(n, cache=cache, max_iterations=0)
    cache.put(Factorization(n, ((1000003, 1), (1000033, 1))))
    assert factorize(n, cache=cache, max_iterations=0).factors == (
        (1000003, 1),
        (1000033, 1),
    )


def test_cli_workload_factorizations_are_unchanged(tmp_path):
    # The 93 distinct row moduli m_k(i) > 1 of `modulus --k 4, 8, ..., 128`.
    # The digest pins the cache file they give, so a change to the hunt
    # (rho slice, p-1, rho) that alters any factorization shows here.
    values = {row_modulus(k, i) for k in range(4, 129, 4) for i in range(1, k + 1)}
    values.discard(1)
    assert len(values) == 93
    cache = FactorCache()
    for n in sorted(values):
        factorize(n, cache)
    path = tmp_path / "factors.txt"
    cache.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "a84c8d50db030899b5215a4cd03b2fa5aa6af91fb894dfcd1795ab4a697a780e"
    )
