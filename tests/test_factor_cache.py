import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twogen.arith import Factorization, FactorizationTimeout, factorize
from twogen.factor_cache import FactorCache, ParseError


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


def test_seed_power_tables():
    cache = FactorCache()
    cache.seed_power_tables(max_exponent=16)
    assert cache.get(513).factors == ((3, 3), (19, 1))  # 2^9 + 1
    assert cache.get(2**16 + 1).factors == ((65537, 1),)
    assert cache.get(2**13 - 1).factors == ((8191, 1),)
    assert 1 not in cache  # 2^1 - 1 is skipped


def test_seed_power_tables_keeps_going_past_a_timeout():
    # With no rho budget, 2^41 - 1 = 13367 * 164511353 is the first number
    # that needs rho; everything below the trial bound still factors.
    cache = FactorCache()
    with pytest.raises(FactorizationTimeout) as info:
        cache.seed_power_tables(max_exponent=64, max_iterations=0)
    assert info.value.n == 2**41 - 1
    failed = {2**41 - 1, 2**52 + 1, 2**53 - 1, 2**57 - 1, 2**59 - 1, 2**59 + 1}
    failed |= {2**63 - 1, 2**64 + 1}
    for m in range(1, 65):
        for n in (2**m - 1, 2**m + 1):
            if n >= 2:
                assert (n in cache) == (n not in failed), n
    assert cache.get(2**64 - 1).value == 2**64 - 1
