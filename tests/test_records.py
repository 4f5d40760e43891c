"""What callers see of each public record: repr, value equality, hash,
pickling and refusal to be changed, whatever the class is built from."""

import pickle

import pytest

from twogen.factoring import Factorization
from twogen.indicators import Indicator
from twogen.modulus import DependenceReport, ModulusReport
from twogen.reduction import (
    EuclideanTrace,
    ReducedGcd,
    ReductionCheck,
    euclidean_trace,
    reduce,
)
from twogen.semigroup import (
    NotCoprime,
    SemigroupNode,
    TwoGeneratorSemigroup,
    enumerate_by_genus,
)
from twogen.synthesis import (
    CountingFormula,
    FormulaCheck,
    ProductTerm,
    SynthesisRow,
    synthesize,
)

X23, X211 = Indicator(2, 3), Indicator(2, 11)

# (build, build a record equal to it, build a different one, fields, repr)
RECORDS = {
    "Factorization": (
        lambda: Factorization(12, ((2, 2), (3, 1))),
        lambda: Factorization(12, ((2, 2), (3, 1))),
        lambda: Factorization(18, ((2, 1), (3, 2))),
        ("value", "factors"),
        "Factorization(value=12, factors=((2, 2), (3, 1)))",
    ),
    "ModulusReport": (
        lambda: ModulusReport(2, ((1, 3), (2, 1)), 3, Factorization(3, ((3, 1),)), ()),
        lambda: ModulusReport(2, ((1, 3), (2, 1)), 3, Factorization(3, ((3, 1),)), ()),
        lambda: ModulusReport(2, ((1, 3), (2, 1)), 3, Factorization(3, ((3, 1),)), (7,)),
        ("k", "per_i", "modulus", "factors", "unfactored"),
        "ModulusReport(k=2, per_i=((1, 3), (2, 1)), modulus=3,"
        " factors=Factorization(value=3, factors=((3, 1),)), unfactored=())",
    ),
    "DependenceReport": (
        lambda: DependenceReport(4, 7, 10, ((1, 5), (2, 4)), ()),
        lambda: DependenceReport(4, 7, 10, ((1, 5), (2, 4)), ()),
        lambda: DependenceReport(4, 7, 10, ((1, 5), (2, 4)), ((29, 1, 4, 5),)),
        ("k", "modulus", "primes_checked", "classes", "violations"),
        "DependenceReport(k=4, modulus=7, primes_checked=10,"
        " classes=((1, 5), (2, 4)), violations=())",
    ),
    "EuclideanTrace": (
        lambda: euclidean_trace(5, 3),
        lambda: EuclideanTrace((5, 3, 2, 1, 0), (1, 1, 2), (1, 1, 0, 1, -2), (0, -1, 1, -2, 5)),
        lambda: euclidean_trace(3, 5),
        ("r", "a", "s", "t"),
        "EuclideanTrace(r=(5, 3, 2, 1, 0), a=(1, 1, 2),"
        " s=(1, 1, 0, 1, -2), t=(0, -1, 1, -2, 5))",
    ),
    "ReducedGcd": (
        lambda: reduce(5, 3),
        lambda: ReducedGcd(1, -1, -2, 31),
        lambda: reduce(3, 5),
        ("delta", "sign", "two_exp", "modulus"),
        "ReducedGcd(delta=1, sign=-1, two_exp=-2, modulus=31)",
    ),
    "ReductionCheck": (
        lambda: ReductionCheck(5, 3, 100, 24, None),
        lambda: ReductionCheck(5, 3, 100, 24, None),
        lambda: ReductionCheck(5, 3, 100, 2, (5, 1, 3)),
        ("alpha", "beta", "prime_bound", "primes_checked", "counterexample"),
        "ReductionCheck(alpha=5, beta=3, prime_bound=100, primes_checked=24,"
        " counterexample=None)",
    ),
    "SynthesisRow": (
        lambda: SynthesisRow(3, 3, 2, 3, (X23,)),
        lambda: SynthesisRow(3, 3, 2, 3, (Indicator(5, 3),)),
        lambda: SynthesisRow(3, 3, 2, 3, ()),
        ("i", "exponent", "residue", "modulus", "factors"),
        "SynthesisRow(i=3, exponent=3, residue=2, modulus=3,"
        " factors=(Indicator(a=2, q=3),))",
    ),
    "FormulaCheck": (
        lambda: FormulaCheck(3, 100, 24, ()),
        lambda: FormulaCheck(3, 100, 24, ()),
        lambda: FormulaCheck(3, 100, 24, ((3, 1, 2),)),
        ("k", "prime_bound", "primes_checked", "mismatches"),
        "FormulaCheck(k=3, prime_bound=100, primes_checked=24, mismatches=())",
    ),
    "Indicator": (
        lambda: Indicator(10, 7),
        lambda: Indicator(3, 7),
        lambda: Indicator(3, 5),
        ("a", "q"),
        "Indicator(a=3, q=7)",
    ),
    "TwoGeneratorSemigroup": (
        lambda: TwoGeneratorSemigroup(3, 5),
        lambda: TwoGeneratorSemigroup(a=3, b=5),
        lambda: TwoGeneratorSemigroup(3, 7),
        ("a", "b"),
        "TwoGeneratorSemigroup(a=3, b=5)",
    ),
    "ProductTerm": (
        lambda: ProductTerm((X211, X23, X23)),
        lambda: ProductTerm((X23, X211)),
        lambda: ProductTerm((X23,)),
        ("factors",),
        "ProductTerm(factors=(Indicator(a=2, q=3), Indicator(a=2, q=11)))",
    ),
    "CountingFormula": (
        lambda: CountingFormula(3, 2, (ProductTerm((X211,)), ProductTerm((X23,)))),
        lambda: CountingFormula(3, 2, (ProductTerm((X23,)), ProductTerm((X211,)))),
        lambda: CountingFormula(3, 3, (ProductTerm((X23,)),)),
        ("k", "constant", "terms", "rows"),
        "CountingFormula(k=3, constant=2, terms=(ProductTerm(factors=(Indicator(a=2,"
        " q=3),)), ProductTerm(factors=(Indicator(a=2, q=11),))))",
    ),
    "SemigroupNode": (
        lambda: SemigroupNode((3, 4, 5), (1, 2), 2),
        lambda: SemigroupNode((3, 4, 5), (1, 2), 2),
        lambda: SemigroupNode((2, 5), (1, 3), 2),
        ("generators", "gaps", "genus"),
        "SemigroupNode(generators=(3, 4, 5), gaps=(1, 2), genus=2)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    build, build_equal, build_other, fields, text = RECORDS[name]
    record, equal, other = build(), build_equal(), build_other()
    assert type(record).__name__ == name
    assert repr(record) == text
    assert record == equal and not record != equal
    assert hash(record) == hash(equal)
    assert record != other and not record == other
    assert pickle.loads(pickle.dumps(record)) == record
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value


def test_counting_formula_ignores_rows():
    derived = synthesize(4)
    assert derived.rows
    bare = CountingFormula(4, derived.constant, derived.terms)
    assert bare.rows == ()
    assert derived == bare and hash(derived) == hash(bare)
    assert repr(derived) == repr(bare)
    assert "rows" not in repr(derived)
    assert pickle.loads(pickle.dumps(derived)).rows == derived.rows


def test_records_validate_on_construction():
    with pytest.raises(ValueError, match="modulus must be prime, got 9"):
        Indicator(4, 9)
    assert Indicator(-1, 5).a == 4
    assert Indicator._of_prime(-1, 5) == Indicator(4, 5)
    with pytest.raises(ValueError):
        ProductTerm(())
    with pytest.raises(NotCoprime):
        TwoGeneratorSemigroup(4, 6)
    with pytest.raises(ValueError):
        TwoGeneratorSemigroup(5, 3)
    bad_nodes = [
        ((5, 3), (1,), 7),  # generators out of order, genus not len(gaps)
        ((5, 3), (1, 2), 2),  # generators out of order
        ((3, 3, 4, 5), (1, 2), 2),  # a repeated generator
        ((3, 4, 5), (2, 1), 2),  # gaps out of order
        ((3, 4, 5), (1, 1), 2),  # a repeated gap
        ((0, 3, 4), (1, 2), 2),  # generator 0
        ((3, 4, 5), (-1, 2), 2),  # a negative gap
        ((3, 4, 5), (1, 2), 3),  # genus is not len(gaps)
        ((3, 4, 5), (1, 2), 1),
        ((3, 4, 5.0), (1, 2), 2),  # not an int
        (("3", "4", "5"), (1, 2), 2),
        ((2, 10**12), (1,), 1),  # beyond 2*genus + 1, the largest possible generator
        ((3, 4, 5), (1, 7), 2),  # a gap beyond 2*genus + 1
    ]
    for generators, gaps, genus in bad_nodes:
        with pytest.raises(ValueError):
            SemigroupNode(generators, gaps, genus)
    assert SemigroupNode([3, 4, 5], [1, 2], 2) == SemigroupNode((3, 4, 5), (1, 2), 2)


def test_census_nodes_are_records():
    nodes = [node for level in enumerate_by_genus(8) for node in level]
    assert len(nodes) == 1 + 1 + 2 + 4 + 7 + 12 + 23 + 39 + 67
    fields = (*SemigroupNode.__slots__, "generators", "gaps")

    def assert_refuses_changes(node):
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(node, field, None)
            with pytest.raises(AttributeError):
                delattr(node, field)

    for node in nodes:
        assert_refuses_changes(node)  # tuples not decoded yet
        rebuilt = SemigroupNode(node.generators, node.gaps, node.genus)
        assert node == rebuilt and hash(node) == hash(rebuilt)
        assert pickle.loads(pickle.dumps(node)) == node
        assert_refuses_changes(node)
        assert node == rebuilt
    # Distinct semigroups are distinct records, also as set members.
    assert len(set(nodes)) == len(nodes)
