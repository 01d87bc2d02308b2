"""The contract of lieform's 22 record classes (rings.Record): repr, ==,
hash, immutability, _replace, and the checks each runs on construction."""

import subprocess
import sys
from fractions import Fraction

import pytest

import lieform
from lieform import (BilinearForm, CasimirTensor, ChevalleyPresentation, CochainComplex,
                     DecompositionResult, DualNumbers, DynkinType, Integers, IntegersModPk,
                     InvalidRank, KernelWitness, LocalizedAtP, Matrix, MatrixRealization,
                     PTypeReport, PerfectnessVerdict, PrimeField, QQ, Rationals, RootSystem,
                     Scalar, SquareZeroExtension, UnsupportedRing, WeightedModule, ZZ,
                     build_root_system, ce_complex, chevalley_presentation)
from lieform.rings import Record, RingSpec

F5 = PrimeField(5)
A1 = DynkinType("A", 1)
RS = build_root_system(A1)
PRES = chevalley_presentation(A1)
G = PRES.to_lie_algebra(F5)
ONE = Matrix(QQ, 1, 1, (Fraction(1),))
REPORT = PTypeReport((-2, 0, 2), 5, True, True, True)

RS_TEXT = ("RootSystem(dynkin=DynkinType(series='A', rank=1), cartan=((2,),), "
           "positive_roots=((1,),), roots=((1,), (-1,)), symmetrizer=(1,))")
PRES_TEXT = ("ChevalleyPresentation(dynkin=DynkinType(series='A', rank=1), root_system=%s, "
             "dim=3, labels=('H1', 'X[1]', 'X[-1]'))" % RS_TEXT)
ONE_TEXT = "Matrix(ring=Rationals(), nrows=1, ncols=1, data=(Fraction(1, 1),))"

# (a function building a fresh sample, its repr as the dataclass-generated
# __repr__ printed it, the fields that == and hash compare)
RECORDS = [
    (RingSpec, "RingSpec()", ()),
    (Integers, "Integers()", ()),
    (Rationals, "Rationals()", ()),
    (lambda: PrimeField(5), "PrimeField(p=5)", ("p",)),
    (lambda: IntegersModPk(5, 2), "IntegersModPk(p=5, k=2)", ("p", "k")),
    (lambda: LocalizedAtP(5), "LocalizedAtP(p=5)", ("p",)),
    (lambda: DualNumbers(PrimeField(5)), "DualNumbers(base=PrimeField(p=5))", ("base",)),
    (lambda: Scalar(F5, 3), "Scalar(ring=PrimeField(p=5), value=3)", ("ring", "value")),
    (lambda: DynkinType("E", 8), "DynkinType(series='E', rank=8)", ("series", "rank")),
    (lambda: RootSystem(A1, RS.cartan, RS.positive_roots, RS.roots, RS.symmetrizer,
                        RS._root_set, RS._index),
     RS_TEXT, ("dynkin", "cartan", "positive_roots", "roots", "symmetrizer", "_root_set")),
    (lambda: PTypeReport((-2, 0, 2), 5, True, True, True),
     "PTypeReport(set=(-2, 0, 2), p=5, is_type1=True, is_type2=True, is_type3=True)",
     ("set", "p", "is_type1", "is_type2", "is_type3")),
    (lambda: Matrix(ZZ, 2, 2, (1, 2, 3, 4)),
     "Matrix(ring=Integers(), nrows=2, ncols=2, data=(1, 2, 3, 4))",
     ("ring", "nrows", "ncols", "data")),
    (lambda: BilinearForm(G, Matrix(F5, 3, 3, (3, 0, 0, 0, 0, 4, 0, 4, 0))),
     "BilinearForm(algebra=%r, gram=Matrix(ring=PrimeField(p=5), nrows=3, ncols=3, "
     "data=(3, 0, 0, 0, 0, 4, 0, 4, 0)))" % G, ("algebra", "gram")),
    (lambda: CasimirTensor(G, Matrix(F5, 1, 1, (2,))),
     "CasimirTensor(algebra=%r, coefficients=Matrix(ring=PrimeField(p=5), nrows=1, "
     "ncols=1, data=(2,)))" % G, ("algebra", "coefficients")),
    (lambda: ChevalleyPresentation(A1, RS, 3, PRES.labels, PRES.table),
     PRES_TEXT, ("dynkin", "root_system", "dim", "labels", "table")),
    (lambda: MatrixRealization(PRES, 2, ()),
     "MatrixRealization(presentation=%s, module_rank=2, matrices=())" % PRES_TEXT,
     ("presentation", "module_rank", "matrices")),
    (lambda: PerfectnessVerdict(DynkinType("E", 8), 5, False, "E8_P5"),
     "PerfectnessVerdict(dynkin=DynkinType(series='E', rank=8), p=5, predicted=False, "
     "reason='E8_P5', oracle=None)", ("dynkin", "p", "predicted", "reason", "oracle")),
    (lambda: KernelWitness(2, (), True, True, False),
     "KernelWitness(rank=2, vectors=(), ideal_ok=True, nilpotent_ok=True, in_kernel=False)",
     ("rank", "vectors", "ideal_ok", "nilpotent_ok", "in_kernel")),
    (lambda: CochainComplex(G, None, ((0, 1),), ({}, {}, {})),
     "CochainComplex(algebra=%r, twist=None, pairs=((0, 1),))" % G,
     ("algebra", "twist", "pairs")),
    (lambda: SquareZeroExtension(IntegersModPk(5, 2), F5),
     "SquareZeroExtension(total_ring=IntegersModPk(p=5, k=2), quotient_ring=PrimeField(p=5))",
     ("total_ring", "quotient_ring")),
    (lambda: WeightedModule(5, ONE, (0,), {0: ONE}),
     "WeightedModule(p=5, lattice=%s, weights=(0,), pieces={0: %s}, action=None)"
     % (ONE_TEXT, ONE_TEXT), ("p", "lattice", "weights", "pieces", "action")),
    (lambda: DecompositionResult(True, {0: ONE}, {}, None, REPORT, "polynomial-projectors"),
     "DecompositionResult(success=True, pieces={0: %s}, projectors={}, failure_witness=None, "
     "report=%r, path='polynomial-projectors')" % (ONE_TEXT, REPORT),
     ("success", "pieces", "projectors", "failure_witness", "report", "path")),
]
IDS = [text.split("(")[0] for _, text, _ in RECORDS]


def test_the_table_covers_every_record_class():
    exported = {c for c in vars(lieform).values() if isinstance(c, type) and issubclass(c, Record)}
    assert len(RECORDS) == 22
    assert {type(make()) for make, _, _ in RECORDS} == exported | {RingSpec}


@pytest.mark.parametrize("make,text,compared", RECORDS, ids=IDS)
def test_repr_equality_and_hash(make, text, compared):
    a, b = make(), make()
    assert a is not b
    assert repr(a) == repr(b) == text
    assert a == b and not a != b
    assert a == make() and make() == a     # only one side has compared before
    key = tuple(getattr(a, name) for name in compared)
    try:
        want = hash(key)
    except TypeError:                   # a dict among the fields, as at ChevalleyPresentation
        for r in (a, b):
            with pytest.raises(TypeError):
                hash(r)
    else:
        assert hash(a) == hash(b) == want


@pytest.mark.parametrize("make,text,compared", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(make, text, compared):
    a = make()
    for name in compared[:1] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text


def test_records_of_different_classes_with_equal_fields_differ():
    assert PrimeField(5) != LocalizedAtP(5)
    assert Integers() != Rationals() and RingSpec() != Integers()
    assert Matrix(ZZ, 1, 1, (1,)) != Matrix(ZZ, 1, 1, (2,))


def test_hidden_fields_are_left_out_of_equality_hash_and_repr():
    other = RS._replace(_index={})
    assert other._index == {} and other is not RS
    assert other == RS and hash(other) == hash(RS) and repr(other) == repr(RS)
    cx = ce_complex(G)
    twin = cx._replace(maps=({}, {}, {}), untwisted=cx)
    assert twin.maps == ({}, {}, {}) and twin.untwisted is cx
    assert twin == cx and hash(twin) == hash(cx) and repr(twin) == repr(cx)


def test_unprinted_fields_are_compared():
    # RootSystem._root_set and ChevalleyPresentation.table are out of repr only
    assert RS._replace(_root_set=frozenset()) != RS
    bad = PRES._replace(table={})
    assert bad != PRES and repr(bad) == repr(PRES)


def test_keywords_defaults_and_replace():
    v = PerfectnessVerdict(A1, 5, True, reason="PERFECT")
    assert v.oracle is None
    assert v._replace(oracle=True) == PerfectnessVerdict(A1, 5, True, "PERFECT", True)
    assert v == PerfectnessVerdict(dynkin=A1, p=5, predicted=True, reason="PERFECT")
    assert F5._replace(p=7) == PrimeField(7) and DynkinType("A", 1)._replace(rank=3).name == "A3"
    for call in (lambda: PerfectnessVerdict(A1, 5),
                 lambda: PerfectnessVerdict(A1, 5, True, "PERFECT", None, 1),
                 lambda: PerfectnessVerdict(A1, 5, True, "PERFECT", p=5),
                 lambda: PerfectnessVerdict(A1, 5, True, "PERFECT", q=1),
                 lambda: v._replace(q=1)):
        with pytest.raises(TypeError):
            call()


# (a construction that its record's checks refuse, the exception)
REFUSALS = [
    ("DynkinType('A', 0)", InvalidRank),
    ("DynkinType('A', 1)._replace(rank=0)", InvalidRank),
    ("LocalizedAtP(4)", ValueError),
    ("PrimeField(4)", ValueError),
    ("IntegersModPk(5, 0)", ValueError),
    ("DualNumbers(ZZ)", ValueError),
    ("BilinearForm(G, Matrix(F5, 3, 3, (0, 1, 0, 0, 0, 0, 0, 0, 0)))", AssertionError),
    ("SquareZeroExtension(IntegersModPk(5, 3), PrimeField(5))", UnsupportedRing),
]
SETUP = ("from lieform import *\n"
         "F5 = PrimeField(5)\n"
         "G = chevalley_presentation(DynkinType('A', 1)).to_lie_algebra(F5)\n")


@pytest.mark.parametrize("source,exc", REFUSALS, ids=[s for s, _ in REFUSALS])
def test_construction_checks_refuse(source, exc):
    scope = {}
    exec(SETUP, scope)
    with pytest.raises(exc):
        eval(source, scope)


def test_construction_checks_survive_python_O(child_env):
    code = (SETUP + "assert False  # stripped under -O\n"
            "for source in %r:\n"
            "    try:\n"
            "        eval(source)\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__)\n"
            "    else:\n"
            "        print('accepted')\n" % ([s for s, _ in REFUSALS],))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=child_env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == [exc.__name__ for _, exc in REFUSALS]
