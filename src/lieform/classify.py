"""Perfectness of the Killing form by type and prime.

Closed-form predicate, an oracle on the integral Killing discriminant,
the exact Killing-to-trace-form ratios for classical series, and the
characteristic-2 kernel witness in the B series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .chevalley import chevalley_presentation, matrix_realization
from .liealg import BilinearForm, _discriminant, killing_form, trace_form
from .matrices import Matrix
from .rings import PrimeField, ZZ
from .roots import DynkinType, InvalidRank

REASONS = ("P_EQ_2", "A_DIV", "B_DIV", "C_DIV", "D_DIV",
           "EXC_P3", "E8_P5", "PERFECT")


class NoConstantRatio(Exception):
    pass


@dataclass(frozen=True)
class PerfectnessVerdict:
    dynkin: DynkinType
    p: int
    predicted: bool
    reason: str
    oracle: Optional[bool] = None

    @property
    def agree(self) -> Optional[bool]:
        return None if self.oracle is None else self.predicted == self.oracle


def predict_perfect(t: DynkinType, p: int) -> PerfectnessVerdict:
    """Closed-form verdict; reasons fire in a fixed order."""
    r = t.rank
    reason = "PERFECT"
    if p == 2:
        reason = "P_EQ_2"
    elif t.series == "A" and (r + 1) % p == 0:
        reason = "A_DIV"
    elif t.series == "B" and (2 * r - 1) % p == 0:
        reason = "B_DIV"
    elif t.series == "C" and (r + 1) % p == 0:
        reason = "C_DIV"
    elif t.series == "D" and (r - 1) % p == 0:
        reason = "D_DIV"
    elif t.series in ("G", "F") and p == 3:
        reason = "EXC_P3"
    elif t.series == "E" and p == 3:
        reason = "EXC_P3"
    elif t.series == "E" and r == 8 and p == 5:
        reason = "E8_P5"
    return PerfectnessVerdict(t, p, reason == "PERFECT", reason)


@lru_cache(maxsize=1)
def _integral_algebra(t: DynkinType):
    """The integral Lie algebra of type t; one slot, so the Gram and the
    discriminant of a type share one build and one table is alive at a time."""
    return chevalley_presentation(t).to_lie_algebra(ZZ)


@lru_cache(maxsize=None)
def integral_killing_gram(t: DynkinType) -> Matrix:
    """Killing Gram of the integral basis, computed once per type."""
    return killing_form(_integral_algebra(t)).gram


@lru_cache(maxsize=None)
def _integral_discriminant(t: DynkinType) -> int:
    """det of integral_killing_gram(t), computed once per type."""
    gram = integral_killing_gram(t)
    return _discriminant(BilinearForm(_integral_algebra(t), gram))


def oracle_perfect(t: DynkinType, p: int) -> bool:
    """Whether the Killing Gram is invertible over the prime field.

    Reduction commutes with the Gram computation and the determinant, so
    this asks whether p divides the integral discriminant.
    """
    if t.rank > 8:
        raise InvalidRank("oracle capped at rank 8, got %s" % (t,))
    return _integral_discriminant(t) % p != 0


def verdict_with_oracle(t: DynkinType, p: int) -> PerfectnessVerdict:
    v = predict_perfect(t, p)
    return PerfectnessVerdict(t, p, v.predicted, v.reason, oracle_perfect(t, p))


def ratio_check(t: DynkinType) -> int:
    """Integer c with KillingGram = c * TraceGram entrywise, over Integers."""
    if t.series not in "ABCD":
        raise NoConstantRatio("ratio defined for classical series only")
    kg = integral_killing_gram(t)
    tg = trace_form(matrix_realization(t), ZZ).gram
    c = None
    for a, b in zip(kg.data, tg.data):
        if b != 0:
            q, r = divmod(a, b)
            if r != 0:
                raise NoConstantRatio("non-integer entry ratio in %s" % (t,))
            if c is None:
                c = q
            elif c != q:
                raise NoConstantRatio("entry ratios disagree in %s" % (t,))
        elif a != 0:
            raise NoConstantRatio("Killing entry without trace entry in %s" % (t,))
    if c is None:
        raise NoConstantRatio("zero trace form in %s" % (t,))
    return c


EXPECTED_RATIO = {
    "A": lambda n: 2 * (n + 1),
    "B": lambda n: 2 * n - 1,
    "C": lambda n: 2 * n + 2,
    "D": lambda n: 2 * n - 2,
}


@dataclass(frozen=True)
class KernelWitness:
    rank: int
    vectors: tuple          # 2n sparse matrices E_{0,i} over PrimeField(2)
    ideal_ok: bool
    nilpotent_ok: bool
    in_kernel: bool

    @property
    def all_ok(self) -> bool:
        return self.ideal_ok and self.nilpotent_ok and self.in_kernel


def b_series_kernel_witness(n: int, p: int = 2) -> KernelWitness:
    """The 2n matrices E_{0,i} inside so(2n+1) over the field of two
    elements: an abelian (hence nilpotent) ideal contained in the radical
    of the Killing form.

    The ideal and nilpotency checks run in the matrix image, where the
    span of the E_{0,i} coincides with the reduction of the short-root
    basis vectors; the radical check runs on the integral Killing Gram
    (short-root columns are even).
    """
    if not 1 <= n <= 8:
        raise InvalidRank("witness computed for 1 <= n <= 8, got %d" % n)
    if p != 2:
        raise ValueError("the witness ideal exists only in characteristic 2")
    t = DynkinType("B", n)
    rl = matrix_realization(t)
    pres = rl.presentation
    f2 = PrimeField(2)
    m = rl.module_rank
    support = {(0, i) for i in range(1, m)}
    witness = []
    for i in range(1, m):
        rows = [[0] * m for _ in range(m)]
        rows[0][i] = 1
        witness.append(Matrix.from_rows(f2, rows))
    mats2 = [mat.map_to_ring(f2) for mat in rl.matrices]

    def in_span(mat: Matrix) -> bool:
        return all(mat.raw(a, b) == 0 for a in range(m) for b in range(m)
                   if (a, b) not in support)

    ideal_ok = all(in_span(b @ w - w @ b) for b in mats2 for w in witness)
    nilpotent_ok = all((w1 @ w2 - w2 @ w1).is_zero()
                       for w1 in witness for w2 in witness)

    # short roots = minimal norm; their realization matrices reduce into
    # the witness span, and their integral Gram columns vanish mod 2
    rs = pres.root_system
    norms = [rs.norm2(r) for r in rs.roots]
    minn = min(norms)
    short_idx = [k for k, nn in enumerate(norms) if nn == minn]
    if len(short_idx) != 2 * n:
        raise AssertionError("B%d has %d short roots, expected %d"
                             % (n, len(short_idx), 2 * n))
    if not all(in_span(mats2[pres.rank + k]) for k in short_idx):
        raise AssertionError("a short root of B%d leaves the witness span" % n)
    gram = integral_killing_gram(t)
    in_kernel = all(gram.raw(a, pres.rank + k) % 2 == 0
                    for k in short_idx for a in range(gram.nrows))
    return KernelWitness(n, tuple(witness), ideal_ok, nilpotent_ok, in_kernel)
