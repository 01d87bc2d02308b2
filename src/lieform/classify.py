"""Perfectness of the Killing form by type and prime.

Closed-form predicate, an oracle on the integral Killing discriminant,
the exact Killing-to-trace-form ratios for classical series, and the
characteristic-2 kernel witness in the B series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .chevalley import _build_presentation, chevalley_presentation, matrix_realization
from .liealg import _ad_entries, _cell_det, _realization_entries, _trace_gram, killing_form
from .matrices import Matrix, _commutator
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


@lru_cache(maxsize=None)
def integral_killing_gram(t: DynkinType) -> Matrix:
    """Killing Gram of the integral basis, computed once per type."""
    return killing_form(chevalley_presentation(t).to_lie_algebra(ZZ)).gram


@lru_cache(maxsize=None)
def _integral_discriminant(t: DynkinType) -> int:
    """det of the integral Killing form κ of type t, once per type, by
    `_cell_det` on the Chevalley basis weights; κ is read off a presentation
    built for this call, and only the integer is kept."""
    pres = _build_presentation(t)
    wt = [(0,) * t.rank] * t.rank + list(pres.root_system.roots)
    return _cell_det(ZZ, wt, _trace_gram(ZZ, _ad_entries(pres.table, ZZ.neg)))


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
    rl = matrix_realization(t)
    kg = _trace_gram(ZZ, _ad_entries(rl.presentation.table, ZZ.neg))
    tg = _trace_gram(ZZ, _realization_entries(rl))
    c = None
    for key in sorted(kg.keys() | tg.keys()):
        if key not in tg:
            raise NoConstantRatio("Killing entry without trace entry in %s" % (t,))
        q, r = divmod(kg.get(key, 0), tg[key])
        if r != 0:
            raise NoConstantRatio("non-integer entry ratio in %s" % (t,))
        if c is None:
            c = q
        elif c != q:
            raise NoConstantRatio("entry ratios disagree in %s" % (t,))
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
    basis vectors; the radical check runs on the sparse integral Killing
    traces (short-root columns are even).  Each commutator with an E_{0,i} is
    the sparse product of its one entry with the other matrix's nonzero
    entries.
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
    # the nonzero entries mod 2 of each realization matrix and witness
    mats2 = [{divmod(k, m): v % 2 for k, v in enumerate(mat.data) if v % 2}
             for mat in rl.matrices]
    wits = [{(0, i): 1} for i in range(1, m)]

    def in_span(entries: dict) -> bool:
        return all(key in support for key in entries)

    ideal_ok = all(in_span(_commutator(f2, b, w)) for b in mats2 for w in wits)
    nilpotent_ok = all(not _commutator(f2, w1, w2) for w1 in wits for w2 in wits)

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
    kappa = _trace_gram(ZZ, _ad_entries(pres.table, ZZ.neg))
    in_kernel = all(v % 2 == 0 for (_, b), v in kappa.items() if b - pres.rank in short_idx)
    return KernelWitness(n, tuple(witness), ideal_ok, nilpotent_ok, in_kernel)
