"""Weight modules over the p-local integers.

A WeightedModule is a full lattice in a rational ambient space together
with a direct-sum grading of the ambient space by integer weights, and
optionally matrices h, x, y satisfying the sl2 relations that realize
the grading.  The central algorithm extends the grading to the lattice
itself: it produces the projectors, which are unique, with p-local
entries decomposing the lattice, or a certified witness vector showing
no such decomposition exists; its path label names the hypothesis that
decided the route.  Also here: the graded chain modules generated by a highest
weight vector and the rank-(p+1) lattice on which the decomposition fails,
both built from closed formulas without a second validation, and the
degree-truncated exponential of a nilpotent operator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial
from typing import Optional

from .matrices import Matrix, _saturation_coords, inverse, pivots, rank, solve_linear
from .rings import (LieformError, LocalizedAtP, PrimeField, QQ, Record, RingSpec,
                    format_rational, is_prime, parse_rational)
from .roots import PTypeReport, classify_p_type


class OutOfRange(LieformError):
    pass


class HypothesisNotMet(LieformError):
    pass


class ActionMissing(LieformError):
    pass


class NotNilpotentEnough(LieformError):
    pass


class SchemaError(LieformError):
    """Validation failure carrying a JSON-pointer to the offending node."""

    def __init__(self, path: str, message: str):
        super().__init__("%s: %s" % (path or "/", message))
        self.path = path
        self.message = message


_ACTION_KEYS = ("h", "x", "y")


class WeightedModule(Record):
    p: int
    lattice: Matrix                  # rational, columns = lattice basis
    weights: tuple                   # strictly increasing integers
    pieces: dict                     # weight -> rational column basis of the
                                     # ambient weight space
    action: Optional[dict] = None    # {"h","x","y"} ambient matrices

    @property
    def ring(self) -> RingSpec:
        return LocalizedAtP(self.p)

    @property
    def ambient_dim(self) -> int:
        return self.lattice.nrows


def _p_integral(mat: Matrix, p: int) -> bool:
    return all(x.denominator % p != 0 for x in mat.data)


def _p_local_coords(basis: Matrix, vectors: Matrix, p: int) -> Optional[Matrix]:
    """The coordinates of the columns of vectors in the columns of basis
    (rational, independent), if they exist and are p-integral; else None."""
    sol = solve_linear(basis, vectors)
    return sol if sol is not None and _p_integral(sol, p) else None


def weighted_module(p: int, lattice: Matrix, weights, pieces: dict,
                    action: Optional[dict] = None) -> WeightedModule:
    """Validated constructor; all stated invariants are checked exactly."""
    if not is_prime(p):
        raise ValueError("%r is not prime" % (p,))
    if lattice.ring != QQ:
        raise ValueError("lattice must be rational")
    n = lattice.nrows
    if lattice.ncols != n or rank(lattice) != n:
        raise ValueError("lattice must be a square invertible matrix "
                         "(a full lattice in the ambient space)")
    ws = tuple(sorted(weights))
    if len(set(ws)) != len(ws) or not all(isinstance(w, int) for w in ws):
        raise ValueError("weights must be distinct integers")
    if set(pieces) != set(ws):
        raise ValueError("pieces must be keyed exactly by the weights")
    total = 0
    for w in ws:
        pc = pieces[w]
        if pc.ring != QQ or pc.nrows != n or pc.ncols == 0:
            raise ValueError("piece %d must be a nonempty rational basis "
                             "in the ambient space" % w)
        total += pc.ncols
    if total != n:
        raise ValueError("piece ranks sum to %d, ambient dimension is %d"
                         % (total, n))
    if rank(Matrix.hstack(*[pieces[w] for w in ws])) != n:
        raise ValueError("pieces do not form a direct sum of the ambient space")

    if action is not None:
        if set(action) != set(_ACTION_KEYS):
            raise ValueError("action must provide exactly h, x, y")
        for key in _ACTION_KEYS:
            a = action[key]
            if a.ring != QQ or (a.nrows, a.ncols) != (n, n):
                raise ValueError("action %r must be an ambient square matrix" % key)
            if not _p_integral(a, p):
                raise ValueError("action %r has a denominator divisible by %d"
                                 % (key, p))
        h, x, y = (action[k] for k in _ACTION_KEYS)
        two = Fraction(2)
        if (h @ x - x @ h) != x.scale(two):
            raise ValueError("[h, x] = 2x fails")
        if (h @ y - y @ h) != y.scale(-two):
            raise ValueError("[h, y] = -2y fails")
        if (x @ y - y @ x) != h:
            raise ValueError("[x, y] = h fails")
        for w in ws:
            pc = pieces[w]
            # with [h, x] = 2x and [h, y] = -2y, this puts x and y of piece w
            # in the (w ± 2)-eigenspace of h: piece w ± 2, or zero
            if (h @ pc) != pc.scale(Fraction(w)):
                raise ValueError("h does not act as %d on its weight piece" % w)
        action = dict(action)
    return WeightedModule(p, lattice, ws, dict(pieces), action)


def lattice_closed_under_action(m: WeightedModule) -> bool:
    """True when h, x, y all map the lattice into itself over Z_(p)."""
    if m.action is None:
        return False
    images = Matrix.hstack(*[m.action[key] @ m.lattice for key in _ACTION_KEYS])
    return _p_local_coords(m.lattice, images, m.p) is not None


# ---------------------------------------------------------------------------
# constructions

def _string_module(p: int, lattice: Matrix, top: int, xc, yc) -> WeightedModule:
    """The module on the lattice with ambient basis z_0, ..., z_{n-1}:

        h z_i = (top-2i) z_i,  x z_i = xc(i) z_{i-1},  y z_i = yc(i) z_{i+1}.

    The formulas satisfy every invariant that `weighted_module` checks on
    an invertible lattice, so they are not checked again.
    """
    n = lattice.nrows
    rows = {k: [[0] * n for _ in range(n)] for k in _ACTION_KEYS}
    for i in range(n):
        rows["h"][i][i] = top - 2 * i
        if i >= 1:
            rows["x"][i - 1][i] = xc(i)
            rows["y"][i][i - 1] = yc(i - 1)
    pieces = {top - 2 * i: Matrix.from_rows(QQ, [[int(r == i)] for r in range(n)])
              for i in range(n)}
    return WeightedModule(p, lattice, tuple(sorted(pieces)), pieces,
                          {k: Matrix.from_rows(QQ, r) for k, r in rows.items()})


def chain_from_highest(j: int, p: int) -> WeightedModule:
    """The rank-(j+1) module with basis z_i = y^i(z_0)/i!:

        h z_i = (j-2i) z_i,  x z_i = (j-i+1) z_{i-1},  y z_i = (i+1) z_{i+1}.
    """
    if not is_prime(p):
        raise OutOfRange("%r is not prime" % (p,))
    if not 1 <= j <= p - 1:
        raise OutOfRange("highest weight %d outside [1, %d]" % (j, p - 1))
    return _string_module(p, Matrix.identity(QQ, j + 1), j,
                          lambda i: j - i + 1, lambda i: i + 1)


def counterexample_module(p: int) -> WeightedModule:
    """Degree-p symmetric power of the standard module, rank p+1 with
    monomial basis a_p, a_{p-2}, ..., a_{-p}, but with the lattice
    enlarged by (a_p + a_{-p})/p.

    The enlarged lattice is still closed under h, x, y, yet no weight
    decomposition of the lattice exists: the weight set contains p and
    -p, which collide with each other (and with 0 for p = 2) mod p.
    """
    if not is_prime(p):
        raise OutOfRange("%r is not prime" % (p,))
    n = p + 1
    lat_rows = [[0] * n for _ in range(n)]
    lat_rows[0][0] = Fraction(1, p)
    lat_rows[p][0] = Fraction(1, p)
    for c in range(1, n):
        lat_rows[c][c] = 1
    m = _string_module(p, Matrix.from_rows(QQ, lat_rows), p,
                       lambda i: i, lambda i: p - i)
    if not lattice_closed_under_action(m):
        raise AssertionError("the enlarged lattice is not closed under h, x, y")
    return m


def direct_sum(a: WeightedModule, b: WeightedModule) -> WeightedModule:
    """The block-diagonal sum.  It keeps every invariant that
    `weighted_module` checks on its summands, so it is not checked again."""
    if a.p != b.p:
        raise ValueError("summands live over different primes")
    na, nb = a.ambient_dim, b.ambient_dim
    n = na + nb

    def embed(mat_a: Optional[Matrix], mat_b: Optional[Matrix]) -> Matrix:
        ca = mat_a.ncols if mat_a is not None else 0
        cb = mat_b.ncols if mat_b is not None else 0
        rows = [[Fraction(0)] * (ca + cb) for _ in range(n)]
        if mat_a is not None:
            for r in range(na):
                for c in range(ca):
                    rows[r][c] = mat_a.raw(r, c)
        if mat_b is not None:
            for r in range(nb):
                for c in range(cb):
                    rows[na + r][ca + c] = mat_b.raw(r, c)
        return Matrix.from_rows(QQ, rows)

    weights = tuple(sorted(set(a.weights) | set(b.weights)))
    action = None
    if a.action is not None and b.action is not None:
        action = {k: embed(a.action[k], b.action[k]) for k in _ACTION_KEYS}
    return WeightedModule(a.p, embed(a.lattice, b.lattice), weights,
                          {w: embed(a.pieces.get(w), b.pieces.get(w)) for w in weights},
                          action)


def conjugate(m: WeightedModule, u: Matrix) -> WeightedModule:
    """Transport the whole structure along an ambient change of basis
    that is unimodular at p.  u and u⁻¹ are then p-integral, so the result
    keeps every invariant that `weighted_module` checks on m, and only u
    is checked."""
    n = m.ambient_dim
    if u.ring != QQ or (u.nrows, u.ncols) != (n, n):
        raise ValueError("conjugator must be an ambient rational square matrix")
    # det(u) is a unit at p exactly when u and u⁻¹ are both p-integral
    ui = solve_linear(u, Matrix.identity(QQ, n))
    if ui is None or not _p_integral(u, m.p) or not _p_integral(ui, m.p):
        raise ValueError("conjugator is not unimodular at %d" % m.p)
    action = None
    if m.action is not None:
        action = {k: u @ m.action[k] @ ui for k in _ACTION_KEYS}
    return WeightedModule(m.p, u @ m.lattice, m.weights,
                          {w: u @ pc for w, pc in m.pieces.items()}, action)


# ---------------------------------------------------------------------------
# the torus-extension algorithm

class DecompositionResult(Record):
    success: bool
    pieces: dict                     # weight -> rational basis of M ∩ M_wK
    projectors: dict                 # weight -> Matrix over Z_(p), lattice coords
    failure_witness: Optional[tuple]  # (weight chain, ambient vector)
    report: PTypeReport
    path: str


def _span_check_mod_p(coords: Matrix, p: int) -> Optional[int]:
    """Index of the first standard basis vector outside the mod-p column
    span of coords, or None when coords spans everything: the first pivot
    of [coords | I] mod p that falls in the identity block."""
    red = coords.map_to_ring(PrimeField(p))
    aug = red.hstack(Matrix.identity(red.ring, red.nrows))
    return next((c - red.ncols for c in pivots(aug) if c >= red.ncols), None)


def _assert_projector_family(projs: dict, n: int) -> None:
    ring = next(iter(projs.values())).ring
    ident = Matrix.identity(ring, n)
    total = Matrix.zeros(ring, n, n)
    for w, pi in projs.items():
        total = total + pi
        if (pi @ pi) != pi:
            raise AssertionError("projector %d not idempotent" % w)
    if total != ident:
        raise AssertionError("projectors do not sum to the identity")
    items = sorted(projs.items())
    for i in range(len(items)):
        for jj in range(i + 1, len(items)):
            if not (items[i][1] @ items[jj][1]).is_zero():
                raise AssertionError("projectors %d, %d not orthogonal" % (
                    items[i][0], items[jj][0]))


def _refuse_without_action(report) -> None:
    """extend_torus's refusal of a module without an action."""
    if report.is_type1:
        raise HypothesisNotMet("weights are distinct mod %d but the grading "
                               "operator does not preserve the lattice" % report.p)
    if report.is_type2 or report.is_type3:
        raise ActionMissing("weights collide mod %d; the saturation route "
                            "needs the sl2 action" % report.p)
    raise HypothesisNotMet("weight set fails every p-type and no action is given")


def extend_torus(m: WeightedModule) -> DecompositionResult:
    """Decompose the lattice along the weight grading.

    The saturations M ∩ M_wK are assembled and checked to span the lattice
    mod p.  When they do, the projectors onto them, which are unique, are
    read off their lattice coordinates.  When they do not, the defect is
    localized to a chain of weights congruent mod p and a witness vector
    inside the chain's saturation but outside the direct sum is returned.
    The path label names the hypothesis that decided the route:
    "polynomial-projectors" when the weights are distinct mod p and the
    lattice decomposes, "saturation" otherwise.  h acts as w on piece w,
    so this holds exactly when the weights are distinct mod p and h keeps
    the lattice; the projectors are then polynomials in h with p-integral
    coefficients, and the route needs no action: a module without one is
    refused before any saturation unless its weights are distinct mod p.
    """
    p = m.p
    report = classify_p_type(set(m.weights), p)
    if m.action is None and not report.is_type1:
        _refuse_without_action(report)
    rp = LocalizedAtP(p)
    n = m.ambient_dim

    # each saturation in lattice coordinates, p-integral by construction
    sat_coords = {w: _saturation_coords(m.lattice, m.pieces[w], p) for w in m.weights}
    sats = {w: m.lattice @ c for w, c in sat_coords.items()}
    coords = Matrix.hstack(*[sat_coords[w] for w in m.weights])
    # coords is n x n, so it is invertible over Z_(p) exactly when its
    # columns span the lattice mod p
    local = coords.map_to_ring(rp)
    inv = solve_linear(local, Matrix.identity(rp, n))
    polynomial = report.is_type1 and inv is not None
    if m.action is None and not polynomial:
        _refuse_without_action(report)

    if inv is not None:
        # the projector onto block b is coords[:, b] @ coords^-1[b, :]
        cols, inv_rows = local.transpose().rows(), inv.rows()
        projs, start = {}, 0
        for w in m.weights:
            b = slice(start, start + sat_coords[w].ncols)
            projs[w] = (Matrix.from_rows(rp, cols[b]).transpose()
                        @ Matrix.from_rows(rp, inv_rows[b]))
            start = b.stop
        _assert_projector_family(projs, n)
        return DecompositionResult(True, sats, projs, None, report,
                                   "polynomial-projectors" if polynomial else "saturation")

    # localize the defect along chains of weights congruent mod p
    chains = {}
    for w in m.weights:
        chains.setdefault(w % p, []).append(w)
    witness = (m.weights, m.lattice.col(_span_check_mod_p(coords, p)))
    for res in sorted(chains, key=lambda r: -max(chains[r])):
        ws = chains[res]
        if len(ws) < 2:
            continue
        nchain = _saturation_coords(m.lattice, Matrix.hstack(*[m.pieces[w] for w in ws]), p)
        cc = _p_local_coords(nchain, Matrix.hstack(*[sat_coords[w] for w in ws]), p)
        if cc is None:
            raise AssertionError("chain %r saturations leave the chain "
                                 "saturation" % (ws,))
        chain_miss = _span_check_mod_p(cc, p)
        if chain_miss is not None:
            witness = (tuple(ws), (m.lattice @ nchain).col(chain_miss))
            break
    return DecompositionResult(False, sats, {}, witness, report, "saturation")


# ---------------------------------------------------------------------------
# the truncated exponential

def exp_nilpotent(u: Matrix, p: int) -> Matrix:
    """Sum of u^l / l! for l < p; requires u^p = 0 so that the truncated
    sum is still multiplicative."""
    if u.nrows != u.ncols:
        raise ValueError("exponential of a non-square matrix")
    if not is_prime(p):
        raise OutOfRange("%r is not prime" % (p,))
    power = u
    for _ in range(p - 1):
        power = power @ u
    if not power.is_zero():
        raise NotNilpotentEnough("u^%d is nonzero" % p)
    ring = u.ring
    acc = Matrix.identity(ring, u.nrows)
    term = Matrix.identity(ring, u.nrows)
    for l in range(1, p):
        term = term @ u
        acc = acc + term.scale(ring.inv(ring.from_int(factorial(l))))
    return acc


def weight_scaling(m: WeightedModule, ring: RingSpec, t) -> Matrix:
    """The operator acting on the weight-w piece as t^w, over the given
    ring: S·diag·S⁻¹ for S the pieces side by side.  t must be a unit
    there, whatever the weights."""
    s = Matrix.hstack(*[m.pieces[w] for w in m.weights]).map_to_ring(ring)
    tval = ring.coerce(t)
    tinv = ring.inv(tval)
    powers = {w: reduce(ring.mul, [tval if w >= 0 else tinv] * abs(w), ring.one())
              for w in m.weights}
    diag = [powers[w] for w in m.weights for _ in range(m.pieces[w].ncols)]
    n = s.ncols
    sd = Matrix(ring, n, n, tuple(ring.mul(v, diag[i % n]) for i, v in enumerate(s.data)))
    return sd @ inverse(s)


# ---------------------------------------------------------------------------
# JSON interchange

def _format_matrix(mat: Matrix) -> list:
    return [[format_rational(mat.raw(r, c)) for c in range(mat.ncols)]
            for r in range(mat.nrows)]


def module_to_json(m: WeightedModule) -> dict:
    doc = {
        "p": m.p,
        "lattice": _format_matrix(m.lattice),
        "weights": list(m.weights),
        "pieces": {str(w): _format_matrix(m.pieces[w]) for w in m.weights},
    }
    if m.action is not None:
        doc["action"] = {k: _format_matrix(m.action[k]) for k in _ACTION_KEYS}
    return doc


def _parse_entry(v, path: str) -> Fraction:
    if isinstance(v, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return parse_rational(v)
        except ValueError:
            raise SchemaError(path, "malformed rational %r" % v)
    raise SchemaError(path, "expected an integer or an 'a/b' string")


def _parse_matrix(rows, path: str) -> Matrix:
    if not isinstance(rows, list) or not rows:
        raise SchemaError(path, "expected a non-empty array of rows")
    width = None
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise SchemaError("%s/%d" % (path, r), "expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError("%s/%d" % (path, r),
                              "row length %d, expected %d" % (len(row), width))
        out.append([_parse_entry(v, "%s/%d/%d" % (path, r, c))
                    for c, v in enumerate(row)])
    return Matrix.from_rows(QQ, out)


def module_from_json(doc) -> WeightedModule:
    """Parse and validate the interchange form; schema violations carry a
    JSON-pointer, semantic violations surface as ValueError."""
    if not isinstance(doc, dict):
        raise SchemaError("", "expected an object")
    for key in ("p", "lattice", "weights", "pieces"):
        if key not in doc:
            raise SchemaError("/" + key, "missing")
    p = doc["p"]
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise SchemaError("/p", "expected a prime integer")
    lattice = _parse_matrix(doc["lattice"], "/lattice")
    if not isinstance(doc["weights"], list):
        raise SchemaError("/weights", "expected an array")
    weights = []
    for i, w in enumerate(doc["weights"]):
        if not isinstance(w, int) or isinstance(w, bool):
            raise SchemaError("/weights/%d" % i, "expected an integer")
        weights.append(w)
    if not isinstance(doc["pieces"], dict):
        raise SchemaError("/pieces", "expected an object keyed by weight")
    pieces = {}
    for key, rows in doc["pieces"].items():
        try:
            w = int(key)
        except ValueError:
            raise SchemaError("/pieces/%s" % key, "key is not an integer")
        pieces[w] = _parse_matrix(rows, "/pieces/%s" % key)
    action = None
    if "action" in doc:
        node = doc["action"]
        if not isinstance(node, dict):
            raise SchemaError("/action", "expected an object with h, x, y")
        for key in _ACTION_KEYS:
            if key not in node:
                raise SchemaError("/action/" + key, "missing")
        action = {k: _parse_matrix(node[k], "/action/" + k)
                  for k in _ACTION_KEYS}
    return weighted_module(p, lattice, weights, pieces, action)
