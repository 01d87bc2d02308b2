"""Checks of lieform's outputs, in the benchmark's own exact arithmetic.

Each check returns a list of problems; an empty list means the output
has every property the method promises.  Nothing here imports lieform:
structure constants come in as plain tables and every matrix as rows of
integers, "a/b" strings or [a, b] dual-number pairs.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import lcm

import reference as ref


def _q(v) -> Fraction:
    if isinstance(v, int):
        return Fraction(v)
    num, _, den = str(v).partition("/")
    return Fraction(int(num), int(den or 1))


def _type(name: str) -> tuple:
    return name[0], int(name[1:])


def rank_mod_p(rows, p: int) -> int:
    m = [[v % p for v in row] for row in rows]
    rank, ncols = 0, len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# table

def _bool(s: str) -> bool:
    if s not in ("true", "false"):
        raise ValueError("not a boolean: %r" % s)
    return s == "true"


def table_rows(stdout: str, fmt: str) -> list:
    """Rows of a `lieform table` output as dicts, whatever its format."""
    if fmt == "json":
        return json.loads(stdout)["results"]["rows"]
    if fmt == "csv":
        recs = list(csv.reader(io.StringIO(stdout, newline="")))
        header, body = recs[0], recs[1:]
    else:
        lines = [ln.strip().strip("|").split("|") for ln in stdout.splitlines()]
        header = [h.strip().lower() for h in lines[0]]
        body = [[c.strip() for c in ln] for ln in lines[2:]]
    rows = []
    for rec in body:
        d = dict(zip(header, rec))
        rows.append({"series": d["series"], "rank": int(d["rank"]), "p": int(d["p"]),
                     "predicted": _bool(d["predicted"]), "oracle": _bool(d["oracle"]),
                     "agree": _bool(d["agree"])})
    return rows


def check_table(argv, stdout: str) -> list:
    max_rank = int(argv[argv.index("--max-rank") + 1])
    primes = [int(p) for p in argv[argv.index("--primes") + 1].split(",")]
    fmt = argv[argv.index("--format") + 1]
    expected = ref.expected_table(max_rank, primes)
    rows = table_rows(stdout, fmt)
    problems = []
    if len(rows) != len(expected):
        problems.append("table has %d rows, expected %d" % (len(rows), len(expected)))
    seen = set()
    for r in rows:
        key = (r["series"], r["rank"], r["p"])
        seen.add(key)
        want = expected.get(key)
        if want is None:
            problems.append("unexpected row %s" % (key,))
        elif not (r["predicted"] == r["oracle"] == want and r["agree"]):
            problems.append("row %s: predicted %s oracle %s, reference %s"
                            % (key, r["predicted"], r["oracle"], want))
    if seen != set(expected):
        problems.append("rows missing: %s" % sorted(set(expected) - seen)[:5])
    if fmt == "json" and json.loads(stdout)["results"].get("all_agree") is not True:
        problems.append("all_agree is not true")
    return problems


# ---------------------------------------------------------------------------
# Lie algebras from a plain structure-constant table

class Brackets:
    """[e_a, e_b] for every ordered pair, from the upper-triangular table."""

    def __init__(self, consts: dict):
        self.dim = consts["dim"]
        self.full = {}
        for (a, b), terms in consts["table"].items():
            self.full[(a, b)] = [(k, c) for k, c in terms]
            self.full[(b, a)] = [(k, -c) for k, c in terms]


class _ModRing:
    def __init__(self, m):
        self.m = m

    def norm(self, v):
        return v % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def mul(self, a, b):
        return a * b % self.m

    def scale(self, c, a):
        return c * a % self.m


class _DualRing:
    """F_p[eps]/(eps^2), elements (a, b) = a + b eps."""

    def __init__(self, p):
        self.p = p

    def norm(self, v):
        return (v[0] % self.p, v[1] % self.p)

    def add(self, a, b):
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def mul(self, a, b):
        return (a[0] * b[0] % self.p, (a[0] * b[1] + a[1] * b[0]) % self.p)

    def scale(self, c, a):
        return (c * a[0] % self.p, c * a[1] % self.p)


def preserves_brackets(br: Brackets, s, ring) -> bool:
    """s[e_i, e_j] == [s e_i, s e_j] for all basis pairs; s[a][b] is the
    e_a coordinate of s(e_b)."""
    n = br.dim
    zero = ring.norm(0 if isinstance(ring, _ModRing) else (0, 0))
    cols = [[ring.norm(s[a][b]) for a in range(n)] for b in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = [zero] * n
            for k, c in br.full.get((i, j), ()):
                for a in range(n):
                    lhs[a] = ring.add(lhs[a], ring.scale(c, cols[k][a]))
            rhs = [zero] * n
            ci, cj = cols[i], cols[j]
            for (a, b), terms in br.full.items():
                coef = ring.mul(ci[a], cj[b])
                if coef != zero:
                    for k, c in terms:
                        rhs[k] = ring.add(rhs[k], ring.scale(c, coef))
            if lhs != rhs:
                return False
    return True


def check_lift(job, lifted, consts) -> list:
    """Reduces to sigma-bar, preserves every bracket, is invertible."""
    p, n = job["p"], consts["dim"]
    sigma = job["sigma"]
    if len(lifted) != n or any(len(r) != n for r in lifted):
        return ["lift has the wrong shape"]
    if job["ring"] == "Z/p^2":
        ring = _ModRing(p * p)
        bar = [[v % p for v in row] for row in lifted]
    else:
        ring = _DualRing(p)
        bar = [[v[0] % p for v in row] for row in lifted]
    problems = []
    if bar != [[v % p for v in row] for row in sigma]:
        problems.append("lift does not reduce to sigma-bar")
    if rank_mod_p(bar, p) != n:
        problems.append("lift is not invertible")
    if not preserves_brackets(Brackets(consts), lifted, ring):
        problems.append("lift does not preserve the bracket over the total ring")
    return problems


def _leibniz(br: Brackets, d, p: int) -> bool:
    """D[e_i, e_j] == [D e_i, e_j] + [e_i, D e_j] mod p for all pairs;
    d[m][k] is the e_m coordinate of D(e_k)."""
    n = br.dim
    for i in range(n):
        for j in range(i + 1, n):
            out = [0] * n
            for k, c in br.full.get((i, j), ()):
                for m in range(n):
                    out[m] += c * d[m][k]
            for a in range(n):
                if d[a][i]:
                    for k, c in br.full.get((a, j), ()):
                        out[k] -= d[a][i] * c
                if d[a][j]:
                    for k, c in br.full.get((i, a), ()):
                        out[k] -= d[a][j] * c
            if any(v % p for v in out):
                return False
    return True


def check_derivations(job, basis, consts) -> list:
    """dim g independent columns, each satisfying the Leibniz rule mod p."""
    p, n = job["p"], consts["dim"]
    br = Brackets(consts)
    if len(basis) != n * n or any(len(r) != n for r in basis):
        return ["derivation space has dimension %d, expected %d"
                % (len(basis[0]) if basis else 0, n)]
    problems = []
    if rank_mod_p(basis, p) != n:
        problems.append("derivation basis is not independent")
    for col in range(n):
        d = [[basis[m * n + k][col] % p for k in range(n)] for m in range(n)]
        if not _leibniz(br, d, p):
            problems.append("derivation %d breaks the Leibniz rule" % col)
    return problems


# ---------------------------------------------------------------------------
# sl2 decompositions

def _int_matrix(rows) -> tuple:
    """(A, d) with rows == A / d, A integral."""
    q = [[_q(v) for v in row] for row in rows]
    d = lcm(*[v.denominator for row in q for v in row])
    return [[int(v * d) for v in row] for row in q], d


def _imul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _solve_q(a, b):
    """x with a x = b for square invertible rational a, or None."""
    n = len(a)
    m = [[_q(v) for v in row] + [_q(b[r])] for r, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[r][n] for r in range(n)]


def check_decomposition(p: int, success: bool, pieces: dict, projectors,
                        witness) -> list:
    """Projectors: p-integral, idempotent, orthogonal, summing to I, one
    per weight of the right rank.  Failure: a nonzero witness outside the
    direct sum of the saturations."""
    problems = []
    n = sum(len(cols[0]) for cols in pieces.values())
    if success:
        if set(projectors) != set(pieces):
            return ["projectors and pieces have different weights"]
        mats = {}
        for w, rows in projectors.items():
            a, d = _int_matrix(rows)
            if d % p == 0:
                problems.append("projector %s is not p-integral" % w)
            mats[w] = (a, d)
        total = [[Fraction(0)] * n for _ in range(n)]
        for w, (a, d) in mats.items():
            if _imul(a, a) != [[d * v for v in row] for row in a]:
                problems.append("projector %s is not idempotent" % w)
            if sum(a[i][i] for i in range(n)) != d * len(pieces[w][0]):
                problems.append("projector %s has the wrong rank" % w)
            for w2, (a2, _) in mats.items():
                if w2 != w and any(any(row) for row in _imul(a, a2)):
                    problems.append("projectors %s, %s are not orthogonal" % (w, w2))
            for i in range(n):
                for j in range(n):
                    total[i][j] += Fraction(a[i][j], d)
        if total != [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]:
            problems.append("projectors do not sum to the identity")
        return problems
    vec = [_q(v) for v in witness]
    if not any(vec):
        return ["witness is zero"]
    stacked = [[] for _ in range(n)]
    for w in sorted(pieces, key=int):
        for r, row in enumerate(pieces[w]):
            stacked[r].extend(row)
    coords = _solve_q(stacked, vec)
    if coords is not None and all(c.denominator % p for c in coords):
        problems.append("witness lies in the direct sum of the saturations")
    return problems


# ---------------------------------------------------------------------------
# cli envelopes

def check_cli(job, code: int, stdout: str, consts: dict) -> list:
    """Problems with one `lieform` process's exit code and output."""
    if code != job["expect"]:
        return ["exit %d, expected %d" % (code, job["expect"])]
    if job["check"] == "table":
        return check_table(job["argv"], stdout)
    doc = json.loads(stdout)
    res = doc["results"]
    if doc["status"] != "OK":
        return ["status %s" % doc["status"]]
    argv = job["argv"]
    kind = job["check"]
    checks = res.get("checks", [])
    problems = ["check %s failed" % c["name"] for c in checks if not c["pass"]]
    if kind in ("casimir", "derivations", "cohomology", "ratios", "classify"):
        series, n = _type(argv[argv.index("--type") + 1])
    if kind == "classify":
        p = int(argv[argv.index("--prime") + 1])
        want = ref.perfect(series, n, p)
        if not (res["predicted"] == res["oracle"] == want and res["agree"]):
            problems.append("classify %s%d p=%d: predicted %s oracle %s, reference %s"
                            % (series, n, p, res["predicted"], res["oracle"], want))
    elif kind == "casimir":
        names = {c["name"] for c in checks}
        if "operator-is-identity" not in names or res["dim"] != ref.dimension(series, n):
            problems.append("casimir suite incomplete")
    elif kind == "derivations":
        dim = ref.dimension(series, n)
        got = next(c["derivation_dim"] for c in checks
                   if c["name"] == "derivation-dimension-equals-dim")
        if got != dim or res["dim"] != dim:
            problems.append("derivation space has dimension %d, expected %d" % (got, dim))
    elif kind == "cohomology":
        dims = next(c["dims"] for c in checks if c["name"] == "h0-h1-h2-vanish")
        if dims != [0, 0, 0]:
            problems.append("cohomology dims %s" % dims)
    elif kind == "ratios":
        got = checks[0]["ratio"]
        if got != ref.killing_trace_ratio(series, n):
            problems.append("ratio %s, expected %d" % (got, ref.killing_trace_ratio(series, n)))
    elif kind == "kernel-b2":
        if len(res["vectors"]) != 2 * res["rank"] or not checks:
            problems.append("kernel witness has %d vectors" % len(res["vectors"]))
    elif kind == "decompose":
        p = doc["inputs"]["p"]
        problems += check_decomposition(
            p, res["success"], res["pieces"], res.get("projectors"),
            res.get("failure_witness", {}).get("vector"))
    elif kind == "lift":
        if res["modulus"] != job["p"] ** 2 or res["sigma_bar"] != job["sigma"]:
            problems.append("lift-aut echoed the wrong input")
        problems += check_lift(job, res["lifted"], consts[job["type"]])
    return problems


def check_lib(job, out: dict, consts: dict) -> list:
    kind = job["kind"]
    if kind == "lift":
        return check_lift(job, out["matrix"], consts[job["type"]])
    if kind == "derivations":
        return check_derivations(job, out["matrix"], consts[job["type"]])
    problems = check_decomposition(job["p"], out["success"], out["pieces"],
                                   out.get("projectors"), out.get("witness"))
    if out["success"] != (job["module"] != "counterexample"):
        problems.append("decomposition success is %s" % out["success"])
    return problems
