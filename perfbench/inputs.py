"""Seeded inputs of the three workloads.

Each workload has a fixed make-up: the number of jobs of each kind, type
and ring does not depend on the seed.  The seed picks the parameters
inside each slot (a prime, B or C, a highest weight, an automorphism),
so that runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import os
import random

import reference as ref

TABLE_ARGS = ["table", "--max-rank", "8", "--oracle", "--format", "json"]
KNOWN_FAULT = ["verify", "--suite", "casimir", "--type", "A3", "--prime", "2097143"]


def _perfect_primes(series, n, lo=5, hi=31):
    return [p for p in range(lo, hi + 1)
            if all(p % q for q in range(2, p)) and ref.perfect(series, n, p)]


def table_spec(seed: int) -> dict:
    """The full table; the seed only orders the --primes list."""
    primes = list(ref.TABLE_PRIMES)
    random.Random(seed).shuffle(primes)
    argv = TABLE_ARGS[:3] + ["--primes", ",".join(map(str, primes))] + TABLE_ARGS[3:]
    return {"workload": "table", "jobs": [{"argv": argv, "check": "table", "expect": 0}]}


# ---------------------------------------------------------------------------
# automorphisms mod p, built from lieform's torus elements and triple flips

def random_automorphism(lf, pres, p: int, rng) -> list:
    """One torus element and two triple flips, in seeded order.  Every
    input has the same shape, so that the seed does not change the cost:
    t is never +-1 and lambda never 0, so the naive lift is never exact."""
    fp = lf.PrimeField(p)
    lam = (0,) * pres.rank
    while not any(lam):
        lam = tuple(rng.randint(-2, 2) for _ in range(pres.rank))
    factors = [lf.torus_automorphism(pres, fp, rng.randint(2, p - 2), lam=lam)]
    factors += [lf.triple_flip(pres, fp, rng.choice(pres.root_system.positive_roots))
                for _ in range(2)]
    rng.shuffle(factors)
    s = lf.Matrix.identity(fp, pres.dim)
    for f in factors:
        s = s @ f
    return [list(s.row(r)) for r in range(s.nrows)]


def structure_constants(lf, type_name: str) -> dict:
    """The integral bracket table, (i, j) -> ((k, c), ...), for the checks."""
    pres = lf.chevalley_presentation(lf.DynkinType(type_name[0], int(type_name[1:])))
    return {"dim": pres.dim, "table": {k: list(v) for k, v in pres.table.items()}}


# ---------------------------------------------------------------------------
# sl2 modules, written by the benchmark itself

def chain_json(j: int) -> dict:
    """Rank j+1 chain module: h z_i = (j-2i) z_i, x z_i = (j-i+1) z_{i-1},
    y z_i = (i+1) z_{i+1}, standard lattice."""
    n = j + 1
    h = [[(j - 2 * i) if r == i else 0 for i in range(n)] for r in range(n)]
    x = [[(j - i + 1) if r == i - 1 else 0 for i in range(n)] for r in range(n)]
    y = [[(i + 1) if r == i + 1 else 0 for i in range(n)] for r in range(n)]
    return {"weights": [j - 2 * i for i in range(n)], "h": h, "x": x, "y": y}


def _block(a, b):
    na, nb = len(a), len(b)
    return ([row + [0] * nb for row in a] + [[0] * na + row for row in b])


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular(n: int, rng) -> tuple:
    """(u, u^-1): a product of 2n integral elementary row operations."""
    u = [[int(r == c) for c in range(n)] for r in range(n)]
    ui = [row[:] for row in u]
    for _ in range(2 * n):
        a, b = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        u[a] = [x + k * y for x, y in zip(u[a], u[b])]
        # (E_ab(k) U)^-1 = U^-1 E_ab(-k): a column operation on the inverse
        for row in ui:
            row[b] -= k * row[a]
    return u, ui


def direct_sum_parts(p: int, rng) -> list:
    """Two highest weights whose weights stay distinct mod p (p-type 1)."""
    while True:
        parts = [rng.randint(1, p - 1) for _ in range(2)]
        ws = {w for j in parts for w in chain_json(j)["weights"]}
        if len({w % p for w in ws}) == len(ws):
            return parts


def module_json(p: int, parts, u, ui) -> dict:
    """The direct sum of chain modules, transported along u, in the
    interchange format of `lieform sl2-decompose --file`."""
    chains = [chain_json(j) for j in parts]
    act = {k: chains[0][k] for k in "hxy"}
    for c in chains[1:]:
        act = {k: _block(act[k], c[k]) for k in "hxy"}
    basis_weight = [w for c in chains for w in c["weights"]]
    pieces = {}
    for i, w in enumerate(basis_weight):
        pieces.setdefault(w, []).append([row[i] for row in u])   # u e_i
    return {"p": p, "lattice": u, "weights": sorted(pieces),
            "pieces": {str(w): [list(r) for r in zip(*cols)]
                       for w, cols in sorted(pieces.items())},
            "action": {k: _matmul(_matmul(u, act[k]), ui) for k in "hxy"}}


# ---------------------------------------------------------------------------
# cli

def cli_spec(seed: int, lf, workdir: str) -> dict:
    """Thirty-one short `lieform` processes covering every subcommand."""
    rng = random.Random(seed)
    jobs = []

    def add(argv, check, expect=0, **extra):
        jobs.append(dict(argv=argv, check=check, expect=expect, **extra))

    def bc():
        return rng.choice("BC")

    for name in ("A1", bc() + "2", "G2", "A3", "D4"):
        add(["classify", "--type", name, "--prime",
             str(rng.choice(ref.TABLE_PRIMES)), "--oracle"], "classify")
    for suite, names in (("casimir", ("A2", "G2")),
                         ("derivations", ("A1", bc() + "2")),
                         ("cohomology", ("A1", "A2"))):
        for name in names:
            hi = 13 if suite == "cohomology" else 31
            p = rng.choice(_perfect_primes(name[0], int(name[1:]), hi=hi))
            add(["verify", "--suite", suite, "--type", name, "--prime", str(p)], suite)
    for series in ("A", bc()):
        add(["verify", "--suite", "ratios", "--type", "%s%d" % (series, rng.choice((2, 3)))],
            "ratios")
    add(["verify", "--suite", "ratios", "--type", "D4"], "ratios")
    add(["verify", "--suite", "kernel-b2"], "kernel-b2")
    for p in (5, 7):
        add(["sl2-decompose", "--builtin", "chain:%d" % rng.randint(1, p - 1),
             "--prime", str(p)], "decompose")
    add(["sl2-decompose", "--builtin", "counterexample", "--prime",
         str(rng.choice((2, 3, 5, 7)))], "decompose", expect=3)
    for k, p in enumerate((3, 5)):
        parts = direct_sum_parts(p, rng)
        u, ui = unimodular(sum(j + 1 for j in parts), rng)
        path = os.path.join(workdir, "module%d.json" % k)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(module_json(p, parts, u, ui), fh)
        add(["sl2-decompose", "--file", path], "decompose")
    for k, name in enumerate(("A2", bc() + "2")):
        p = rng.choice((5, 7))
        pres = lf.chevalley_presentation(lf.DynkinType(name[0], int(name[1:])))
        sigma = random_automorphism(lf, pres, p, rng)
        path = os.path.join(workdir, "sigma%d.json" % k)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sigma, fh)
        add(["lift-aut", "--type", name, "--prime", str(p), "--sigma", path],
            "lift", type=name, p=p, sigma=sigma, ring="Z/p^2")
    for fmt in ("csv", "md"):
        primes = sorted(rng.sample(ref.TABLE_PRIMES, 3))
        add(["table", "--max-rank", "3", "--primes", ",".join(map(str, primes)),
             "--oracle", "--format", fmt], "table")
    # jobs whose compute outweighs their start-up.  kernel-b2, three E8
    # classifications and F4 casimir take about 2 s each; the 95th
    # percentile of 31 jobs (between the 3rd and 2nd slowest) is the
    # middle of that group, not its slowest member
    add(["verify", "--suite", "kernel-b2", "--rank", "8"], "kernel-b2")
    add(["verify", "--suite", "casimir", "--type", "F4", "--prime",
         str(rng.choice(_perfect_primes("F", 4)))], "casimir")
    add(["verify", "--suite", "derivations", "--type", "B3", "--prime",
         str(rng.choice(_perfect_primes("B", 3)))], "derivations")
    for _ in range(3):
        add(["classify", "--type", "E8", "--prime", str(rng.choice(ref.TABLE_PRIMES)),
             "--oracle"], "classify")
    add(list(KNOWN_FAULT), "casimir", known_fault=True)
    rng.shuffle(jobs)
    return {"workload": "cli", "jobs": jobs}


# ---------------------------------------------------------------------------
# lib

# One round of library calls; a run repeats it.  (type, ring, p, jobs).
# The make-up puts the median of a run's jobs among the A2 lifts and the
# 95th percentile (about the 20th slowest of 3 x 134 jobs) among the 36
# B2 lifts, so that neither sits on the edge between two kinds of job.
LIB_LIFTS = (("A2", "Z/p^2", 5, 14), ("A2", "Z/p^2", 7, 20), ("A2", "F_p[eps]", 5, 20),
             ("B2", "Z/p^2", 5, 4), ("B2", "Z/p^2", 7, 4), ("B2", "F_p[eps]", 5, 4))
# (type, jobs): 14 faster than an A2 lift, 14 (G2) about as fast, 14 (A3) slower
LIB_DERIVATIONS = (("A1", 4), ("A2", 6), ("B2", 2), ("C2", 2), ("A3", 14), ("G2", 14))
# (module, p, jobs)
LIB_MODULES = (("chain", 3, 4), ("chain", 5, 4), ("chain", 7, 2),
               ("sum", 3, 6), ("sum", 5, 4),
               ("counterexample", 2, 2), ("counterexample", 3, 2),
               ("counterexample", 5, 2))


def lib_spec(seed: int, lf) -> dict:
    """One round of 134 library calls, run in one process."""
    rng = random.Random(seed)
    jobs = []
    for name, ring, p, count in LIB_LIFTS:
        pres = lf.chevalley_presentation(lf.DynkinType(name[0], int(name[1:])))
        for _ in range(count):
            jobs.append({"kind": "lift", "type": name, "ring": ring, "p": p,
                         "sigma": random_automorphism(lf, pres, p, rng)})
    for name, count in LIB_DERIVATIONS:
        primes = _perfect_primes(name[0], int(name[1:]))
        for _ in range(count):
            jobs.append({"kind": "derivations", "type": name, "p": rng.choice(primes)})
    for module, p, count in LIB_MODULES:
        for _ in range(count):
            job = {"kind": "decompose", "module": module, "p": p}
            if module == "chain":
                job["j"] = rng.randint(1, p - 1)
            elif module == "sum":
                job["parts"] = direct_sum_parts(p, rng)
                job["u"] = unimodular(sum(j + 1 for j in job["parts"]), rng)[0]
            jobs.append(job)
    rng.shuffle(jobs)
    return {"workload": "lib", "types": lib_setup_types(), "jobs": jobs}


def lib_setup_types() -> list:
    """The algebras the lib jobs use, built during set-up."""
    return sorted({name for name, *_ in LIB_LIFTS}
                  | {name for name, _ in LIB_DERIVATIONS})

