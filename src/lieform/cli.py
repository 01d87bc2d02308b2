"""Command-line surface: classification tables, verification suites,
weight-module decomposition and automorphism lifting.

Every invocation prints one JSON report envelope (or, for csv/md table
formats, the table itself) on stdout; human diagnostics go to stderr.
Exit codes: 0 OK, 1 error, 2 predicted/oracle mismatch or failed check,
3 decomposition failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__
from .chevalley import (JacobiFailure, NotClassical, chevalley_presentation,
                        chevalley_involution, torus_automorphism, triple_flip)
from .classify import (EXPECTED_RATIO, NoConstantRatio, b_series_kernel_witness,
                       predict_perfect, ratio_check, verdict_with_oracle)
from .cohomology import (DimensionTooLarge, NotAutomorphism, ce_complex,
                         cohomology_dim, lift_automorphism, square_zero_extension)
from .liealg import (NotPerfect, _nonzero_product, _spans_inner_derivations,
                     apply_endo_to_casimir, base_change, casimir, casimir_operator,
                     derivation_algebra, is_lie_automorphism, is_perfect, killing_form)
from .matrices import Matrix, NotASubspace, Singular
from .rings import (IntegersModPk, NonIntegralDenominator, PrimeField,
                    UnsupportedRing, ZZ, format_rational, is_prime)
from .roots import DynkinType, InvalidRank
from .sl2 import (ActionMissing, HypothesisNotMet, NotNilpotentEnough,
                  OutOfRange, SchemaError, _format_matrix, chain_from_highest,
                  counterexample_module, extend_torus, module_from_json)

DEFAULT_PRIMES = "2,3,5,7,11,13,17,19,23"
EXIT_OK, EXIT_ERROR, EXIT_MISMATCH, EXIT_DECOMP_FAIL = 0, 1, 2, 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _envelope(command: str, inputs: dict, results, status: str) -> dict:
    return {"command": command, "inputs": inputs, "results": results,
            "status": status, "tool_version": __version__}


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _parse_type(args) -> DynkinType:
    val = args.type.strip()
    if not val:
        raise CliError("--type must not be empty")
    series = val[0].upper()
    rest = val[1:]
    if rest:
        try:
            rank_ = int(rest)
        except ValueError:
            raise CliError("unparseable type %r" % args.type)
        if args.rank is not None and args.rank != rank_:
            raise CliError("--rank %d contradicts --type %s" % (args.rank, val))
    elif args.rank is not None:
        rank_ = args.rank
    else:
        raise CliError("--rank is required when --type is a bare series letter")
    return DynkinType(series, rank_)


def _parse_prime(p: int) -> int:
    if not is_prime(p):
        raise CliError("%d is not prime" % p)
    return p


def _parse_primes(spec: str) -> list:
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            q = int(part)
        except ValueError:
            raise CliError("unparseable prime %r" % part)
        if not is_prime(q):
            raise CliError("--primes entry %d is composite" % q)
        out.append(q)
    if not out:
        raise CliError("--primes selected nothing")
    return sorted(set(out))


def _table_types(max_rank: int, dedup: bool) -> list:
    if not 1 <= max_rank <= 8:
        raise CliError("--max-rank must be between 1 and 8")
    out = []
    for series, lo in (("A", 1), ("B", 1), ("C", 1), ("D", 3)):
        for r in range(lo, max_rank + 1):
            if dedup and r == 1 and series in ("B", "C"):
                # same Cartan matrix as A1
                continue
            out.append(DynkinType(series, r))
    out.extend(DynkinType("E", r) for r in (6, 7, 8) if r <= max_rank)
    if max_rank >= 4:
        out.append(DynkinType("F", 4))
    if max_rank >= 2:
        out.append(DynkinType("G", 2))
    return out


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args) -> int:
    t = _parse_type(args)
    p = _parse_prime(args.prime)
    inputs = {"type": t.name, "prime": p, "oracle": bool(args.oracle)}
    v = verdict_with_oracle(t, p) if args.oracle else predict_perfect(t, p)
    results = {"series": t.series, "rank": t.rank, "p": p,
               "predicted": v.predicted, "reason": v.reason}
    status = "OK"
    if v.oracle is not None:
        results["oracle"] = v.oracle
        results["agree"] = v.agree
        if not v.agree:
            status = "MISMATCH"
    _emit(_envelope("classify", inputs, results, status))
    return EXIT_OK if status == "OK" else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# table

def _table_rows(types, primes, with_oracle):
    rows = []
    for t in types:
        for p in primes:
            v = verdict_with_oracle(t, p) if with_oracle else predict_perfect(t, p)
            row = {"series": t.series, "rank": t.rank, "p": p,
                   "predicted": v.predicted, "reason": v.reason}
            if with_oracle:
                row["oracle"] = v.oracle
                row["agree"] = v.agree
            rows.append(row)
    rows.sort(key=lambda r: (r["series"], r["rank"], r["p"]))
    return rows


def _bool_str(b) -> str:
    return "true" if b else "false"


def cmd_table(args) -> int:
    primes = _parse_primes(args.primes)
    types = _table_types(args.max_rank, dedup=not args.no_dedup)
    rows = _table_rows(types, primes, args.oracle)
    all_agree = None
    status = "OK"
    if args.oracle:
        all_agree = all(r["agree"] for r in rows)
        if not all_agree:
            status = "MISMATCH"
    inputs = {"max_rank": args.max_rank, "primes": primes,
              "oracle": bool(args.oracle), "format": args.format,
              "dedup": not args.no_dedup}
    header = ["series", "rank", "p", "predicted", "reason"] + (
        ["oracle", "agree"] if args.oracle else [])

    def cells(r) -> list:
        out = [r["series"], str(r["rank"]), str(r["p"]),
               _bool_str(r["predicted"]), r["reason"]]
        return out + [_bool_str(r["oracle"]), _bool_str(r["agree"])] if args.oracle else out

    if args.format == "json":
        results = {"row_count": len(rows), "rows": rows}
        if all_agree is not None:
            results["all_agree"] = all_agree
        _emit(_envelope("table", inputs, results, status))
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerows([header] + list(map(cells, rows)))
        sys.stdout.write(buf.getvalue())
    else:
        cols = " | ".join(h.capitalize() for h in header)
        sys.stdout.write("| %s |\n" % cols)
        sys.stdout.write("|%s|\n" % "|".join(" --- " for _ in header))
        for r in rows:
            sys.stdout.write("| %s |\n" % " | ".join(cells(r)))
    return EXIT_OK if status == "OK" else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# verify

def _checks_status(checks) -> str:
    return "OK" if all(c["pass"] for c in checks) else "MISMATCH"


def _verify_casimir(t: DynkinType, p: int):
    pres = chevalley_presentation(t)
    g = pres.to_lie_algebra(PrimeField(p))
    kf = killing_form(g)
    if not is_perfect(kf):
        raise NotPerfect("Killing form of %s over F_%d is degenerate; "
                         "no Casimir element exists" % (t.name, p))
    ct = casimir(g)
    op = casimir_operator(ct)
    ident = Matrix.identity(g.ring, g.dim)
    checks = [{"name": "operator-is-identity", "pass": op == ident}]
    ads = (g.ad_matrix(g.basis_vector(i)) for i in range(g.dim))
    ok = all(ad @ op == op @ ad for ad in ads)
    checks.append({"name": "operator-commutes-with-ad", "pass": ok})

    def invariant(s: Matrix) -> bool:
        return is_lie_automorphism(g, s) and apply_endo_to_casimir(ct, s) == ct.coefficients

    flips = (triple_flip(pres, g.ring, root) for root in pres.root_system.positive_roots)
    checks.append({"name": "tensor-invariant-under-triple-flips",
                   "pass": all(map(invariant, flips))})
    tor = torus_automorphism(pres, g.ring, 2 % p if p > 2 else 1)
    checks.append({"name": "tensor-invariant-under-torus", "pass": invariant(tor)})
    checks.append({"name": "gram-times-coefficients-is-identity",
                   "pass": kf.gram @ ct.coefficients == ident})
    return {"dim": g.dim, "checks": checks}


def _verify_derivations(t: DynkinType, p: int):
    g = chevalley_presentation(t).to_lie_algebra(PrimeField(p))
    ders = derivation_algebra(g)
    checks = [
        {"name": "derivation-dimension-equals-dim", "pass": ders.ncols == g.dim,
         "derivation_dim": ders.ncols, "dim": g.dim},
        {"name": "inner-derivations-span",
         "pass": _spans_inner_derivations(g, ders)},
    ]
    return {"dim": g.dim, "checks": checks}


def _verify_cohomology(t: DynkinType, p: int):
    g = chevalley_presentation(t).to_lie_algebra(PrimeField(p))
    cx = ce_complex(g)
    dims = [cohomology_dim(cx, d) for d in (0, 1, 2)]
    d0, d1, d2 = cx.maps
    checks = [
        {"name": "differentials-compose-to-zero",
         "pass": not (_nonzero_product(g.ring, d1.items(), d0)
                      or _nonzero_product(g.ring, d2.items(), d1))},
        {"name": "h0-h1-h2-vanish", "pass": dims == [0, 0, 0],
         "dims": dims},
    ]
    return {"dim": g.dim, "checks": checks}


def _verify_ratios(t: DynkinType):
    c = ratio_check(t)
    expected = EXPECTED_RATIO[t.series](t.rank)
    return {"checks": [{"name": "killing-equals-constant-times-trace-form",
                        "pass": c == expected, "ratio": c,
                        "expected": expected}]}


def _verify_kernel_b2(nrank: int, p: int):
    if p != 2:
        raise CliError("the kernel witness suite runs at --prime 2")
    w = b_series_kernel_witness(nrank, p)
    vectors = ["E(0,%d)" % i for i in range(1, 2 * nrank + 1)]
    checks = [
        {"name": "span-is-an-ideal", "pass": w.ideal_ok},
        {"name": "span-is-nilpotent", "pass": w.nilpotent_ok},
        {"name": "span-inside-killing-kernel", "pass": w.in_kernel},
    ]
    return {"rank": nrank, "vectors": vectors, "checks": checks}


def cmd_verify(args) -> int:
    suite = args.suite
    inputs = {"suite": suite}
    if suite == "kernel-b2":
        p = _parse_prime(args.prime) if args.prime is not None else 2
        nrank = args.rank if args.rank is not None else 2
        inputs.update({"rank": nrank, "prime": p})
        results = _verify_kernel_b2(nrank, p)
    elif suite == "ratios":
        t = _parse_type(args)
        inputs.update({"type": t.name})
        results = _verify_ratios(t)
    else:
        t = _parse_type(args)
        if args.prime is None:
            raise CliError("--prime is required for suite %r" % suite)
        p = _parse_prime(args.prime)
        inputs.update({"type": t.name, "prime": p})
        if suite == "casimir":
            results = _verify_casimir(t, p)
        elif suite == "derivations":
            results = _verify_derivations(t, p)
        else:
            results = _verify_cohomology(t, p)
    status = _checks_status(results["checks"])
    _emit(_envelope("verify", inputs, results, status))
    return EXIT_OK if status == "OK" else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# sl2-decompose

def _load_module(args):
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        m = module_from_json(doc)
        if args.prime is not None and args.prime != m.p:
            raise CliError("--prime %d contradicts the file's p=%d"
                           % (args.prime, m.p))
        return m, {"file": os.path.basename(args.file), "p": m.p}
    if args.prime is None:
        raise CliError("--prime is required with --builtin")
    p = _parse_prime(args.prime)
    name = args.builtin
    if name == "counterexample":
        return counterexample_module(p), {"builtin": name, "p": p}
    if name.startswith("chain:"):
        try:
            j = int(name.split(":", 1)[1])
        except ValueError:
            raise CliError("malformed --builtin %r" % name)
        return chain_from_highest(j, p), {"builtin": name, "p": p}
    raise CliError("unknown --builtin %r (chain:j or counterexample)" % name)


def cmd_sl2_decompose(args) -> int:
    m, inputs = _load_module(args)
    res = extend_torus(m)
    results = {
        "success": res.success,
        "path": res.path,
        "p_type": {"type1": res.report.is_type1, "type2": res.report.is_type2,
                   "type3": res.report.is_type3},
        "weights": list(m.weights),
        "pieces": {str(w): _format_matrix(res.pieces[w])
                   for w in sorted(res.pieces)},
    }
    if res.success:
        results["projectors"] = {str(w): _format_matrix(res.projectors[w])
                                 for w in sorted(res.projectors)}
    else:
        chain, vec = res.failure_witness
        results["failure_witness"] = {
            "weight_chain": list(chain),
            "vector": [format_rational(v) for v in vec],
        }
    _emit(_envelope("sl2-decompose", inputs, results, "OK"))
    return EXIT_OK if res.success else EXIT_DECOMP_FAIL


# ---------------------------------------------------------------------------
# lift-aut

def cmd_lift_aut(args) -> int:
    t = _parse_type(args)
    p = _parse_prime(args.prime)
    with open(args.sigma, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    fp = PrimeField(p)
    if (not isinstance(doc, list) or not doc
            or any(not isinstance(row, list) for row in doc)):
        raise CliError("--sigma file must hold a JSON array of integer rows")
    try:
        sigma_bar = Matrix.from_rows(fp, doc)
    except (TypeError, ValueError):
        raise CliError("--sigma entries must be integers")
    g = chevalley_presentation(t).to_lie_algebra(ZZ)
    if sigma_bar.nrows != g.dim or sigma_bar.ncols != g.dim:
        raise CliError("sigma is %dx%d, expected %dx%d"
                       % (sigma_bar.nrows, sigma_bar.ncols, g.dim, g.dim))
    ext = square_zero_extension(IntegersModPk(p, 2))
    lifted = lift_automorphism(g, ext, sigma_bar)
    gt = base_change(g, ext.total_ring)
    checks = [
        {"name": "bracket-compatibility-over-total-ring",
         "pass": is_lie_automorphism(gt, lifted)},
        {"name": "reduction-matches-input",
         "pass": all(ext.reduce_raw(lifted.raw(a, b)) == sigma_bar.raw(a, b)
                     for a in range(g.dim) for b in range(g.dim))},
    ]
    inputs = {"type": t.name, "prime": p, "sigma": os.path.basename(args.sigma)}
    results = {"modulus": p * p, "sigma_bar": sigma_bar.rows(),
               "lifted": lifted.rows(), "checks": checks}
    status = _checks_status(checks)
    _emit(_envelope("lift-aut", inputs, results, status))
    return EXIT_OK if status == "OK" else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="lieform",
                     description="exact computations with split semisimple "
                                 "Lie algebras over small coefficient rings")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_type_rank(sp):
        sp.add_argument("--type", required=True,
                        help="series letter (with --rank) or full name like E8")
        sp.add_argument("--rank", type=int, default=None)

    sp = sub.add_parser("classify", help="perfectness verdict for one (type, prime)")
    add_type_rank(sp)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--oracle", action="store_true",
                    help="also run the Killing-discriminant oracle and compare")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("table", help="full classification table")
    sp.add_argument("--max-rank", type=int, default=8)
    sp.add_argument("--primes", default=DEFAULT_PRIMES)
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--format", choices=("json", "csv", "md"), default="json")
    sp.add_argument("--no-dedup", action="store_true",
                    help="keep B1 and C1 although they duplicate A1's Cartan matrix")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="invariant suites with exact checks")
    sp.add_argument("--suite", required=True,
                    choices=("casimir", "derivations", "cohomology",
                             "ratios", "kernel-b2"))
    sp.add_argument("--type", default=None)
    sp.add_argument("--rank", type=int, default=None)
    sp.add_argument("--prime", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sl2-decompose",
                        help="extend a weight grading to the lattice")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", default=None, help="WeightedModule JSON file")
    src.add_argument("--builtin", default=None,
                     help="chain:j or counterexample")
    sp.add_argument("--prime", type=int, default=None)
    sp.set_defaults(func=cmd_sl2_decompose)

    sp = sub.add_parser("lift-aut",
                        help="lift an automorphism from F_p to Z/p^2")
    add_type_rank(sp)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--sigma", required=True,
                    help="JSON file with the mod-p automorphism matrix")
    sp.set_defaults(func=cmd_lift_aut)
    return parser


_KNOWN_ERRORS = (InvalidRank, NotPerfect, NotAutomorphism, SchemaError,
                 HypothesisNotMet, ActionMissing, OutOfRange,
                 NotNilpotentEnough, NotClassical, NoConstantRatio,
                 UnsupportedRing, NonIntegralDenominator, NotASubspace,
                 Singular, DimensionTooLarge, JacobiFailure, CliError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args)
    except _KNOWN_ERRORS as exc:
        results = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SchemaError):
            results["path"] = exc.path
        print("error: %s" % exc, file=sys.stderr)
        _emit(_envelope(args.command, {}, results, "ERROR"))
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        results = {"error": type(exc).__name__, "message": str(exc)}
        print("error: %s" % exc, file=sys.stderr)
        _emit(_envelope(args.command, {}, results, "ERROR"))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
