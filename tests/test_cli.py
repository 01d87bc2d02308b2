import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lieform
from lieform import (DimensionMismatch, LieformError, NoCanonicalMorphism, NotACocycle,
                     NotAUnit, RingMismatch, chain_from_highest, chevalley_presentation,
                     counterexample_module, module_to_json)
from lieform.classify import _integral_discriminant, integral_killing_gram
from lieform import cli
from lieform.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_classify_basic(capsys):
    code, doc, _ = run_json(capsys, ["classify", "--type", "A2", "--prime", "5"])
    assert code == 0
    assert doc["command"] == "classify"
    assert doc["status"] == "OK"
    assert doc["inputs"] == {"type": "A2", "prime": 5, "oracle": False}
    assert doc["results"]["predicted"] is True
    assert doc["results"]["reason"] == "PERFECT"
    assert set(doc) == {"command", "inputs", "results", "status",
                        "tool_version"}


def test_classify_with_oracle_agreement(capsys):
    code, doc, _ = run_json(capsys, ["classify", "--type", "G2", "--prime", "3",
                                     "--oracle"])
    assert code == 0
    assert doc["results"]["predicted"] is False
    assert doc["results"]["reason"] == "EXC_P3"
    assert doc["results"]["oracle"] is False
    assert doc["results"]["agree"] is True


def test_classify_series_and_rank_flags(capsys):
    code, doc, _ = run_json(capsys, ["classify", "--type", "B", "--rank", "3",
                                     "--prime", "5"])
    assert code == 0
    assert doc["inputs"]["type"] == "B3"


def test_classify_contradictory_rank(capsys):
    code, doc, err = run_json(capsys, ["classify", "--type", "A2", "--rank",
                                       "3", "--prime", "5"])
    assert code == 1
    assert doc["status"] == "ERROR"
    assert err


def test_classify_rejects_composite_prime(capsys):
    code, doc, _ = run_json(capsys, ["classify", "--type", "A2", "--prime", "6"])
    assert code == 1
    assert doc["status"] == "ERROR"


def test_unknown_type_is_error_envelope(capsys):
    code, doc, _ = run_json(capsys, ["classify", "--type", "H3", "--prime", "5"])
    assert code == 1
    assert doc["status"] == "ERROR"


def test_missing_subcommand_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_via_usage(capsys):
    with pytest.raises(SystemExit) as e:
        main(["classify", "--typ", "A2"])
    assert e.value.code == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_table_dedup_row_counts(capsys):
    code, doc, _ = run_json(capsys, ["table", "--max-rank", "2",
                                     "--primes", "2,3"])
    assert code == 0
    assert len(doc["results"]["rows"]) == 10
    code, doc, _ = run_json(capsys, ["table", "--max-rank", "2",
                                     "--primes", "2,3", "--no-dedup"])
    assert len(doc["results"]["rows"]) == 14


def test_table_rows_sorted_and_shaped(capsys):
    code, doc, _ = run_json(capsys, ["table", "--max-rank", "3",
                                     "--primes", "5,3"])
    rows = doc["results"]["rows"]
    keys = [(r["series"], r["rank"], r["p"]) for r in rows]
    assert keys == sorted(keys)
    assert all(set(r) >= {"series", "rank", "p", "predicted", "reason"}
               for r in rows)
    assert "oracle" not in rows[0]


def test_table_oracle_column(capsys):
    code, doc, _ = run_json(capsys, ["table", "--max-rank", "2",
                                     "--primes", "3", "--oracle"])
    assert code == 0
    for r in doc["results"]["rows"]:
        assert r["agree"] is True


def test_table_csv_crlf(capsys):
    code, out, _ = run(capsys, ["table", "--max-rank", "2", "--primes", "2,3",
                                "--format", "csv"])
    assert code == 0
    assert "\r\n" in out
    lines = out.split("\r\n")
    assert lines[0].split(",")[:3] == ["series", "rank", "p"]
    assert len([ln for ln in lines if ln]) == 11    # header + 10 rows
    assert "true" in out and "True" not in out


def test_table_md_format(capsys):
    code, out, _ = run(capsys, ["table", "--max-rank", "1", "--primes", "2",
                                "--format", "md"])
    assert code == 0
    assert out.lstrip().startswith("|")
    assert "---" in out


def test_table_rejects_composite_primes(capsys):
    code, doc, _ = run_json(capsys, ["table", "--primes", "2,9"])
    assert code == 1
    assert doc["status"] == "ERROR"


def test_table_has_a_row_per_type_and_prime(capsys):
    code, doc, _ = run_json(capsys, ["table", "--max-rank", "2",
                                     "--primes", "2,3"])
    assert code == 0 and len(doc["results"]["rows"]) == 10


def test_table_builds_each_killing_gram_once(capsys):
    # one discriminant per type, read off the degree cells: no dense Gram
    # is built and no presentation is cached
    integral_killing_gram.cache_clear()
    _integral_discriminant.cache_clear()
    presentations = chevalley_presentation.cache_info()
    code, doc, _ = run_json(capsys, ["table", "--max-rank", "3", "--oracle"])
    assert code == 0 and doc["results"]["all_agree"] is True
    ntypes = len({(r["series"], r["rank"]) for r in doc["results"]["rows"]})
    assert ntypes == 9
    assert integral_killing_gram.cache_info().misses == 0
    assert chevalley_presentation.cache_info() == presentations
    assert _integral_discriminant.cache_info().misses == ntypes


def test_cli_import_leaves_scipy_out(child_env):
    code = "import sys, lieform.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=child_env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_no_command_loads_numpy(child_env):
    # the Jacobi certificate is plain Python at every size: an E8 verdict,
    # the full table, the rank-8 realization suite and derivations
    code = ("import contextlib, io, sys\n"
            "import lieform.cli\n"
            "for argv in (['verify', '--suite', 'derivations', '--type', 'A2', '--prime', '7'],\n"
            "             ['classify', '--type', 'E8', '--prime', '2', '--oracle'],\n"
            "             ['table', '--max-rank', '8', '--oracle'],\n"
            "             ['verify', '--suite', 'kernel-b2', '--rank', '8']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        print(lieform.cli.main(argv), file=sys.__stdout__)\n"
            "print('numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=child_env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "0", "0", "0", "False"]


def test_package_imports_only_the_stdlib():
    # every import in src/lieform names a stdlib module or lieform itself,
    # never dataclasses, and no code is compiled at run time by exec or eval
    pkg = os.path.dirname(lieform.__file__)
    foreign = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("exec", "eval")):
                targets = [node.func.id + "()"]
            else:
                continue
            foreign += ["%s:%d %s" % (name, node.lineno, t) for t in targets
                        if t.split(".")[0] not in sys.stdlib_module_names | {"lieform"}
                        or t.split(".")[0] == "dataclasses"]
    assert foreign == []


@pytest.mark.parametrize("argv", [["classify", "--type", "A1", "--prime", "5"],
                                  ["sl2-decompose", "--builtin", "chain:3", "--prime", "5"]],
                         ids=["classify", "sl2-decompose"])
def test_commands_load_no_code_generation_modules(child_env, argv):
    # dataclasses and the modules it pulls in (inspect, ast, dis, tokenize)
    # took about 20 ms of every lieform process to import and run
    code = ("import json, runpy, sys\n"
            "sys.argv = ['lieform'] + %r\n"
            "try:\n"
            "    runpy.run_module('lieform', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
            "sys.stderr.write(json.dumps(sorted(sys.modules)))\n" % (argv,))
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=60)
    assert json.loads(proc.stdout)["status"] == "OK"
    loaded = set(json.loads(proc.stderr))
    assert "lieform.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def test_verify_derivations_f4_within_two_gigabytes(child_env):
    # the derivation system of F4 has 2,704 unknowns; solved as one dense
    # matrix it ran out of a 2 GB address space
    code = ("import resource, runpy, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "sys.argv = ['lieform', 'verify', '--suite', 'derivations',\n"
            "            '--type', 'F4', '--prime', '7']\n"
            "runpy.run_module('lieform', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "OK"
    assert doc["results"]["dim"] == 52


def test_verify_derivations_e8_within_two_gigabytes(child_env):
    # E8/F_7 keeps one degree block of d1, degree 0 with 304 unknowns; the
    # other blocks are acyclic and read off d0.  Eliminating every block ran
    # out of a 2 GB address space
    code = ("import resource, runpy, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "sys.argv = ['lieform', 'verify', '--suite', 'derivations',\n"
            "            '--type', 'E8', '--prime', '7']\n"
            "runpy.run_module('lieform', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "OK"
    assert doc["results"]["dim"] == 248
    assert doc["results"]["checks"][0]["derivation_dim"] == 248


def test_verify_casimir_near_int64_limit(capsys):
    code, doc, _ = run_json(capsys, ["verify", "--suite", "casimir",
                                     "--type", "A3", "--prime", "2097143"])
    assert code == 0
    assert doc["status"] == "OK"


def test_verify_casimir_ok(capsys):
    code, doc, _ = run_json(capsys, ["verify", "--suite", "casimir",
                                     "--type", "A1", "--prime", "5"])
    assert code == 0
    assert doc["status"] == "OK"
    names = [c["name"] for c in doc["results"]["checks"]]
    assert "operator-is-identity" in names
    assert all(c["pass"] for c in doc["results"]["checks"])


@pytest.mark.parametrize("name, calls", [("B3", 3 + 1), ("F4", 4 + 1)])
def test_verify_casimir_checks_each_distinct_triple_flip_once(capsys, monkeypatch, name, calls):
    # a triple flip depends only on the first odd coordinate of its root:
    # B3's 9 flips are 3 matrices and F4's 24 are 4, and the torus element
    # is checked once more
    seen = []

    def counted(g, s):
        seen.append(s)
        return lieform.is_lie_automorphism(g, s)

    monkeypatch.setattr(cli, "is_lie_automorphism", counted)
    code, doc, _ = run_json(capsys, ["verify", "--suite", "casimir",
                                     "--type", name, "--prime", "7"])
    assert code == 0 and doc["status"] == "OK"
    assert len(seen) == calls


@pytest.mark.parametrize("operator, commutes", [
    (lambda ring, n: lieform.Matrix.identity(ring, n).scale(2), True),
    (lambda ring, n: lieform.Matrix.from_rows(
        ring, [[int((i, j) == (0, 1)) for j in range(n)] for i in range(n)]), False),
], ids=["twice-identity", "matrix-unit"])
def test_verify_casimir_multiplies_only_an_operator_that_is_not_the_identity(
        capsys, monkeypatch, operator, commutes):
    # 2·I commutes with every ad x and a matrix unit does not: the products
    # of the commute check run whenever the operator is not the identity
    monkeypatch.setattr(cli, "casimir_operator",
                        lambda ct: operator(ct.coefficients.ring, ct.coefficients.nrows))
    code, doc, _ = run_json(capsys, ["verify", "--suite", "casimir",
                                     "--type", "A2", "--prime", "5"])
    checks = {c["name"]: c["pass"] for c in doc["results"]["checks"]}
    assert code == 2 and doc["status"] == "MISMATCH"
    assert checks["operator-is-identity"] is False
    assert checks["operator-commutes-with-ad"] is commutes


def test_verify_casimir_degenerate_prime_is_error(capsys):
    code, doc, _ = run_json(capsys, ["verify", "--suite", "casimir",
                                     "--type", "A1", "--prime", "2"])
    assert code == 1
    assert doc["status"] == "ERROR"


def test_verify_derivations(capsys):
    code, doc, _ = run_json(capsys, ["verify", "--suite", "derivations",
                                     "--type", "A2", "--prime", "7"])
    assert code == 0
    assert doc["results"]["dim"] == 8
    by_name = {c["name"]: c for c in doc["results"]["checks"]}
    assert by_name["derivation-dimension-equals-dim"]["derivation_dim"] == 8
    assert by_name["inner-derivations-span"]["pass"] is True


def test_verify_derivations_fails_on_outer_derivations(capsys):
    # G2 over F_2 has 21 derivations against dim 14: seven are outer
    g = lieform.chevalley_presentation(lieform.DynkinType("G", 2)).to_lie_algebra(
        lieform.PrimeField(2))
    assert not lieform.liealg._spans_inner_derivations(g, lieform.derivation_algebra(g))
    code, doc, _ = run_json(capsys, ["verify", "--suite", "derivations",
                                     "--type", "G2", "--prime", "2"])
    assert code == 2
    assert doc["status"] == "MISMATCH"
    by_name = {c["name"]: c for c in doc["results"]["checks"]}
    assert by_name["derivation-dimension-equals-dim"]["derivation_dim"] == 21
    assert by_name["inner-derivations-span"]["pass"] is False


def test_verify_cohomology(capsys):
    code, doc, _ = run_json(capsys, ["verify", "--suite", "cohomology",
                                     "--type", "A1", "--prime", "5"])
    assert code == 0
    by_name = {c["name"]: c for c in doc["results"]["checks"]}
    assert by_name["h0-h1-h2-vanish"]["dims"] == [0, 0, 0]
    assert by_name["differentials-compose-to-zero"]["pass"] is True


def test_verify_cohomology_multiplies_only_d1_d0(capsys, monkeypatch):
    # ce_complex has checked d2∘d1 = 0, so the suite's own check multiplies d1∘d0 alone
    real, calls = cli._nonzero_product, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_nonzero_product", spy)
    code, doc, _ = run_json(capsys, ["verify", "--suite", "cohomology",
                                     "--type", "A2", "--prime", "5"])
    assert code == 0 and doc["status"] == "OK"
    assert len(calls) == 1


def test_verify_cohomology_above_the_dimension_bound_is_error(capsys):
    code, doc, err = run_json(capsys, ["verify", "--suite", "cohomology",
                                       "--type", "A4", "--prime", "5"])
    assert code == 1
    assert doc["status"] == "ERROR"
    assert doc["results"]["error"] == "DimensionTooLarge"
    assert "dim 24" in doc["results"]["message"]
    assert err.startswith("error: ")


def test_jacobi_failure_is_an_error_envelope(capsys, monkeypatch):
    pres = lieform.chevalley_presentation(lieform.DynkinType("B", 3))
    (k, c), = pres.table[(3, 4)]
    bad = pres._replace(table={**pres.table, (3, 4): ((k, c + 1),)})
    monkeypatch.setattr(cli, "chevalley_presentation",
                        lambda t: lieform.verify_jacobi(bad) and bad)
    code, doc, _ = run_json(capsys, ["verify", "--suite", "casimir",
                                     "--type", "B3", "--prime", "7"])
    assert code == 1
    assert doc["status"] == "ERROR"
    assert doc["results"]["error"] == "JacobiFailure"
    assert "pair (X[0,0,1], X[0,1,0]) of B3" in doc["results"]["message"]


def test_internal_check_failure_is_an_error_envelope(capsys, monkeypatch, tmp_path):
    # a failed internal check is an AssertionError; the CLI reports it as
    # an ERROR envelope with exit 1, not as a traceback
    monkeypatch.setattr(lieform.cohomology, "_solve", lambda *args: None)
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps([[int(i == j) for j in range(8)] for i in range(8)]))
    code, doc, err = run_json(capsys, ["lift-aut", "--type", "A2", "--prime", "5",
                                       "--sigma", str(path)])
    assert code == 1
    assert doc["status"] == "ERROR"
    assert doc["results"] == {"error": "AssertionError",
                              "message": "no primitive despite a perfect Killing form"}
    assert err == "error: no primitive despite a perfect Killing form\n"


def test_memory_error_is_an_error_envelope(capsys, monkeypatch):
    # running out of memory is reported as an ERROR envelope with exit 1,
    # not as a traceback
    def exhausted(t, p):
        raise MemoryError

    monkeypatch.setattr(cli, "_verify_derivations", exhausted)
    code, doc, err = run_json(capsys, ["verify", "--suite", "derivations",
                                       "--type", "A2", "--prime", "7"])
    assert code == 1
    assert doc["status"] == "ERROR"
    assert doc["results"] == {"error": "MemoryError", "message": "MemoryError"}
    assert err == "error: MemoryError\n"


def test_every_exception_class_is_a_lieform_error_or_an_invariant():
    # the CLI turns every LieformError into an ERROR envelope, and an
    # AssertionError is a failed internal check
    classes = []
    for info in pkgutil.iter_modules(lieform.__path__):
        if info.name != "__main__":
            mod = importlib.import_module("lieform." + info.name)
            classes += [c for c in vars(mod).values() if isinstance(c, type)
                        and issubclass(c, BaseException) and c.__module__ == mod.__name__]
    assert {"CliError", "JacobiFailure", "RingError", "SchemaError"} <= {
        c.__name__ for c in classes}
    assert [c.__name__ for c in classes
            if not issubclass(c, (LieformError, AssertionError))] == []


@pytest.mark.parametrize("error", [RingMismatch, NotAUnit, NoCanonicalMorphism,
                                   DimensionMismatch, NotACocycle],
                         ids=lambda c: c.__name__)
def test_named_errors_of_every_layer_are_error_envelopes(capsys, monkeypatch, error):
    def failing(t, p):
        raise error("raised inside the suite")

    monkeypatch.setattr(cli, "_verify_derivations", failing)
    code, doc, err = run_json(capsys, ["verify", "--suite", "derivations",
                                       "--type", "A2", "--prime", "7"])
    assert code == 1 and doc["status"] == "ERROR"
    assert doc["results"] == {"error": error.__name__, "message": "raised inside the suite"}
    assert err == "error: raised inside the suite\n"


def test_verify_ratios(capsys):
    code, doc, _ = run_json(capsys, ["verify", "--suite", "ratios",
                                     "--type", "A3"])
    assert code == 0
    check = doc["results"]["checks"][0]
    assert check["ratio"] == 8 and check["expected"] == 8


def test_verify_kernel_b2(capsys):
    code, doc, _ = run_json(capsys, ["verify", "--suite", "kernel-b2"])
    assert code == 0
    assert doc["inputs"] == {"suite": "kernel-b2", "rank": 2, "prime": 2}
    assert doc["results"]["vectors"] == ["E(0,1)", "E(0,2)", "E(0,3)",
                                         "E(0,4)"]


def test_verify_kernel_b2_needs_two(capsys):
    code, doc, _ = run_json(capsys, ["verify", "--suite", "kernel-b2",
                                     "--prime", "3"])
    assert code == 1
    assert doc["status"] == "ERROR"


def test_verify_missing_prime(capsys):
    code, doc, _ = run_json(capsys, ["verify", "--suite", "casimir",
                                     "--type", "A1"])
    assert code == 1


@pytest.mark.parametrize("suite,extra", [("ratios", ["--rank", "3"]),
                                         ("casimir", ["--prime", "5"]),
                                         ("derivations", ["--prime", "5"]),
                                         ("cohomology", ["--rank", "2", "--prime", "5"])])
def test_verify_suite_without_type_is_an_error(capsys, suite, extra):
    code, doc, err = run_json(capsys, ["verify", "--suite", suite] + extra)
    assert code == 1
    assert doc["status"] == "ERROR"
    assert doc["inputs"] == {"suite": suite}
    assert doc["results"] == {"error": "CliError",
                              "message": "--type is required for suite %r" % suite}
    assert err == "error: --type is required for suite %r\n" % suite


def test_sl2_decompose_builtin_chain(capsys):
    code, doc, _ = run_json(capsys, ["sl2-decompose", "--builtin", "chain:2",
                                     "--prime", "5"])
    assert code == 0
    assert doc["results"]["success"] is True
    assert doc["results"]["path"] == "polynomial-projectors"
    assert doc["results"]["weights"] == [-2, 0, 2]
    assert "projectors" in doc["results"]


def test_sl2_decompose_counterexample_exit3(capsys):
    code, doc, _ = run_json(capsys, ["sl2-decompose", "--builtin",
                                     "counterexample", "--prime", "3"])
    assert code == 3
    assert doc["status"] == "OK"          # the tool worked; the module failed
    assert doc["results"]["success"] is False
    w = doc["results"]["failure_witness"]
    assert w["weight_chain"] == [-3, 3]
    assert w["vector"] == ["1/3", "0", "0", "1/3"]


def test_sl2_decompose_file_roundtrip(capsys, tmp_path):
    doc = module_to_json(chain_from_highest(1, 7))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, ["sl2-decompose", "--file", str(path)])
    assert code == 0
    assert out["inputs"] == {"file": "chain.json", "p": 7}


def test_sl2_decompose_file_prime_mismatch(capsys, tmp_path):
    doc = module_to_json(counterexample_module(3))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, ["sl2-decompose", "--file", str(path),
                                     "--prime", "5"])
    assert code == 1
    assert out["status"] == "ERROR"


def test_sl2_decompose_schema_error_reports_pointer(capsys, tmp_path):
    doc = module_to_json(chain_from_highest(1, 5))
    doc["lattice"][0][0] = "x"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_json(capsys, ["sl2-decompose", "--file", str(path)])
    assert code == 1
    assert out["status"] == "ERROR"
    assert out["results"]["error"] == "SchemaError"
    assert out["results"]["path"] == "/lattice/0/0"


def test_lift_aut_flow(capsys, tmp_path):
    sigma = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(sigma))
    code, doc, _ = run_json(capsys, ["lift-aut", "--type", "A1", "--prime",
                                     "5", "--sigma", str(path)])
    assert code == 0
    assert doc["results"]["modulus"] == 25
    assert doc["results"]["lifted"] == [[1, 0, 0], [0, 17, 0], [0, 0, 3]]
    assert all(c["pass"] for c in doc["results"]["checks"])


def test_lift_aut_rejects_non_automorphism(capsys, tmp_path):
    sigma = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(sigma))
    code, doc, _ = run_json(capsys, ["lift-aut", "--type", "A1", "--prime",
                                     "5", "--sigma", str(path)])
    assert code == 1
    assert doc["status"] == "ERROR"


def test_lift_aut_wrong_shape(capsys, tmp_path):
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps([[1, 0], [0, 1]]))
    code, doc, _ = run_json(capsys, ["lift-aut", "--type", "A1", "--prime",
                                     "5", "--sigma", str(path)])
    assert code == 1
    assert doc["status"] == "ERROR"


def test_lift_aut_ragged_sigma_is_an_error_envelope(capsys, tmp_path):
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps([[1, 0, 0], [0, 1], [0, 0, 1]]))
    code, doc, err = run_json(capsys, ["lift-aut", "--type", "A1", "--prime",
                                       "5", "--sigma", str(path)])
    assert code == 1
    assert doc["status"] == "ERROR"
    assert doc["inputs"] == {"type": "A1", "prime": 5, "sigma": "sigma.json"}
    assert doc["results"] == {"error": "CliError",
                              "message": "--sigma rows must all have the same length"}
    assert err == "error: --sigma rows must all have the same length\n"


@pytest.mark.parametrize("argv, error, inputs", [
    (["verify", "--suite", "cohomology", "--type", "A4", "--prime", "5"],
     "DimensionTooLarge", {"suite": "cohomology", "type": "A4", "prime": 5}),
    (["verify", "--suite", "casimir", "--type", "A1"],
     "CliError", {"suite": "casimir", "type": "A1"}),
    (["classify", "--type", "A2", "--prime", "4"], "CliError", {"type": "A2"}),
    (["sl2-decompose", "--builtin", "chain:9", "--prime", "5"],
     "OutOfRange", {"builtin": "chain:9", "p": 5}),
    (["table", "--max-rank", "9"], "CliError", {}),
], ids=["cohomology-too-large", "missing-prime", "composite-prime", "chain-out-of-range",
        "rank-out-of-range"])
def test_error_envelope_carries_the_inputs_parsed_before_the_error(capsys, argv, error,
                                                                   inputs):
    code, doc, _ = run_json(capsys, argv)
    assert code == 1
    assert doc["status"] == "ERROR"
    assert doc["results"]["error"] == error
    assert doc["inputs"] == inputs


# (argv, the --sigma file's content or None, inputs, message): each is a
# CliError ERROR envelope with exit 1, its message also on stderr
CLI_ERRORS = [
    (["classify", "--type", " ", "--prime", "5"], None, {}, "--type must not be empty"),
    (["classify", "--type", "Ax", "--prime", "5"], None, {}, "unparseable type 'Ax'"),
    (["classify", "--type", "A", "--prime", "5"], None, {},
     "--rank is required when --type is a bare series letter"),
    (["table", "--primes", "2,x"], None, {}, "unparseable prime 'x'"),
    (["table", "--primes", " , "], None, {}, "--primes selected nothing"),
    (["sl2-decompose", "--builtin", "chain:2"], None, {"builtin": "chain:2"},
     "--prime is required with --builtin"),
    (["sl2-decompose", "--builtin", "chain:x", "--prime", "5"], None,
     {"builtin": "chain:x", "p": 5}, "malformed --builtin 'chain:x'"),
    (["sl2-decompose", "--builtin", "spiral", "--prime", "5"], None,
     {"builtin": "spiral", "p": 5}, "unknown --builtin 'spiral' (chain:j or counterexample)"),
    # the counterexample's cost grows about as p³; 101 is the first prime above the bound
    (["sl2-decompose", "--builtin", "counterexample", "--prime", "101"], None,
     {"builtin": "counterexample", "p": 101},
     "--builtin counterexample takes a prime up to 100, not 101"),
    (["lift-aut", "--type", "A1", "--prime", "5"], {"rows": [[1]]},
     {"type": "A1", "prime": 5, "sigma": "sigma.json"},
     "--sigma file must hold a JSON array of integer rows"),
    (["lift-aut", "--type", "A1", "--prime", "5"], [[1, 0, 0], [0, "1", 0], [0, 0, 1]],
     {"type": "A1", "prime": 5, "sigma": "sigma.json"}, "--sigma entries must be integers"),
]


@pytest.mark.parametrize("argv,sigma,inputs,message", CLI_ERRORS,
                         ids=[m for _, _, _, m in CLI_ERRORS])
def test_cli_errors_name_their_input(capsys, tmp_path, argv, sigma, inputs, message):
    if sigma is not None:
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(sigma))
        argv = argv + ["--sigma", str(path)]
    code, doc, err = run_json(capsys, argv)
    assert code == 1 and doc["status"] == "ERROR"
    assert doc["inputs"] == inputs
    assert doc["results"] == {"error": "CliError", "message": message}
    assert err == "error: %s\n" % message


def test_table_skips_empty_prime_entries(capsys):
    code, doc, _ = run_json(capsys, ["table", "--max-rank", "1", "--primes", "5,,3,"])
    assert code == 0 and doc["inputs"]["primes"] == [3, 5]


def test_table_disagreement_exits_two(capsys, monkeypatch):
    # an oracle that disagrees on one row makes the table a MISMATCH
    def disagreeing(t, p):
        v = lieform.predict_perfect(t, p)
        return lieform.PerfectnessVerdict(t, p, v.predicted, v.reason,
                                          v.predicted != (t.name == "A2" and p == 5))

    monkeypatch.setattr(cli, "verdict_with_oracle", disagreeing)
    code, doc, _ = run_json(capsys, ["table", "--max-rank", "2", "--primes", "5,7",
                                     "--oracle"])
    assert code == 2 and doc["status"] == "MISMATCH"
    assert doc["results"]["all_agree"] is False
    assert [(r["series"], r["rank"], r["p"]) for r in doc["results"]["rows"]
            if not r["agree"]] == [("A", 2, 5)]
    code, out, _ = run(capsys, ["table", "--max-rank", "2", "--primes", "5,7",
                                "--oracle", "--format", "csv"])
    assert code == 2 and "A,2,5,true,PERFECT,false,false" in out


def test_envelope_reports_tool_version(capsys):
    from lieform import __version__
    _, doc, _ = run_json(capsys, ["classify", "--type", "A1", "--prime", "3"])
    assert doc["tool_version"] == __version__


def test_classify_at_a_large_prime_is_quick(child_env):
    # trial division on --prime would not finish at 10^18, so this runs in
    # a child with a timeout
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "lieform", "classify", "--type", "A1",
                           "--prime", "1000000000000000003"], env=child_env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and time.perf_counter() - t0 < 5
    assert json.loads(proc.stdout)["results"]["reason"] == "PERFECT"


def test_classify_above_the_miller_rabin_bound_is_an_error(child_env):
    # the next prime above the bound once fell to trial division, which
    # would not finish, so this runs in a child with a timeout
    proc = subprocess.run([sys.executable, "-m", "lieform", "classify", "--type", "A1",
                           "--prime", "3317044064679887385962123"], env=child_env,
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["status"] == "ERROR" and doc["inputs"] == {"type": "A1"}
    assert doc["results"]["error"] == "ValueError"
    assert "3317044064679887385962123" in doc["results"]["message"]


def test_sl2_decompose_file_with_rows_dependent_mod_p(tmp_path, child_env):
    # the weight-0 piece saturates through a left dependency mod 3; this
    # once looped forever, so it runs in a child with a timeout
    doc = {"p": 3, "lattice": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
           "weights": [0, 1],
           "pieces": {"0": [[1, 0], [0, 1], ["1/3", "1/3"]],
                      "1": [[1], [0], [0]]}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "lieform", "sl2-decompose",
                           "--file", str(path)], env=child_env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["results"]["success"] is True
    assert out["results"]["pieces"]["0"] == [["2", "0"], ["1", "3"], ["1", "1"]]


# argv fuzz: each subcommand's flags with valid values, invalid ones, or left
# out (None); ranks stay <= 3 so that every run is quick
_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
_FILES = [os.path.join(_GOLDEN, name) for name in sorted(os.listdir(_GOLDEN))
          if name.endswith(".json") and name != "cli.json"]


def _choices(valid, invalid, left_out=1):
    return valid * 3 + invalid + [None] * left_out


_TYPE = _choices(["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2", "A", "b"],
                 ["H3", "A0", "D2", "Ax", " "])
_RANK = _choices(["1", "2", "3"], ["0", "-1", "x"], left_out=12)
_PRIME = _choices(["2", "3", "5", "7"], ["0", "1", "4", "9", "-3", "x"])
_SWITCH = [None, True]
_FLAGS = {
    "classify": [("--type", _TYPE), ("--rank", _RANK), ("--prime", _PRIME),
                 ("--oracle", _SWITCH)],
    "table": [("--max-rank", _choices(["1", "2", "3"], ["0", "9", "x"], left_out=0)),
              ("--primes", _choices(["2,3", "5,,3,", "2,3,5,7,11,13"],
                                    ["2,9", " , ", "x", "-2"])),
              ("--oracle", _SWITCH), ("--format", _choices(["json", "csv", "md"], ["xml"])),
              ("--no-dedup", _SWITCH)],
    "verify": [("--suite", _choices(["casimir", "derivations", "cohomology", "ratios",
                                     "kernel-b2"], ["bogus"])),
               ("--type", _TYPE), ("--rank", _RANK), ("--prime", _PRIME)],
    "sl2-decompose": [("--file", _choices(_FILES, ["missing.json"], left_out=30)),
                      ("--builtin", _choices(["chain:1", "chain:2", "chain:3",
                                              "counterexample"],
                                             ["chain:9", "chain:x", "spiral"], left_out=8)),
                      ("--prime", _PRIME)],
    "lift-aut": [("--type", _TYPE), ("--rank", _RANK), ("--prime", _PRIME),
                 ("--sigma", _choices(_FILES, ["missing.json"]))],
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS) + ["bogus"]))
    argv = [command]
    for flag, values in _FLAGS.get(command, []):
        value = draw(st.sampled_from(values))
        argv += [] if value is None else [flag] if value is True else [flag, value]
    return argv + draw(st.sampled_from([[]] * 13 + [["--bogus"], ["stray"], ["--help"]]))


@settings(derandomize=True, max_examples=1000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def test_every_argv_ends_in_an_envelope_or_a_usage_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:               # argparse: 0 for --help, 1 for usage
            assert exc.code in (0, 1)
            return
    assert code in (0, 1, 2, 3)
    if code != 1 and "--format" in argv and argv[argv.index("--format") + 1] != "json":
        assert out.getvalue() and not out.getvalue().startswith("{")
        return
    doc = json.loads(out.getvalue())
    assert set(doc) == {"command", "inputs", "results", "status", "tool_version"}
    assert (doc["status"], code) in {("OK", 0), ("OK", 3), ("MISMATCH", 2), ("ERROR", 1)}
