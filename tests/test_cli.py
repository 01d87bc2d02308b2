import dataclasses
import json
import os
import subprocess
import sys

import pytest

import lieform
from lieform import chain_from_highest, counterexample_module, module_to_json
from lieform.classify import integral_killing_array, integral_killing_gram
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


def test_table_thread_env(capsys, monkeypatch):
    monkeypatch.setenv("LIEFORM_THREADS", "2")
    code, doc, _ = run_json(capsys, ["table", "--max-rank", "2",
                                     "--primes", "2,3"])
    assert code == 0 and len(doc["results"]["rows"]) == 10


def test_table_builds_each_killing_gram_once(capsys):
    integral_killing_gram.cache_clear()
    integral_killing_array.cache_clear()
    code, doc, _ = run_json(capsys, ["table", "--max-rank", "3", "--oracle"])
    assert code == 0 and doc["results"]["all_agree"] is True
    ntypes = len({(r["series"], r["rank"]) for r in doc["results"]["rows"]})
    assert ntypes == 9
    assert integral_killing_gram.cache_info().misses == ntypes


def test_cli_import_leaves_scipy_out():
    code = "import sys, lieform.cli; print('scipy' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lieform.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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


def test_verify_cohomology(capsys):
    code, doc, _ = run_json(capsys, ["verify", "--suite", "cohomology",
                                     "--type", "A1", "--prime", "5"])
    assert code == 0
    by_name = {c["name"]: c for c in doc["results"]["checks"]}
    assert by_name["h0-h1-h2-vanish"]["dims"] == [0, 0, 0]
    assert by_name["differentials-compose-to-zero"]["pass"] is True


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
    bad = dataclasses.replace(pres, table={**pres.table, (3, 4): ((k, c + 1),)})
    monkeypatch.setattr(cli, "chevalley_presentation",
                        lambda t: lieform.verify_jacobi(bad) and bad)
    code, doc, _ = run_json(capsys, ["verify", "--suite", "casimir",
                                     "--type", "B3", "--prime", "7"])
    assert code == 1
    assert doc["status"] == "ERROR"
    assert doc["results"]["error"] == "JacobiFailure"
    assert "pair (X[0,0,1], X[0,1,0]) of B3" in doc["results"]["message"]


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


def test_envelope_reports_tool_version(capsys):
    from lieform import __version__
    _, doc, _ = run_json(capsys, ["classify", "--type", "A1", "--prime", "3"])
    assert doc["tool_version"] == __version__


def test_sl2_decompose_file_with_rows_dependent_mod_p(tmp_path):
    # the weight-0 piece saturates through a left dependency mod 3; this
    # once looped forever, so it runs in a child with a timeout
    doc = {"p": 3, "lattice": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
           "weights": [0, 1],
           "pieces": {"0": [[1, 0], [0, 1], ["1/3", "1/3"]],
                      "1": [[1], [0], [0]]}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lieform.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "lieform", "sl2-decompose",
                           "--file", str(path)], env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["results"]["success"] is True
    assert out["results"]["pieces"]["0"] == [["2", "0"], ["1", "3"], ["1", "1"]]
