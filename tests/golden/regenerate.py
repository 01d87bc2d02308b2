"""Regenerate the golden CLI corpus, cli.json in this directory.

Each record holds one `lieform` command line, its exit code and the sha256
of its stdout and of its stderr, all run in process through `cli.main`.
The `--sigma` and `--file` inputs are the JSON files beside this script.

    PYTHONPATH=src python tests/golden/regenerate.py

A change that alters an output on purpose regenerates the corpus and lists
every changed record, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "cli.json")

TABLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
TYPES = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(1, 9)]
         + [("C", r) for r in range(1, 9)] + [("D", r) for r in range(3, 9)]
         + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def commands() -> list:
    out = []
    for s, r in TYPES:
        for p in TABLE_PRIMES + (9,):
            for oracle in ([], ["--oracle"]):
                out.append(["classify", "--type", "%s%d" % (s, r), "--prime", str(p)] + oracle)
    for fmt in ("json", "csv", "md"):
        for oracle in ([], ["--oracle"]):
            for dedup in ([], ["--no-dedup"]):
                out.append(["table", "--format", fmt] + oracle + dedup)
    for suite in ("casimir", "derivations", "cohomology"):
        for s, r in TYPES:
            if r <= 4:
                for p in (2, 3, 5, 7):
                    out.append(["verify", "--suite", suite, "--type", "%s%d" % (s, r),
                                "--prime", str(p)])
    out += [["verify", "--suite", "ratios", "--type", "%s%d" % t] for t in TYPES]
    out += [["verify", "--suite", "kernel-b2", "--rank", str(r)] for r in range(1, 9)]
    for p in (2, 3, 5, 7, 11, 13):
        out += [["sl2-decompose", "--builtin", "chain:%d" % j, "--prime", str(p)]
                for j in range(1, p)]
        out.append(["sl2-decompose", "--builtin", "counterexample", "--prime", str(p)])
    out += [["lift-aut", "--type", "A2", "--prime", "5", "--sigma", "sigma_A2_5.json"],
            ["lift-aut", "--type", "B2", "--prime", "7", "--sigma", "sigma_B2_7.json"],
            ["lift-aut", "--type", "A1", "--prime", "5", "--sigma", "sigma_A1_diagonal.json"],
            ["sl2-decompose", "--file", "module_chain_1_7.json"],
            ["sl2-decompose", "--file", "module_dependent_mod_3.json"]]
    # the ERROR envelopes and usage errors of tests/test_cli.py that need no monkeypatch
    out += [
        ["classify", "--type", "A2", "--rank", "3", "--prime", "5"],
        ["classify", "--type", "A2", "--prime", "6"],
        ["classify", "--type", "A2", "--prime", "4"],
        ["classify", "--type", "H3", "--prime", "5"],
        ["classify", "--type", "A1", "--prime", "3317044064679887385962123"],
        ["classify", "--type", "A1", "--prime", "1000000000000000003"],
        ["classify", "--typ", "A2"],
        [],
        ["table", "--primes", "2,9"],
        ["table", "--max-rank", "9"],
        ["verify", "--suite", "cohomology", "--type", "A4", "--prime", "5"],
        ["verify", "--suite", "casimir", "--type", "A1"],
        ["verify", "--suite", "kernel-b2", "--prime", "3"],
        ["verify", "--suite", "ratios", "--rank", "3"],
        ["verify", "--suite", "casimir", "--prime", "5"],
        ["verify", "--suite", "derivations", "--prime", "5"],
        ["verify", "--suite", "cohomology", "--rank", "2", "--prime", "5"],
        ["sl2-decompose", "--builtin", "chain:9", "--prime", "5"],
        ["sl2-decompose", "--file", "module_counterexample_3.json", "--prime", "5"],
        ["sl2-decompose", "--file", "module_bad_entry.json"],
        ["lift-aut", "--type", "A1", "--prime", "5", "--sigma",
         "sigma_A1_not_automorphism.json"],
        ["lift-aut", "--type", "A1", "--prime", "5", "--sigma", "sigma_A1_wrong_shape.json"],
        ["lift-aut", "--type", "A1", "--prime", "5", "--sigma", "sigma_A1_ragged.json"],
    ]
    return out


def run(argv: list) -> dict:
    """The record of one command line, run in process."""
    from lieform import cli

    resolved = [os.path.join(HERE, a) if prev in ("--sigma", "--file") else a
                for prev, a in zip([None] + argv, argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(resolved)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def main() -> None:
    records = [run(argv) for argv in commands()]
    with open(CORPUS, "w", encoding="utf-8") as fh:
        fh.write("[\n%s\n]\n" % ",\n".join(json.dumps(r) for r in records))
    print("%d records written to %s" % (len(records), CORPUS))


if __name__ == "__main__":
    main()
