"""Line coverage of `src/lieform` under the Tier-1 suite, with the standard
library only.

    python tests/linecov.py

Runs the Tier-1 command from the checkout with a `sitecustomize` line
tracer first on PYTHONPATH, so that every child interpreter a test starts
is counted too.  A line is executable when a code object compiled from its
file lists it in `co_lines()`.  Prints each executable line that no process
ran, with its reason from `REASONS`, and exits 1 if pytest fails or an unrun
line has no reason.  A traced Tier-1 takes several minutes; this script is
run on demand and is not part of Tier-1.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "lieform")

INVARIANT = "internal invariant: a failure here is a defect of lieform (ROADMAP item 13)"

# The unrun lines that stay, keyed by file and by the source text of their
# statement (its lines stripped and joined by spaces; for a compound
# statement, only its header).  Every unrun `raise AssertionError(...)` is an
# internal invariant and needs no entry.
REASONS: dict = {}

_TRACER = '''\
import atexit, json, os, sys, threading

_SRC, _OUT = %r, %r
_todo = {}   # code object -> its lines not yet run
_hits = {}   # file -> lines run


def _trace(frame, event, arg):
    code = frame.f_code
    todo = _todo.get(code)
    if todo is None:
        todo = _todo[code] = ({ln for _, _, ln in code.co_lines() if ln is not None}
                              if code.co_filename.startswith(_SRC) else set())
    if not todo:
        return None
    hits = _hits.setdefault(code.co_filename, set())

    def line(frame, event, arg):
        hits.add(frame.f_lineno)
        todo.discard(frame.f_lineno)
        return line if todo else None

    return line(frame, event, arg)


def _write():
    sys.settrace(None)
    path = os.path.join(_OUT, "%%d-%%s.json" %% (os.getpid(), os.urandom(4).hex()))
    with open(path, "w") as fh:
        json.dump({f: sorted(s) for f, s in _hits.items()}, fh)


atexit.register(_write)
threading.settrace(_trace)
sys.settrace(_trace)
'''


def executable_lines(path: str) -> set:
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        c = stack.pop()
        lines.update(ln for _, _, ln in c.co_lines() if ln is not None)
        stack.extend(k for k in c.co_consts if hasattr(k, "co_lines"))
    return lines


def statements(path: str) -> tuple:
    """line -> the innermost statement holding it, and statement -> its own
    lines (a compound statement does not own the lines of its body)."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    owner = {}
    for node in ast.walk(tree):   # outer statements first, inner ones overwrite
        if isinstance(node, ast.stmt):
            body = {ln for field in ("body", "orelse", "finalbody", "handlers")
                    for child in getattr(node, field, ())
                    for ln in range(child.lineno, child.end_lineno + 1)}
            owner.update((ln, node) for ln in range(node.lineno, node.end_lineno + 1)
                         if ln not in body)
    own: dict = {}
    for ln, node in sorted(owner.items()):
        own.setdefault(node, []).append(ln)
    return owner, own


def _is_invariant(stmt) -> bool:
    exc = stmt.exc if isinstance(stmt, ast.Raise) else None
    return (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id == "AssertionError")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        site, out = os.path.join(tmp, "site"), os.path.join(tmp, "out")
        os.makedirs(site)
        os.makedirs(out)
        with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
            fh.write(_TRACER % (SRC + os.sep, out))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([site, os.path.join(ROOT, "src")] + (
            [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        tests = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                "--continue-on-collection-errors"], cwd=ROOT, env=env)
        ran: dict = {}
        for name in glob.glob(os.path.join(out, "*.json")):
            with open(name) as fh:
                for f, lines in json.load(fh).items():
                    ran.setdefault(os.path.realpath(f), set()).update(lines)

    total = unrun = unexplained = 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        lines = executable_lines(path)
        owner, own = statements(path)
        missed = sorted(lines - ran.get(os.path.realpath(path), set()))
        total += len(lines)
        unrun += len(missed)
        for ln in missed:
            stmt = owner.get(ln)    # None for a decorator line
            source = (" ".join(text[k - 1].strip() for k in own[stmt]) if stmt
                      else text[ln - 1].strip())
            reason = INVARIANT if _is_invariant(stmt) else REASONS.get((name, source))
            unexplained += reason is None
            print("%s:%d: %s  # %s" % (name, ln, text[ln - 1].strip(),
                                       reason or "NO REASON"))
    print("%d of %d executable lines of src/lieform unrun, %d without a reason"
          % (unrun, total, unexplained))
    return 1 if tests.returncode or unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
