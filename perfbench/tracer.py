"""Spans around calls into lieform's public functions, recorded from
outside the package.

`Tracer.install()` replaces each traced function, in every lieform module
that bound it, with a wrapper that records a span: name, start, end,
parent span, job id and thread.  Spans stay in memory until `write()`.
A span's self time is its duration minus the durations of its children,
which run on the same thread inside it.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches the class.
TRACED = (
    ("roots", "build_root_system", "roots.build_root_system"),
    ("chevalley", "chevalley_presentation", "chevalley.presentation"),
    ("chevalley", "verify_jacobi", "chevalley.verify_jacobi"),
    ("chevalley", "ChevalleyPresentation.to_lie_algebra", "chevalley.to_lie_algebra"),
    ("classify", "integral_killing_gram", "classify.killing_gram"),
    ("classify", "oracle_perfect", "classify.oracle"),
    ("matrices", "Matrix.map_to_ring", "matrices.map_to_ring"),
    ("matrices", "rank", "matrices.rank"),
    ("matrices", "solve_linear", "matrices.solve_linear"),
    ("matrices", "kernel", "matrices.kernel"),
    ("matrices", "inverse", "matrices.inverse"),
    ("matrices", "saturate", "matrices.saturate"),
    ("liealg", "killing_form", "liealg.killing_form"),
    ("liealg", "is_lie_automorphism", "liealg.is_lie_automorphism"),
    ("liealg", "derivation_algebra", "liealg.derivation_algebra"),
    ("liealg", "casimir", "liealg.casimir"),
    ("liealg", "casimir_operator", "liealg.casimir_operator"),
    ("liealg", "base_change", "liealg.base_change"),
    ("cohomology", "ce_complex", "cohomology.ce_complex"),
    ("cohomology", "lift_automorphism", "cohomology.lift_automorphism"),
    ("cohomology", "cohomology_dim", "cohomology.cohomology_dim"),
    ("sl2", "extend_torus", "sl2.extend_torus"),
    ("sl2", "chain_from_highest", "sl2.module_build"),
    ("sl2", "counterexample_module", "sl2.module_build"),
    ("sl2", "direct_sum", "sl2.module_build"),
    ("sl2", "conjugate", "sl2.module_build"),
    ("sl2", "module_from_json", "sl2.module_build"),
)


class Tracer:
    def __init__(self):
        self.spans = []             # (id, name, start, end, parent, job, thread)
        self.counts = defaultdict(int)
        self.gram_keys = set()      # (job, type) pairs asked of the Killing Gram cache
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []          # (owner, attribute, original)

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            tracer._count(name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, args, out) -> None:
        if name == "matrices.rank":
            self.counts["matrices.rank_calls"] += 1
        elif name == "cohomology.ce_complex":
            self.counts["cohomology.ce_complex_calls"] += 1
            self.counts["cohomology.cochain_entries"] += sum(
                d.nrows * d.ncols for d in (out.d0, out.d1, out.d2))
        elif name == "classify.killing_gram":
            self.gram_keys.add((self.job, args[0]))

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "lieform" or k.startswith("lieform.")}
        for modname, attr, name in TRACED:
            mod = mods["lieform." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def self_times(self) -> dict:
        child_total = defaultdict(float)
        for sid, name, start, end, parent, job, thread in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, parent, job, thread in self.spans:
            out[name] += (end - start) - child_total[sid]
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job, thread in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job,
                                     "thread": thread}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        local = self.tracer._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        self.parent = stack[-1] if stack else None
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._local.stack.pop()
        self.tracer.spans.append((self.sid, self.name, self.start, end, self.parent,
                                  self.tracer.job, threading.get_ident()))
        return False
