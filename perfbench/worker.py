"""Child process of the benchmark; it imports lieform, the parent does not time it.

    python3 perfbench/worker.py setup TYPE...            build and exit
    python3 perfbench/worker.py lib SPEC OUT             run library jobs
    python3 perfbench/worker.py trace SPEC OUT SPANS

SPEC is a JSON file of generated inputs.  `lib` runs each job once and
writes the outputs, as plain JSON, to OUT.  `trace` replays a workload
in this process three times: a warm-up pass that is thrown away, an
untraced pass, then a pass with spans around lieform's public
functions; it writes the traced pass's outputs to OUT and its spans to
SPANS.  The last line of stdout is a JSON summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import lieform as L  # noqa: E402

RINGS = {"Z/p^2": lambda p: L.IntegersModPk(p, 2),
         "F_p[eps]": lambda p: L.DualNumbers(L.PrimeField(p))}


def _dynkin(name: str):
    return L.DynkinType(name[0], int(name[1:]))


def build(types) -> dict:
    """Set-up shared by every lib job: the integral algebras."""
    return {t: L.chevalley_presentation(_dynkin(t)).to_lie_algebra(L.ZZ)
            for t in types}


def _raw(v):
    """A raw ring value as JSON: int, "a/b", or [a, b] for dual numbers."""
    if isinstance(v, tuple):
        return [_raw(x) for x in v]
    if isinstance(v, int):
        return v
    return L.format_rational(v)


def _rows(m) -> list:
    return [[_raw(m.raw(r, c)) for c in range(m.ncols)] for r in range(m.nrows)]


def _module(job):
    """The weighted module a decomposition job names."""
    p = job["p"]
    if job["module"] == "chain":
        return L.chain_from_highest(job["j"], p)
    if job["module"] == "counterexample":
        return L.counterexample_module(p)
    m = L.chain_from_highest(job["parts"][0], p)
    for j in job["parts"][1:]:
        m = L.direct_sum(m, L.chain_from_highest(j, p))
    return L.conjugate(m, L.Matrix.from_rows(L.QQ, job["u"]))


def run_job(job, algebras):
    """One library call chain, from generated inputs to a lieform result."""
    kind = job["kind"]
    if kind == "lift":
        ext = L.square_zero_extension(RINGS[job["ring"]](job["p"]))
        sigma = L.Matrix.from_rows(ext.quotient_ring, job["sigma"])
        return L.lift_automorphism(algebras[job["type"]], ext, sigma)
    if kind == "derivations":
        pres = L.chevalley_presentation(_dynkin(job["type"]))
        return L.derivation_algebra(pres.to_lie_algebra(L.PrimeField(job["p"])))
    if kind == "decompose":
        return L.extend_torus(_module(job))
    raise ValueError("unknown job kind %r" % kind)


def export(job, out) -> dict:
    """A lieform result as plain JSON for the parent's checks."""
    if isinstance(out, Exception):
        return {"error": "%s: %s" % (type(out).__name__, out)}
    if job["kind"] in ("lift", "derivations"):
        return {"matrix": _rows(out)}
    doc = {"success": out.success,
           "pieces": {str(w): _rows(m) for w, m in out.pieces.items()}}
    if out.success:
        doc["projectors"] = {str(w): _rows(m) for w, m in out.projectors.items()}
    else:
        doc["witness"] = [_raw(v) for v in out.failure_witness[1]]
    return doc


def run_lib(jobs, algebras, tracer=None):
    """Run every job once; return (results, latencies, wall, cpu)."""
    results, lat = [], []
    w0, c0 = time.perf_counter(), time.process_time()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        t0 = time.perf_counter()
        try:
            out = run_job(job, algebras)
        except Exception as exc:        # recorded per job and counted as failed
            out = exc
        lat.append(time.perf_counter() - t0)
        results.append(out)
    return results, lat, time.perf_counter() - w0, time.process_time() - c0


def clear_caches(lru) -> int:
    """Empty lieform's cached constructors; return the Killing Gram misses.
    `lru` holds the cached functions themselves, not the traced wrappers."""
    misses = next(fn for fn in lru if fn.__name__ == "integral_killing_gram").cache_info().misses
    for fn in lru:
        fn.cache_clear()
    return misses


def _lru_functions() -> list:
    found = []
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("lieform"):
            for val in vars(mod).values():
                if hasattr(val, "cache_clear") and val not in found:
                    found.append(val)
    return found


def run_cli(argvs, lru, tracer, span_name):
    """Run CLI commands in this process, cold caches each; return
    (outputs, wall, gram misses)."""
    from lieform import cli
    outs, misses = [], 0
    t0 = time.perf_counter()
    for k, argv in enumerate(argvs):
        misses += clear_caches(lru)
        buf = io.StringIO()
        if tracer is not None:
            tracer.job = k
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(span_name):
                    code = cli.main(argv)
        outs.append({"exit": code, "stdout": buf.getvalue()})
    misses += clear_caches(lru)
    return outs, time.perf_counter() - t0, misses


def trace(workload, spec, out_path, spans_path) -> dict:
    from tracer import Tracer
    import lieform.cli  # noqa: F401  (bind every module before patching)
    lru = _lru_functions()
    tracer = Tracer()
    if workload == "lib":
        algebras = build(spec["types"])
        run_lib(spec["jobs"], algebras)                 # warm-up, thrown away
        _, _, plain, _ = run_lib(spec["jobs"], algebras)
        tracer.install()
        results, lat, traced, _ = run_lib(spec["jobs"], algebras, tracer)
        tracer.uninstall()
        outputs = [export(j, r) for j, r in zip(spec["jobs"], results)]
        builds = clear_caches(lru)
    else:
        argvs = [job["argv"] for job in spec["jobs"]]
        name = "cli.table" if workload == "table" else "cli.main"
        clear_caches(lru)
        run_cli(argvs, lru, None, name)                 # warm-up, thrown away
        _, plain, _ = run_cli(argvs, lru, None, name)
        tracer.install()
        outputs, traced, builds = run_cli(argvs, lru, tracer, name)
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(outputs, fh)
    tracer.write(spans_path)
    counts = dict(tracer.counts)
    counts["classify.gram_builds"] = builds
    counts["classify.gram_keys"] = len(tracer.gram_keys)
    return {"self_s": tracer.self_times(), "counts": counts,
            "plain_s": plain, "traced_s": traced, "spans": len(tracer.spans)}


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        build(argv[1:])
        return 0
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "lib":
        algebras = build(spec["types"])
        results, lat, wall, cpu = run_lib(spec["jobs"], algebras)
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump([export(j, r) for j, r in zip(spec["jobs"], results)], fh)
        summary = {"latencies": lat, "wall_s": wall, "cpu_s": cpu}
    elif mode == "trace":
        summary = trace(spec["workload"], spec, argv[2], argv[3])
    else:
        raise SystemExit("unknown mode %r" % mode)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
