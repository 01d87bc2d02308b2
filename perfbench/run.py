"""Benchmark of lieform: end-to-end timings of three workloads, or a traced
run that splits one workload's time across lieform's modules.

    python3 perfbench/run.py --workload table|cli|lib|all --seed N \
        --seconds S --trace 0|1

Run it from the root of a lieform source tree; the program is imported
from ./src.  Jobs run one at a time (a closed loop with one client).  A
run repeats whole rounds of its workload, a fixed number per 40 s of
--seconds.  Wall and CPU time are the lower median over the rounds; job
latencies are pooled over them.  Every output is checked.  The last line
of stdout is a JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
PY = sys.executable
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402

WORKLOADS = ("table", "cli", "lib")
# whole rounds per run at --seconds 40, 30 to 40 s of jobs on the host in
# the README (table 2 x 20 s, cli 28 s, lib 3 x 11 s); other --seconds
# scale them.  A fixed count keeps the work of a run the same whatever
# the host's speed at the time.
ROUNDS_PER_40_S = {"table": 2, "cli": 1, "lib": 3}
SETUP_SAMPLES = 7       # at least; the last ones are taken after the rounds
SETUP_BEFORE = 2        # samples before the first round
SETUP_BETWEEN = 1       # table, lib: samples after each round
SETUP_EVERY = 9         # cli: one sample after every 9th job of a round
IMPORTTIME_SAMPLES = 3
DEADLINE_MARGIN_S = 130  # allowed past --seconds for set-up, the last round and checks
IMPORT_CLI = [PY, "-c", "import lieform.cli"]

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "job_p50_s": "s",
             "job_p95_s": "s", "peak_rss_mb": "MB"}
COUNTS = ("matrices.rank_calls", "cohomology.ce_complex_calls",
          "cohomology.cochain_entries", "classify.gram_builds")
IMPORTS = {"cli.import_s": "lieform", "cli.import_numpy_s": "numpy",
           "cli.import_scipy_s": "scipy"}


class Deadline(Exception):
    pass


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LIEFORM_THREADS", None)        # as users run it: default threads
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv) -> Child:
    """Run one process to its end; its own CPU time and peak RSS come
    from wait4, so nothing of this process is counted."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(), wall,
                     ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def last_json(child: Child) -> dict:
    if child.code != 0:
        raise RuntimeError("worker exited %d: %s" % (child.code, child.stderr[-2000:]))
    return json.loads(child.stdout.strip().splitlines()[-1])


def import_lieform():
    """lieform for making inputs and reading structure constants; outside
    every timed span."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import lieform
    return lieform


def p95(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


@dataclass
class Round:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def judge(rnd: Round, job, code: int, problems: list) -> None:
    """Count one operation.  The known fault fails with exit 2 and is
    counted as failed without making the run incorrect."""
    rnd.attempted += 1
    if job.get("known_fault") and code == 2:
        rnd.failed += 1
        return
    if code != job.get("expect", 0):
        rnd.failed += 1
    rnd.problems += ["%s: %s" % (" ".join(job.get("argv", [job.get("kind", "?")])), p)
                     for p in problems]


def process_round(jobs, consts, sample_setup) -> Round:
    """Each job a fresh `python3 -m lieform` process; checks after the
    last.  cli takes a set-up sample after every SETUP_EVERY-th job, so
    `wall` is the sum of the jobs' own wall times."""
    rnd = Round()
    done = []
    for k, job in enumerate(jobs, 1):
        done.append(spawn([PY, "-m", "lieform"] + job["argv"]))
        if k % SETUP_EVERY == 0:
            sample_setup()
    for job, ch in zip(jobs, done):
        rnd.wall += ch.wall
        rnd.cpu += ch.cpu
        rnd.rss_mb = max(rnd.rss_mb, ch.rss_mb)
        rnd.latencies.append(ch.wall)
        judge(rnd, job, ch.code, check_output(job, ch.code, ch.stdout, consts))
    return rnd


def check_output(job, code, stdout, consts) -> list:
    if job.get("known_fault") and code == 2:
        return []
    try:
        return checks.check_cli(job, code, stdout, consts)
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        return ["unreadable output (%s: %s)" % (type(exc).__name__, exc)]


def lib_round(spec_path, spec, consts, work) -> Round:
    out_path = os.path.join(work, "lib-out.json")
    ch = spawn([PY, WORKER, "lib", spec_path, out_path])
    summary = last_json(ch)
    with open(out_path, encoding="utf-8") as fh:
        outputs = json.load(fh)
    rnd = Round(wall=summary["wall_s"], cpu=summary["cpu_s"], rss_mb=ch.rss_mb,
                latencies=summary["latencies"])
    for job, out in zip(spec["jobs"], outputs):
        check_lib_job(rnd, job, out, consts)
    return rnd


def check_lib_job(rnd: Round, job, out, consts) -> None:
    if "error" in out:
        judge(rnd, job, 1, [out["error"]])
    else:
        judge(rnd, job, 0, checks.check_lib(job, out, consts))


def make_spec(workload, seed, work):
    """(spec, structure constants) of one workload."""
    if workload == "table":
        return inputs.table_spec(seed), {}
    lf = import_lieform()
    if workload == "cli":
        spec = inputs.cli_spec(seed, lf, work)
        names = {j["type"] for j in spec["jobs"] if j["check"] == "lift"}
    else:
        spec = inputs.lib_spec(seed, lf)
        names = set(spec["types"])
    return spec, {t: inputs.structure_constants(lf, t) for t in names}


def job_group(job) -> str:
    """The kind of a job, for latency by kind: `lift B2 Z/p^2`,
    `derivations A3`, `decompose chain`, `classify E8`, ..."""
    if "kind" in job:
        return " ".join(str(job[k]) for k in ("kind", "type", "ring", "module") if k in job)
    argv = job["argv"]
    words = argv[:3:2] if argv[0] == "verify" else argv[:1]    # subcommand, suite
    if "--type" in argv:
        words.append(argv[argv.index("--type") + 1])
    if job.get("known_fault"):
        words.append("(known fault)")
    return " ".join(words)


def latency_groups(jobs, rounds) -> dict:
    """Latency quantiles per kind of job, and the kinds of the two jobs
    on either side of the median and of the 95th percentile of all the
    rounds' jobs."""
    lat = sorted((x, job_group(j)) for r in rounds for x, j in zip(r.latencies, jobs))
    by = {}
    for x, g in lat:
        by.setdefault(g, []).append(x)
    n = len(lat)
    around = {}
    for name, q in (("p50", 0.5), ("p95", 0.95)):
        pos = q * (n - 1)                   # the inclusive quantile's position
        around[name] = [lat[int(pos)][1], lat[min(int(pos) + 1, n - 1)][1]]
    return {"around": around,
            "by_group": {g: {"n": len(v), "min": v[0], "median": statistics.median(v),
                             "max": v[-1]} for g, v in sorted(by.items())}}


def timed_run(workload, seed, seconds, work) -> dict:
    spec, consts = make_spec(workload, seed, work)
    setup = []

    def sample_setup():
        setup.append(spawn(setup_argv).wall)

    if workload == "lib":
        spec_path = os.path.join(work, "lib-spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        setup_argv = [PY, WORKER, "setup"] + spec["types"]
        between = SETUP_BETWEEN

        def one_round():
            return lib_round(spec_path, spec, consts, work)
    else:
        setup_argv = IMPORT_CLI
        between = SETUP_BETWEEN if workload == "table" else 0

        def one_round():
            return process_round(spec["jobs"], consts, sample_setup)

    spawn(setup_argv)                       # writes bytecode caches once
    # set-up samples before, between (inside, for cli) and after the
    # rounds, so that their median spans the whole run
    for _ in range(SETUP_BEFORE):
        sample_setup()
    rounds = []
    for _ in range(max(1, round(ROUNDS_PER_40_S[workload] * seconds / 40))):
        rounds.append(one_round())
        for _ in range(between):
            sample_setup()
    while len(setup) < SETUP_SAMPLES:
        sample_setup()
    # wall and CPU time per round, then the lower median over rounds: one
    # round slowed by the host does not move it when there are two or more.
    # Job latencies are pooled over the rounds; where a round is one job
    # (table), its latency is the round's wall time.
    per_round = {"wall_s": [r.wall for r in rounds], "cpu_s": [r.cpu for r in rounds]}
    metrics = {k: statistics.median_low(v) for k, v in per_round.items()}
    lat = [x for r in rounds for x in r.latencies]
    if len(spec["jobs"]) == 1:
        metrics["job_p50_s"] = metrics["job_p95_s"] = metrics["wall_s"]
    else:
        metrics["job_p50_s"] = statistics.median(lat)
        metrics["job_p95_s"] = p95(lat)
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = max(r.rss_mb for r in rounds)
    metrics = {k: metrics[k] for k in E2E_UNITS}
    return {"rounds": len(rounds), "jobs_per_round": rounds[0].attempted,
            "setup_samples": setup, "per_round": per_round,
            "latency": latency_groups(spec["jobs"], rounds),
            "problems": [p for r in rounds for p in r.problems],
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}


# ---------------------------------------------------------------------------
# traced run

def import_times() -> dict:
    """Cumulative import time of lieform, numpy and scipy under
    `python -X importtime -c "import lieform.cli"`, median of a few."""
    samples = {k: [] for k in IMPORTS}
    for _ in range(IMPORTTIME_SAMPLES):
        ch = spawn([PY, "-X", "importtime"] + IMPORT_CLI[1:])
        entries = []
        for line in ch.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            _, cum, name = line.split("|")
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((depth, int(cum), name.strip()))
        for key, prefix in IMPORTS.items():
            samples[key].append(_top_level_cumulative(entries, prefix) / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def _top_level_cumulative(entries, prefix) -> int:
    """Sum of cumulative times of modules under `prefix` not imported
    from inside another module under `prefix`.  importtime prints
    children before their parent, so walk it backwards."""
    total, stack = 0, []
    for depth, cum, name in reversed(entries):
        del stack[depth:]
        mine = name == prefix or name.startswith(prefix + ".")
        if mine and not any(stack):
            total += cum
        stack.append(mine)
    return total


def traced_run(workload, seed, work) -> dict:
    spec, consts = make_spec(workload, seed, work)
    spec_path = os.path.join(work, "trace-spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    out_path = os.path.join(work, "trace-out.json")
    spans_path = os.path.join(OUT, "trace-%s-%d.jsonl" % (workload, seed))
    summary = last_json(spawn([PY, WORKER, "trace", spec_path, out_path, spans_path]))
    with open(out_path, encoding="utf-8") as fh:
        outputs = json.load(fh)
    rnd = Round()
    for job, out in zip(spec["jobs"], outputs):
        if workload == "lib":
            check_lib_job(rnd, job, out, consts)
        else:
            judge(rnd, job, out["exit"], check_output(job, out["exit"], out["stdout"], consts))

    metrics = {}
    for name, unit in per_layer_units().items():
        metrics[name] = {"value": 0.0, "unit": unit}
    for name, secs in summary["self_s"].items():
        metrics[name + "_s"]["value"] = secs
    if workload != "lib":                   # the whole in-process CLI time, not self time
        metrics["cli.table_s" if workload == "table" else "cli.main_s"]["value"] = \
            summary["traced_s"]
    counts = summary["counts"]
    for name in COUNTS:
        metrics[name]["value"] = counts.get(name, 0)
    builds = counts.get("classify.gram_builds", 0)
    metrics["classify.gram_build_ratio"]["value"] = (
        counts.get("classify.gram_keys", 0) / builds if builds else 1.0)
    for key, secs in import_times().items():
        metrics[key]["value"] = secs
    metrics["trace.overhead_s"]["value"] = summary["traced_s"] - summary["plain_s"]
    return {"rounds": 1, "jobs_per_round": rnd.attempted, "problems": rnd.problems,
            "attempted": rnd.attempted, "failed": rnd.failed, "spans": spans_path,
            "metrics": metrics}


def per_layer_units() -> dict:
    """Every per-layer metric, in the order of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace) -> dict:
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if trace:
            return traced_run(workload, seed, work)
        return timed_run(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(workload, res) -> None:
    for name, m in res["metrics"].items():
        print("%-6s %-34s %14.6f %s" % (workload, name, m["value"], m["unit"]))
    print("%-6s rounds %d, %d jobs per round, attempted %d, failed %d"
          % (workload, res["rounds"], res["jobs_per_round"], res["attempted"], res["failed"]))
    for p in res["problems"][:20]:
        print("%-6s WRONG %s" % (workload, p), file=sys.stderr)


def _on_alarm(signum, frame):
    raise Deadline("run did not finish in time")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lieform", "__init__.py")):
        print("error: no lieform source tree at %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # SIGTERM unwinds through spawn(), which then kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(len(names) * (int(args.seconds) + DEADLINE_MARGIN_S))
    try:
        reference.self_check()
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except Deadline as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    for w, res in results.items():
        report(w, res)
    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        metrics = {"%s.%s" % (w, k): m for w, res in results.items()
                   for k, m in res["metrics"].items()}
    doc = {"correct": not any(r["problems"] for r in results.values()),
           "attempted": sum(r["attempted"] for r in results.values()),
           "failed": sum(r["failed"] for r in results.values()),
           "metrics": metrics}
    path = os.path.join(OUT, "result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workloads": results, "summary": doc}, fh, indent=1)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
