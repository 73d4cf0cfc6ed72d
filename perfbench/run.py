"""decoq benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload ohmic_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --results runs.jsonl
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Run it from the root of a decoq checkout: decoq is imported from src/ of
that checkout.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md
for the metrics, the workloads and how to read a traced run.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import mpmath
import numpy
import scipy

import checks
import stats
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".out"

BLAS_THREADS = min(2, os.cpu_count() or 1)
# half of the set-up launches run before the rounds and half after, so
# their median spans the run rather than one moment of machine load
SETUP_LAUNCHES = 4
JOB_TIMEOUT_S = 150
# nominal wall seconds of one round on a 2-core Xeon.  A run makes the
# rounds that fit in --seconds at these times.  The count does not follow
# the clock: a run that happened to fit one round more than another would
# take its job percentiles from a different mix of jobs.
ROUND_S = {"ohmic_scan": 11.0, "nonohmic_scan": 9.0, "oracle": 20.0}
# rounds every untraced run makes whatever --seconds says: enough for the
# eleven job samples the tail percentile needs (rounds hold 10, 8 and 9
# jobs)
MIN_ROUNDS = {"ohmic_scan": 2, "nonohmic_scan": 2, "oracle": 2}


def round_count(name, seconds, trace):
    """Rounds of a run.  A traced run executes each of its rounds twice,
    and its per-layer numbers are per round, so it makes half as many."""
    n = max(MIN_ROUNDS[name], int(seconds // ROUND_S[name]))
    return max(1, n // 2) if trace else n


# d x d complex operands read or written by the dense steps of each call;
# a first call also diagonalises two real d x d matrices (2 x 2 operands
# of half the width)
OPERANDS = {"oracle.evolve_exact": 9, "oracle.evolve_split": 15}
EIGH_OPERANDS = 2


def job_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv, cwd, env, log_prefix):
    """Run argv to completion: (wall s, max RSS MB, exit code, timed out)."""
    with open(f"{log_prefix}.stdout", "wb") as out, open(f"{log_prefix}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, wall >= JOB_TIMEOUT_S


# ------------------------------------------------------------------ jobs


def _f(x):
    return repr(float(x))


def prepare(job, jobdir, traced):
    """Write the job's inputs and return (argv, main output path)."""
    outdir = jobdir / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    for d in (jobdir, outdir):
        for f in d.iterdir():
            if f.is_file():
                f.unlink()
    spans = jobdir / "spans.json"
    p = job.params
    if job.kind == "api":
        spec = jobdir / "spec.json"
        spec.write_text(json.dumps(p), encoding="utf-8")
        out = outdir / "result.json"
        argv = [sys.executable, str(BENCH / "jobs" / "oracle_job.py"), str(spec), str(out)]
        if traced:
            argv[1:1] = ["-X", "importtime"]
            argv.append(str(spans))
        return argv, out
    if job.kind == "verify":
        out = outdir / "verify.json"
        args = ["verify", "--seed", str(p["seed"]), "--out", str(out)]
        if p["corrupt"]:
            args += ["--corrupt", "b2"]
    else:
        args = [job.kind, "--temp-mk", _f(p["temp_mk"]), "--eta", _f(p["eta"]),
                "--cutoff", _f(p["omega_c"]), "--ej", _f(p["e_j"]), "--t-max", _f(p["t_max"])]
        if p["s"] != 1:
            cfg = jobdir / "bath.cfg"
            cfg.write_text(f"s = {p['s']}\n", encoding="utf-8")
            args += ["--config", str(cfg)]
        out = outdir / ("tld.json" if job.kind == "tld" else f"{job.kind}.csv")
        if job.kind == "curve":
            args += ["--samples", str(p["samples"])]
        else:
            args += ["--threshold", _f(p["threshold"])]
        if job.kind == "sweep":
            args += ["--axis", p["axis"], "--values", ",".join(_f(v) for v in p["values"])]
        args += ["--out", str(out)]
    if traced:
        return [sys.executable, "-X", "importtime", str(BENCH / "jobs" / "cli_traced.py"),
                str(spans)] + args, out
    return [sys.executable, "-m", "decoq.cli"] + args, out


def run_round(jobs, round_dir, env, traced):
    """Run a job list back to back: (round wall s, per-job results)."""
    prepared = []
    for job in jobs:
        jobdir = round_dir / job.id.split(".", 1)[1]
        jobdir.mkdir(parents=True, exist_ok=True)
        prepared.append((job, jobdir) + prepare(job, jobdir, traced))
    raw = []
    t0 = time.perf_counter()
    for job, jobdir, argv, out in prepared:
        raw.append(spawn(argv, jobdir, env, jobdir / "log"))
    round_wall = time.perf_counter() - t0
    results = []
    for (job, jobdir, argv, out), (wall, rss, code, timed_out) in zip(prepared, raw):
        res = {"job": job, "wall": wall, "rss_mb": rss, "code": code, "timeout": timed_out,
               "out": str(out), "stderr": (jobdir / "log.stderr").read_text(errors="replace"),
               "out_bytes": sum(f.stat().st_size for f in (jobdir / "out").iterdir())}
        spans_file = jobdir / "spans.json"
        if traced and spans_file.is_file():
            res["spans"] = json.loads(spans_file.read_text())
        if job.kind == "api" and out.is_file():
            res["cache"] = json.loads(out.read_text()).get("cache")
        results.append(res)
    return round_wall, results


# ------------------------------------------------------------ references


class ReferenceCache:
    """Reference values keyed by job inputs, kept on disk per workload.

    Jobs whose inputs do not depend on the seed (probes, curves) are
    computed once per checkout; the rest once per seed and round.
    """

    def __init__(self, workload):
        self.path = WORK / "refs" / f"{workload}.json"
        self.data = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def get(self, jobs):
        fresh = False
        out = {}
        for job in jobs:
            key = f"{job.kind} {json.dumps(job.params, sort_keys=True)}"
            if key not in self.data:
                self.data[key] = checks.reference_for(job)
                fresh = True
            out[job.id] = self.data[key]
        if fresh:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self.data))
        return out


# ------------------------------------------------------------ environment


# where the job interpreter would import decoq from, found without running
# decoq's (and so numpy's and scipy's) imports
_PROBE = "import importlib.util; print(importlib.util.find_spec('decoq').origin)"


def _read_first(path, prefix=""):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def environment(env, seed):
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    decoq_path = probe.stdout.strip()
    if Path(decoq_path).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"decoq resolved to {decoq_path}, not under {SRC}")
    # jobs run this interpreter, so its numpy and scipy are theirs
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    record = {"decoq_path": decoq_path, "python": sys.version.split()[0],
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "blas": f"{blas.get('name')} {blas.get('version')}"}
    digest = hashlib.sha256()
    for f in sorted((SRC / "decoq").glob("*.py")):
        digest.update(f.read_bytes())
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    record.update({
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "nproc": os.cpu_count(),
        "l2_cache_per_core": _read_first(f"{cache}/index2/size"),
        "l3_cache": _read_first(f"{cache}/index3/size"),
        "platform": platform.platform(),
        "mpmath": mpmath.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    })
    return record


def measure_setup(env, launches):
    """Wall times of fresh `python -m decoq.cli --version` launches."""
    walls = []
    WORK.mkdir(parents=True, exist_ok=True)
    for _ in range(launches):
        wall, _, code, _ = spawn([sys.executable, "-m", "decoq.cli", "--version"], WORK, env,
                                 WORK / "setup")
        text = (WORK / "setup.stdout").read_text()
        if code != 0 or not text.startswith("decoq "):
            raise RuntimeError(f"decoq --version failed with exit {code}: {text!r}")
        walls.append(wall)
    return walls


# ---------------------------------------------------------------- metrics


def e2e_metrics(setup_s, round_walls, results, outputs):
    walls = [r["wall"] for r in results]
    tail, pct, n = stats.tail(walls)
    ratios = [o.ratio for o in outputs if math.isfinite(o.ratio)]
    failed = sum(1 for o in outputs if not o.ok)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(round_walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail,
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "failed_frac": failed / len(outputs) if outputs else math.nan,
        "max_err_ratio": max(ratios) if ratios else math.nan,
    }
    notes = {
        "setup_s": f"median of {SETUP_LAUNCHES} launches around the rounds",
        "wall_s": f"median of {len(round_walls)} rounds",
        "job_p50_s": f"n={n} jobs",
        "job_tail_s": f"p{pct:.0f} of n={n} jobs, {min(10, n - 1)} beyond",
        "failed_frac": f"{failed} of {len(outputs)} checked outputs",
    }
    return values, notes


def _top_level(spans, s):
    return s[3] < 0 or spans[s[3]][0] in ("api.job", "cli.main")


def layer_metrics(traced_results, n_rounds, overhead):
    all_spans = [r.get("spans", []) for r in traced_results]
    m = {}
    imports = [tracing.parse_importtime(r["stderr"]) for r in traced_results]
    for key, name in (("decoq", "import.decoq_s"), ("scipy.integrate", "import.scipy_integrate_s"),
                      ("scipy.special", "import.scipy_special_s")):
        m[name] = statistics.median(i[key] for i in imports)

    def durations(pred):
        return [s[2] - s[1] for spans in all_spans for s in spans if pred(spans, s)]

    def timing(prefix, durs, tail=False, failed=None):
        m[f"{prefix}.calls"] = len(durs) / n_rounds
        m[f"{prefix}.busy_s"] = sum(durs) / n_rounds
        m[f"{prefix}.p50_ms"] = 1e3 * statistics.median(durs) if durs else 0.0
        if tail:
            m[f"{prefix}.tail_ms"] = 1e3 * stats.tail(durs)[0] if durs else 0.0
        if failed is not None:
            m[f"{prefix}.failed"] = failed / n_rounds

    for regime in ("short_t", "long_t"):
        def is_b2(spans, s, regime=regime):
            return s[0] == "bath.dephasing_exponent" and s[5].get("regime") == regime
        failed = sum(1 for spans in all_spans for s in spans if is_b2(spans, s) and s[4])
        timing(f"bath.dephasing_exponent.{regime}", durations(is_b2), tail=True, failed=failed)
    timing("bath.phase_shift", durations(lambda spans, s: s[0] == "bath.phase_shift"))

    def busy(prefix):
        return sum(tracing.busy_time(spans, prefix) for spans in all_spans) / n_rounds

    def self_s(layer):
        return sum(st for spans in all_spans
                   for s, st in zip(spans, tracing.self_times(spans)) if s[0] == layer) / n_rounds

    m["bath.dephasing_exponent_modes.busy_s"] = busy("bath.dephasing_exponent_modes")
    m["bath.discretize_bath.busy_s"] = busy("bath.discretize_bath")
    ldt = "evolution.low_decoherence_time"
    m[f"{ldt}.calls"] = len(durations(lambda spans, s: s[0] == ldt)) / n_rounds
    m[f"{ldt}.busy_s"] = busy(ldt)
    m[f"{ldt}.self_s"] = self_s(ldt)
    m[f"{ldt}.b2_probes"] = len(durations(
        lambda spans, s: s[0] == "bath.dephasing_exponent" and s[3] >= 0 and spans[s[3]][0] == ldt
    )) / n_rounds
    m["evolution.map.busy_s"] = busy("evolution.map")

    for dim in workloads.REPORTED_DIMS:
        phases = [("oracle.evolve_exact", "first"), ("oracle.evolve_exact", "warm")]
        if dim in workloads.SPLIT_DIMS:
            phases.append(("oracle.evolve_split", "warm"))
        for layer, phase in phases:
            durs = durations(lambda spans, s, layer=layer, phase=phase, dim=dim: (
                s[0] == layer and _top_level(spans, s) and s[5].get("dim") == dim
                and s[5].get("first") == (phase == "first")))
            m[f"{layer}.{phase}.d{dim}_ms"] = 1e3 * statistics.median(durs) if durs else 0.0
        nbytes = 0
        for spans in all_spans:
            for s in spans:
                if s[0] in OPERANDS and _top_level(spans, s) and s[5].get("dim") == dim:
                    nbytes += (OPERANDS[s[0]] + (EIGH_OPERANDS if s[5].get("first") else 0)) * 16 * dim * dim
        m[f"oracle.bytes_computed.d{dim}"] = nbytes / n_rounds
    m["oracle.error_scaling.busy_s"] = busy("oracle.error_scaling")
    caches = [r["cache"] for r in traced_results if r.get("cache")]
    lookups = sum(h + mi for h, mi in caches)
    m["oracle.eig_cache_hit_ratio"] = sum(h for h, _ in caches) / lookups if lookups else 0.0
    m["model.busy_s"] = busy("model.")
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.out_bytes"] = sum(r["out_bytes"] for r in traced_results
                             if r["job"].kind != "api") / n_rounds
    m["svgplot.write_svg.busy_s"] = busy("svgplot.write_svg")
    m["trace.overhead_frac"] = sum(t for t, _ in overhead) / sum(u for _, u in overhead) - 1.0
    return m


# -------------------------------------------------------------------- run


def _summarise_failures(outputs, broken):
    lines = []
    by_op = {}
    for o in outputs:
        by_op.setdefault(o.op, []).append(o)
    for op in sorted(by_op):
        bad = [o for o in by_op[op] if not o.ok]
        if not bad:
            continue
        worst = max(bad, key=lambda o: o.ratio if math.isfinite(o.ratio) else math.inf)
        lines.append(f"  FAILED {op}: {len(bad)} of {len(by_op[op])}; e.g. {worst.where}: {worst.detail}")
    for where, why in broken:
        lines.append(f"  BROKEN {where}: {why}")
    return lines


def run_workload(name, seed, seconds, trace, env, env_record):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_walls = measure_setup(env, SETUP_LAUNCHES // 2)
    refs = ReferenceCache(name)
    round_dir = WORK / "jobs" / name
    measured = 0.0
    round_walls, results, traced_results, overhead = [], [], [], []
    outputs, broken = [], []
    rounds = round_count(name, seconds, trace)
    for r in range(rounds):
        jobs = workloads.make_round(name, seed, r)
        refd = refs.get(jobs)
        wall, res = run_round(jobs, round_dir, env, traced=False)
        round_walls.append(wall)
        results += res
        measured += wall
        if trace:
            t_wall, t_res = run_round(jobs, round_dir, env, traced=True)
            traced_results += t_res
            overhead.append((t_wall, wall))
            measured += t_wall
        for x in res:
            outs, why = checks.check(x["job"], x, refd[x["job"].id])
            outputs += outs
            if why:
                broken.append((x["job"].id, why))

    setup_walls += measure_setup(env, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    e2e, notes = e2e_metrics(statistics.median(setup_walls), round_walls, results, outputs)
    if trace:
        values = layer_metrics(traced_results, rounds, overhead)
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"== {name} seed={seed} trace={trace} rounds={rounds} jobs={len(results)} "
          f"measured={measured:.2f}s")
    for m in spec["end_to_end"]:
        note = notes.get(m["name"])
        print(f"  {m['name']} = {e2e[m['name']]:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    if trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for x in results:
        print(f"  job {x['job'].id}: {x['wall']:.3f} s, exit {x['code']}, {x['rss_mb']:.0f} MB")
    for line in _summarise_failures(outputs, broken):
        print(line)
    attempted = len(results) + len(traced_results)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not broken, "attempted": attempted, "failed": len(broken),
        "metrics": metrics, "env": env_record,
        "failures": [{"op": o.op, "where": o.where, "detail": o.detail} for o in outputs if not o.ok],
        "broken": broken,
    }


def compare(parent_path, change_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def load(path):
        runs = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["metrics"]
        return runs

    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':14} {'metric':14} {'unit':6} {'parent med [q1, q3]':>34} "
          f"{'change med [q1, q3]':>34} {'won':>7} {'bound':>6}  verdict")
    for wl in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            p = {s: v[m["name"]]["value"] for s, v in parent[wl].items()}
            c = {s: v[m["name"]]["value"] for s, v in change[wl].items()}
            v = stats.compare(p, c, m["bound"], m["better"])
            fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
            print(f"{wl:14} {m['name']:14} {m['unit']:6} {fmt.format(*v['parent']):>34} "
                  f"{fmt.format(*v['change']):>34} {v['won']:>3}/{v['pairs']:<3} "
                  f"{v['bound']:>6.2f}  {v['verdict']}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: traced run for per-layer metrics (default: both for --workload all)")
    parser.add_argument("--results", help="append each run's full record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --results files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "decoq" / "__init__.py").is_file():
        print(f"error: no decoq sources at {SRC}; run from the root of a decoq checkout",
              file=sys.stderr)
        return 2

    env = job_env()
    env_record = environment(env, args.seed)
    print("env " + json.dumps(env_record, sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (args.trace,) if args.trace is not None else ((0, 1) if args.workload == "all" else (0,))
    records = []
    for name in names:
        for trace in traces:
            rec = run_workload(name, args.seed, args.seconds, trace, env, env_record)
            records.append(rec)
            if args.results:
                with open(args.results, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec) + "\n")
    if len(records) == 1:
        final = {k: records[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}{'.trace' if r['trace'] else ''}.{k}": v
                        for r in records for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
