"""dcasim benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout; the program is imported from its ``src``.
Each iteration of a workload is a fresh ``worker.py`` process (closed loop,
one at a time, ``threads=1``, BLAS threads left at their default).
Iterations repeat until the run is as close to ``--seconds`` long as whole
iterations allow.

``--trace 0`` reports the end-to-end metrics, each the median over the
iterations: ``wall_s`` (first call into dcasim to the last result),
``setup_s`` (process spawn until ``import dcasim.cli`` returns) and
``peak_rss_mb`` (``ru_maxrss`` of the iteration's process).  ``--trace 1``
alternates untraced and traced iterations (the seed picks which comes
first), adds ``python -X importtime`` runs, and reports the per-layer
metrics.  Failed iterations count in ``failed``; work counts that do not
repeat exactly, across iterations or between traced and untraced ones, make
the result incorrect.  The last stdout line is the result object; the line
before it is a summary with the environment, sample counts, quartiles and
work counts.  ``--selftest`` runs each workload once traced and once
untraced and checks the metric names, units, correctness checks and trace
accounting.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, "_work")
WORKLOADS = ("sweep-ladders", "simulate-fine", "product-riccati")
# Every run must end within 180 s; no iteration starts that could cross this.
RUN_BUDGET_S = 150.0
IMPORTTIME_RUNS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "analysis.rel_l1_error.s": "s",
    "analysis.rel_l1_error.self_s": "s",
    "analysis.root_solves": "count",
    "exact.exact_solution.calls": "count",
    "exact.exact_solution.s": "s",
    "import.dcasim.s": "s",
    "import.scipy_optimize.s": "s",
    "rhs.rhs_vector.calls": "count",
    "rhs.rhs_vector.s": "s",
    "rhs.rhs_vector.ns_per_cell": "ns/cell",
    "rhs.cell_evals": "count",
    "kernels.discretize.s": "s",
    "kernels.dense_mb": "MB",
    "kernels.probe_hypotheses.s": "s",
    "state.project_initial.s": "s",
    "rhs.mass_defect_rate.calls": "count",
    "rhs.mass_defect_rate.s": "s",
    "integrator.integrate.s": "s",
    "integrator.self_s": "s",
    "integrator.accepted": "count",
    "integrator.rejected": "count",
    "integrator.rhs_evals": "count",
    "integrator.accept_ratio": "ratio",
    "runs.run_sweep.self_s": "s",
    "runs.run_simulation.self_s": "s",
    "cli.main.self_s": "s",
    "output.write.s": "s",
    "output.bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.unattributed_share": "ratio",
}


class BenchError(RuntimeError):
    """The program cannot be benchmarked from this directory."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_PROBE = r"""
import ctypes, glob, json, os
import dcasim, dcasim.cli, numpy, scipy
info = {"dcasim_file": dcasim.__file__, "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas_config": None, "openblas_threads": None}
libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                cfg = getattr(lib, f"{prefix}_get_config{suffix}")
                nth = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            cfg.restype, nth.restype = ctypes.c_char_p, ctypes.c_int
            info["openblas_config"] = cfg().decode()
            info["openblas_threads"] = nth()
print(json.dumps(info))
"""


def probe_program():
    """Import dcasim from this checkout once (also warms the bytecode cache)."""
    if not os.path.isfile(os.path.join(SRC, "dcasim", "cli.py")):
        raise BenchError(f"no dcasim sources under {SRC}")
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"cannot import dcasim from {SRC}: {proc.stderr.strip()[-500:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.realpath(info["dcasim_file"]).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"dcasim imported from {info['dcasim_file']}, not from {SRC}")
    return info


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(probe):
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(d, f)) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "python": sys.version.split()[0],
        "numpy": probe["numpy"],
        "scipy": probe["scipy"],
        "openblas": probe["openblas_config"],
        "openblas_threads": probe["openblas_threads"],
        # thread settings, and whether set-up compiles dcasim on every start
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "git_sha": git_sha(),
    }


def git_sha():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if not head:
        return "unavailable (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(git, ref))
    if sha:
        return sha
    for line in (_read(os.path.join(git, "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return head


def run_iteration(workload, trace, deadline):
    """One worker process; returns its record, or a dict with an ``error``."""
    os.makedirs(WORK_DIR, exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--trace", str(int(trace)), "--out", out]
    try:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"trace": trace, "error": "timed out"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        return {"trace": trace, "error": f"exit {proc.returncode}: {stderr.strip()[-800:]}"}
    rec = json.loads(stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec.pop("imported") - spawned
    failed = [c for c in rec["checks"] if not c[1]]
    if not rec["checks"]:
        rec["error"] = "no correctness check ran"
    elif failed:
        rec["error"] = "check failed: " + "; ".join(f"{n} ({d})" for n, ok, d in failed)
    return rec


def import_times(runs):
    """``python -X importtime`` medians for dcasim and scipy.optimize."""
    dcasim_s, scipy_s = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dcasim.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        top, opt = 0, 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                cumulative = int(parts[1])
            except ValueError:
                continue            # the header line
            name = parts[2][1:]
            if name.startswith("dcasim"):    # top level: no indent
                top += cumulative
            elif name.strip() == "scipy.optimize":
                opt = cumulative
        dcasim_s.append(top / 1e6)
        scipy_s.append(opt / 1e6)
    return statistics.median(dcasim_s), statistics.median(scipy_s)


def spread(values):
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def layer_values(rec):
    """Per-layer metrics of one traced iteration."""
    tr = rec["trace"]
    total, self_s = tr["total"], tr["self"]
    w, tw = rec["work"], tr["work"]
    steps = w["integrator.accepted"] + w["integrator.rejected"]
    return {
        "analysis.rel_l1_error.s": total["analysis.rel_l1_error"],
        "analysis.rel_l1_error.self_s": self_s["analysis.rel_l1_error"],
        "analysis.root_solves": tw["analysis.root_solves"],
        "exact.exact_solution.calls": tw["exact.exact_solution.calls"],
        "exact.exact_solution.s": total["exact.exact_solution"],
        "rhs.rhs_vector.calls": tw["rhs.rhs_vector.calls"],
        "rhs.rhs_vector.s": total["rhs.rhs_vector"],
        "rhs.rhs_vector.ns_per_cell": 1e9 * total["rhs.rhs_vector"] / tw["rhs.cell_evals"],
        "rhs.cell_evals": tw["rhs.cell_evals"],
        "kernels.discretize.s": total["kernels.discretize"],
        "kernels.dense_mb": tw["kernels.dense_bytes"] / 1e6,
        "kernels.probe_hypotheses.s": total["kernels.probe_hypotheses"],
        "state.project_initial.s": total["state.project_initial"],
        "rhs.mass_defect_rate.calls": tw["rhs.mass_defect_rate.calls"],
        "rhs.mass_defect_rate.s": total["rhs.mass_defect_rate"],
        "integrator.integrate.s": total["integrator.integrate"],
        "integrator.self_s": self_s["integrator.integrate"],
        "integrator.accepted": w["integrator.accepted"],
        "integrator.rejected": w["integrator.rejected"],
        "integrator.rhs_evals": w["integrator.rhs_evals"],
        "integrator.accept_ratio": w["integrator.accepted"] / steps if steps else 0.0,
        "runs.run_sweep.self_s": self_s["runs.run_sweep"],
        "runs.run_simulation.self_s": self_s["runs.run_simulation"],
        "cli.main.self_s": self_s["cli.main"],
        "output.write.s": total["output.write"],
        "output.bytes": w["output.bytes"],
        "trace.unattributed_share": self_s["workload"] / total["workload"],
    }


def work_mismatches(good):
    """Work counts must repeat exactly across iterations and trace modes."""
    problems = []
    ref = good[0]["work"]
    for rec in good[1:]:
        if rec["work"] != ref:
            problems.append(f"work counts differ between iterations: {ref} vs {rec['work']}")
    traced = [r for r in good if r["trace"]]
    for rec in traced[1:]:
        if rec["trace"]["work"] != traced[0]["trace"]["work"]:
            problems.append("traced work counts differ between iterations: "
                            f"{traced[0]['trace']['work']} vs {rec['trace']['work']}")
    for rec in traced:
        tw = rec["trace"]["work"]
        pairs = (("rhs.cell_evals", tw["rhs.cell_evals"], ref["rhs.cell_evals"]),
                 ("kernels.dense_bytes", tw["kernels.dense_bytes"], ref["kernels.dense_bytes"]),
                 ("rhs.rhs_vector.calls", tw["rhs.rhs_vector.calls"], ref["integrator.rhs_evals"]))
        problems += [f"{name}: traced {a} != untraced {b}" for name, a, b in pairs if a != b]
    return problems


def self_time_check(rec):
    """Self times of a traced iteration must add up to its traced wall time."""
    tr = rec["trace"]
    total = tr["total"]["workload"]
    summed = sum(tr["self"].values())
    return abs(summed - total) <= 1e-6 * max(1.0, total), summed, total


def measure(workload, seed, seconds, trace):
    """Run the closed loop; return (result object, summary)."""
    probe = probe_program()
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    imports = import_times(IMPORTTIME_RUNS) if trace else None
    traced_next = trace and random.Random(seed).random() < 0.5
    records, durations = [], []
    while True:
        if records:
            if time.monotonic() + 1.5 * max(durations) > deadline:
                break
            # stop where the run ends nearest to `seconds`
            full = time.monotonic() - start + statistics.median(durations) / 2 >= seconds
            kinds = {bool(r["trace"]) for r in records}
            if full and (not trace or kinds == {True, False}):
                break
        t0 = time.monotonic()
        records.append(run_iteration(workload, traced_next, deadline))
        durations.append(time.monotonic() - t0)
        traced_next = trace and not traced_next

    # iterations that failed a check still measured their run; crashed ones did not
    measured = [r for r in records if "wall_s" in r]
    good = [r for r in measured if "error" not in r]
    problems = [r["error"] for r in records if "error" in r]
    if good:
        problems += work_mismatches(good)
    plain = [r for r in measured if not r["trace"]]
    traced = [r for r in measured if r["trace"]]
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "environment": environment(probe),
        "attempted": len(records), "ops_failed": (len(records) - len(good)) / len(records),
        "work": good[0]["work"] if good else None,
        "problems": problems,
    }
    if not plain or (trace and not traced):
        raise BenchError("no iteration ran to the end: " + "; ".join(problems[:3]))

    if trace:
        per_iter = [layer_values(r) for r in traced]
        metrics = {}
        for k in per_iter[0]:
            values = [v[k] for v in per_iter]
            # counts repeat exactly (checked above) and stay integers
            metrics[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
        metrics["import.dcasim.s"], metrics["import.scipy_optimize.s"] = imports
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        checks = [self_time_check(r) for r in traced]
        problems += [f"self times sum to {s:.6f} s, traced wall is {t:.6f} s"
                     for ok, s, t in checks if not ok]
        summary["traced_work"] = traced[0]["trace"]["work"]
        summary["spans"] = traced[0]["trace"]["spans"]
        summary["self_s"] = {k: statistics.median(r["trace"]["self"][k] for r in traced)
                             for k in traced[0]["trace"]["self"]}
        summary["samples"] = {"traced": len(traced), "untraced": len(plain),
                              "importtime": IMPORTTIME_RUNS}
        units = PER_LAYER
    else:
        metrics = {}
        for name in END_TO_END:
            dist = spread([r[name] for r in plain])
            summary[name] = dist
            metrics[name] = dist["median"]
        summary["cpu_s"] = spread([r["cpu_user_s"] + r["cpu_sys_s"] for r in plain])
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(records) - len(good),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, summary


def selftest():
    """Each workload once untraced and once traced, with every check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    want = {"e2e": {m["name"]: m["unit"] for m in declared["end_to_end"]},
            "layer": {m["name"]: m["unit"] for m in declared["per_layer"]}}
    failures = []
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads differ from {WORKLOADS}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.monotonic()
            result, summary = measure(workload, seed=0, seconds=0, trace=trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expected = want["layer" if trace else "e2e"]
            if got != expected:
                failures.append(f"{workload} trace={trace}: metrics/units {got} != {expected}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace={trace}: {summary['problems']}")
            line = f"{workload:16s} trace={trace} {time.monotonic() - t0:6.1f} s  "
            if trace:
                m = result["metrics"]
                line += (f"unattributed {m['trace.unattributed_share']['value']:.2%}, "
                         f"overhead {m['trace.overhead_s']['value']:+.3f} s, top self: ")
                top = sorted(summary["self_s"].items(), key=lambda kv: -kv[1])[:4]
                line += ", ".join(f"{k} {v:.3f}" for k, v in top)
            else:
                line += ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                                  for k, v in result["metrics"].items())
            print(line, flush=True)
    for f in failures:
        print("FAIL", f)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            p.error("--workload is required")
        result, summary = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
