"""One benchmark iteration in a fresh process.

    python3 perfbench/worker.py --workload NAME --trace 0|1 --out DIR

``dcasim`` must be importable (``run.py`` puts the checkout's ``src`` on
``PYTHONPATH``).  The script first imports ``dcasim.cli`` and reads the
system-wide monotonic clock, so the parent can time set-up from the moment it
spawned this process.  The last line of stdout is one JSON record.
"""

import time

import dcasim.cli

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import dcasim  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT_SPAN = "workload"


def install_tracer():
    """Wrap the layer entry points; return the tracer and its work counters."""
    tr = Tracer()
    counts = {"rhs.cell_evals": 0, "kernels.dense_bytes": 0}

    def count_cells(args, _result):
        counts["rhs.cell_evals"] += args[0].size

    def count_dense(_args, dk):
        counts["kernels.dense_bytes"] += dk.Kd.nbytes + dk.Cd.nbytes

    tr.patch(dcasim.cli.main, "cli.main")
    tr.patch(dcasim.runs.run_sweep, "runs.run_sweep")
    tr.patch(dcasim.runs.run_simulation, "runs.run_simulation")
    tr.patch(dcasim.kernels.discretize, "kernels.discretize", on_return=count_dense)
    tr.patch(dcasim.kernels.probe_hypotheses, "kernels.probe_hypotheses")
    tr.patch(dcasim.state.project_initial, "state.project_initial")
    tr.patch(dcasim.integrator.integrate, "integrator.integrate")
    tr.patch(dcasim.rhs.rhs_vector, "rhs.rhs_vector", hot=True, on_return=count_cells)
    tr.patch(dcasim.rhs.mass_defect_rate, "rhs.mass_defect_rate", hot=True)
    tr.patch(dcasim.analysis.rel_l1_error, "analysis.rel_l1_error")
    tr.patch(dcasim.analysis.brentq, "analysis.brentq", hot=True)
    tr.patch(dcasim.exact.exact_solution, "exact.exact_solution", hot=True)
    tr.patch(dcasim.analysis.moment_diagnostics, "analysis.moment_diagnostics")
    for writer in ("write_snapshot_csv", "write_moments_csv", "write_error_table_csv"):
        tr.patch(getattr(dcasim.output, writer), "output.write")
    return tr, counts


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    run, check = WORKLOADS[args.workload]

    tracer = counts = None
    if args.trace:
        tracer, counts = install_tracer()
        run = tracer.wrap(ROOT_SPAN, run)
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    result, work = run(args.out)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.unpatch()
        wall = tracer.total[ROOT_SPAN]
    usage = resource.getrusage(resource.RUSAGE_SELF)

    work["output.bytes"] = sum(os.path.getsize(os.path.join(d, f))
                               for d, _, files in os.walk(args.out) for f in files)
    try:
        checks = [list(c) for c in check(args.out, result)]
    except Exception as exc:  # missing or malformed output is a failed check
        checks = [["outputs readable", False, f"{type(exc).__name__}: {exc}"]]
    record = {
        "imported": IMPORTED,
        "dcasim_file": dcasim.__file__,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "cpu_user_s": usage.ru_utime - before.ru_utime,
        "cpu_sys_s": usage.ru_stime - before.ru_stime,
        "work": work,
        "checks": checks,
        "trace": None,
    }
    if tracer is not None:
        record["trace"] = {
            "calls": tracer.calls, "total": tracer.total, "self": tracer.self_s,
            "spans": [[name, start - tracer.spans[0][1], end - tracer.spans[0][1], parent]
                      for name, start, end, parent in tracer.spans],
            "work": {**counts,
                     "rhs.rhs_vector.calls": tracer.calls["rhs.rhs_vector"],
                     "rhs.mass_defect_rate.calls": tracer.calls["rhs.mass_defect_rate"],
                     "exact.exact_solution.calls": tracer.calls["exact.exact_solution"],
                     "analysis.root_solves": tracer.calls["analysis.brentq"]},
        }
    sys.stdout.flush()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
