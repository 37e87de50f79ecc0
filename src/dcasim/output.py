"""CSV artifact writers.

Metadata travels in `#`-prefixed header lines; the body below them is free of
timestamps and fully determined by the run configuration, so identical
configs produce byte-identical files.
"""

from __future__ import annotations

from .analysis import ConvergenceTable, estimate_order
from .state import DiscreteState, MomentSeries


def _metadata_lines(md: dict) -> list[str]:
    return [f"# {key} = {md[key]}" for key in md]


def write_snapshot_csv(path: str, state: DiscreteState, metadata: dict):
    """One row per cell: center, concentration ``c_i``, step-function density (also ``c_i``)."""
    centers = state.grid.centers()
    with open(path, "w") as fh:
        for line in _metadata_lines({"t": state.t, **metadata}):
            fh.write(line + "\n")
        fh.write("x_center,c_i,f_eps\n")
        for x, c in zip(centers, state.c):
            v = repr(float(c))
            fh.write(f"{float(x)!r},{v},{v}\n")


def write_moments_csv(path: str, series: MomentSeries, metadata: dict):
    with open(path, "w") as fh:
        for line in _metadata_lines(metadata):
            fh.write(line + "\n")
        fh.write("t,M0,M1,M2,Y1,N_count,mass_defect_integral\n")
        rows = zip(series.times, series.M0, series.M1, series.M2,
                   series.Y1, series.N_count, series.defect_integral)
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_error_table_csv(path: str, table: ConvergenceTable, metadata: dict,
                          failures: dict):
    """Error ladder at one time, with the cumulative order estimate per row and
    a ``# failed`` header line per epsilon in ``failures`` (epsilon -> message)."""
    with open(path, "w") as fh:
        for line in _metadata_lines({"t": table.t, **metadata}):
            fh.write(line + "\n")
        for eps, msg in failures.items():
            fh.write(f"# failed epsilon={eps}: {msg}\n")
        fh.write("epsilon,t,E1,order_estimate_cumulative\n")
        for k, (eps, err) in enumerate(table.rows):
            if k >= 1:
                partial = ConvergenceTable(t=table.t, rows=table.rows[: k + 1])
                order = repr(estimate_order(partial))
            else:
                order = ""
            fh.write(f"{eps!r},{table.t!r},{err!r},{order}\n")


def snapshot_filename(t: float, kind: str = "snapshot") -> str:
    """``<kind>_t<t:g>.csv``, the one file label of a time; RunConfig rejects clashes."""
    return f"{kind}_t{t:g}.csv"
