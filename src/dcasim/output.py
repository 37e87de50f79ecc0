"""CSV artifact writers.

Metadata travels in `#`-prefixed header lines; the body below them is free of
timestamps and fully determined by the run configuration, so identical
configs produce byte-identical files.
"""

from __future__ import annotations

from .analysis import estimate_order
from .state import DiscreteState, MomentSeries


def _write_csv(path: str, metadata: dict, header: str, lines, notes=()):
    """Write ``# key = value`` per metadata entry, the ``notes`` (whole comment lines),
    the column header and the row ``lines``, which end in their own newline."""
    with open(path, "w") as fh:
        fh.writelines(f"# {key} = {value}\n" for key, value in metadata.items())
        fh.writelines(note + "\n" for note in notes)
        fh.write(header + "\n")
        fh.writelines(lines)


def write_snapshot_csv(path: str, state: DiscreteState, metadata: dict):
    """One row per cell: center, concentration ``c_i``, step-function density (also ``c_i``)."""
    values = map(repr, state.c.tolist())   # Python floats, one call: float(c_i)'s repr
    _write_csv(path, {"t": state.t, **metadata}, "x_center,c_i,f_eps",
               (f"{x!r},{v},{v}\n" for x, v in zip(state.grid.centers().tolist(), values)))


def write_moments_csv(path: str, series: MomentSeries, metadata: dict):
    rows = zip(series.times, series.M0, series.M1, series.M2,
               series.Y1, series.N_count, series.defect_integral)
    _write_csv(path, metadata, "t,M0,M1,M2,Y1,N_count,mass_defect_integral",
               (",".join(repr(float(v)) for v in row) + "\n" for row in rows))


def write_error_table_csv(path: str, t: float, rows: list, metadata: dict, failures: dict):
    """The ``(epsilon, E1)`` rows at time ``t``, with the cumulative order estimate per
    row and a ``# failed`` line per epsilon in ``failures`` (epsilon -> message)."""
    lines = (f"{eps!r},{t!r},{err!r},{repr(estimate_order(rows[:k + 1])) if k else ''}\n"
             for k, (eps, err) in enumerate(rows))
    _write_csv(path, {"t": t, **metadata}, "epsilon,t,E1,order_estimate_cumulative", lines,
               notes=[f"# failed epsilon={eps}: {msg}" for eps, msg in failures.items()])


def snapshot_filename(t: float, kind: str = "snapshot") -> str:
    """``<kind>_t<t:g>.csv``, the one file label of a time; RunConfig rejects clashes."""
    return f"{kind}_t{t:g}.csv"
