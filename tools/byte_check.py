"""Byte check of the CLI's outputs: a parent commit against this checkout.

Run from anywhere inside the repository:

    python tools/byte_check.py PARENT

It checks PARENT out with ``git worktree`` into a temporary directory and
runs the CLI runs of ``RUNS`` on both sides, each side's ``src`` first on the
import path.  For every run it compares the exit code, stdout and stderr (the
side's output directory read as ``<out>``) and the sha256 of every file
written; for ``simulate-fine`` it also compares the accepted and rejected
steps and ``rhs_evals`` that ``moments.csv`` records.  It prints one line per
run, and for a CSV that differs, per column, the number of differing cells
and the largest relative difference.  It exits 0 when nothing differs, 1 on
any difference and 2 when PARENT cannot be checked out.  Standard library
only; both sides need numpy and pyyaml.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_KERNEL = "epsilon: 0.02\nkernel: {%s}\n"
# name -> (CLI arguments, YAML config or None); simulate and sweep get --out
RUNS = {
    "sweep-case1": (["sweep", "--case", "case1"], None),
    "sweep-case3": (["sweep", "--case", "case3"], None),
    "simulate-fine": (["simulate", "--case", "case1", "--epsilon", "0.002"], None),
    "case2-lam0.5": (["simulate", "--case", "case2", "--lambda", "0.5", "--epsilon", "0.02"],
                     None),
    # x_max on the last cell's right edge: the projection's tail is empty
    "case1-no-tail": (["simulate", "--case", "case1", "--epsilon", "0.05"], "x_max: 10.025\n"),
    # each family as K and as C, tied (K = C) and untied
    "kernel-constant-tied": (["simulate"], _KERNEL % "K: constant, C: constant"),
    "kernel-product-tied": (["simulate"], _KERNEL % "K: product, C: product"),
    "kernel-sum-tied": (["simulate"], _KERNEL % "K: sum, C: sum"),
    "kernel-constant-product": (["simulate"], _KERNEL % "K: constant, C: product, C_value: 0.5"),
    "kernel-product-sum": (["simulate"], _KERNEL % "K: product, C: sum, C_value: 0.5"),
    "kernel-sum-constant": (["simulate"], _KERNEL % "K: sum, C: constant, C_value: 0.5"),
    # a null bound set reads as none
    "kernel-bounds-null": (["simulate"], _KERNEL % "declared_bounds: null"),
    # K = C = xy gels on case 3's profile; past it a step goes negative and is clamped
    "case3-product-clamps": (["simulate"], "case: case3\n" + _KERNEL % "K: product, C: product"),
    # integer settings: every header reads them as floats (x_max = 10.0, t = 1.0, L = 2.0)
    "integer-settings": (["simulate"], "epsilon: 0.05\nx_max: 10\nsnapshot_times: [1, 2]\n"
                                       "kernel: {L: 2}\n"),
    "validate-product-constant": (["validate"], "kernel: {K: product, C: constant}\n"),
    "validate-case1": (["validate", "--case", "case1"], None),
}
_STEP_KEYS = ("accepted", "rejected", "rhs_evals")


def _git(*args) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _run_side(src: str, out_root: str, configs: str) -> dict:
    """name -> (exit code, stdout, stderr, {file name: bytes}) of every run."""
    env = dict(os.environ, PYTHONPATH=src)
    where = subprocess.run([sys.executable, "-c", "import dcasim; print(dcasim.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not where.startswith(src + os.sep):
        sys.exit(f"byte check: dcasim imports from {where.strip()}, not from {src}")
    results = {}
    for name, (args, config) in RUNS.items():
        out = os.path.join(out_root, name)
        argv = [sys.executable, "-m", "dcasim.cli", *args]
        if config is not None:
            argv += ["--config", os.path.join(configs, name + ".yaml")]
        if args[0] != "validate":
            argv += ["--out", out]
        proc = subprocess.run(argv, env=env, cwd=out_root, capture_output=True, text=True)
        files = {}
        if os.path.isdir(out):
            for file in sorted(os.listdir(out)):
                with open(os.path.join(out, file), "rb") as fh:
                    files[file] = fh.read()
        results[name] = (proc.returncode, *(s.replace(out_root, "<out>")
                                            for s in (proc.stdout, proc.stderr)), files)
    return results


def _table(text: str):
    """(metadata {key: value}, column names, rows) of a CSV that dcasim writes."""
    lines = text.splitlines()
    meta = dict(line[1:].strip().partition(" = ")[::2] for line in lines if line.startswith("#"))
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return meta, (body[0] if body else []), body[1:]


def _rel(a: str, b: str):
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    return abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0


def csv_differences(old: bytes, new: bytes) -> list:
    """What differs between two CSVs: metadata entries, then cells per column."""
    (meta_a, cols_a, rows_a), (meta_b, cols_b, rows_b) = (_table(t.decode()) for t in (old, new))
    found = [f"# {key}: {meta_a.get(key)} -> {meta_b.get(key)}"
             for key in sorted(set(meta_a) | set(meta_b)) if meta_a.get(key) != meta_b.get(key)]
    if cols_a != cols_b or len(rows_a) != len(rows_b):
        return found + [f"columns {cols_a} -> {cols_b}, {len(rows_a)} -> {len(rows_b)} rows"]
    for j, col in enumerate(cols_a):
        pairs = [(a[j], b[j]) for a, b in zip(rows_a, rows_b) if a[j] != b[j]]
        if pairs:
            rels = [_rel(a, b) for a, b in pairs]
            worst = ("not numeric" if None in rels
                     else f"largest relative difference {max(rels):.2g}")
            found.append(f"{col}: {len(pairs)} of {len(rows_a)} cells differ, {worst}")
    return found


def _steps(files: dict) -> dict:
    meta = _table(files["moments.csv"].decode())[0] if "moments.csv" in files else {}
    return {key: meta.get(key) for key in _STEP_KEYS}


def compare(parent: dict, head: dict) -> int:
    """Print one line per run and the differences under it; the number of runs that differ."""
    differing = 0
    for name in RUNS:
        code_a, out_a, err_a, files_a = parent[name]
        code_b, out_b, err_b, files_b = head[name]
        found = []
        if code_a != code_b:
            found.append(f"exit code {code_a} -> {code_b}")
        found += [f"{stream} differs" for stream, a, b in
                  (("stdout", out_a, out_b), ("stderr", err_a, err_b)) if a != b]
        for file in sorted(set(files_a) | set(files_b)):
            a, b = files_a.get(file), files_b.get(file)
            if a is None or b is None:
                found.append(f"{file}: written only {'here' if a is None else 'at the parent'}")
            elif hashlib.sha256(a).digest() != hashlib.sha256(b).digest():
                found += [f"{file}: {line}" for line in
                          (csv_differences(a, b) if file.endswith(".csv") else ["differs"])]
        steps = ""
        if name == "simulate-fine":
            steps_a, steps_b = _steps(files_a), _steps(files_b)
            if steps_a != steps_b:
                found.append(f"steps {steps_a} -> {steps_b}")
            steps = "".join(f", {key} {value}" for key, value in steps_b.items())
        verdict = "DIFFERS" if found else "same"
        print(f"{name:<26} {verdict:<8} exit {code_b}, {len(files_b)} files{steps}")
        for detail in found:
            print("    " + detail)
        differing += bool(found)
    return differing


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix="byte_check_")
    parent_dir = os.path.join(tmp, "parent")
    try:
        try:
            sha = _git("rev-parse", "--verify", "--short", argv[0] + "^{commit}")
            _git("worktree", "add", "--detach", parent_dir, sha)
        except subprocess.CalledProcessError as exc:
            print(f"byte check: cannot check out {argv[0]}: {exc.stderr.strip()}",
                  file=sys.stderr)
            return 2
        configs = os.path.join(tmp, "configs")
        os.mkdir(configs)
        for name, (_, config) in RUNS.items():
            if config is not None:
                with open(os.path.join(configs, name + ".yaml"), "w") as fh:
                    fh.write(config)
        print(f"byte check: {argv[0]} ({sha}) against this checkout, {len(RUNS)} runs")
        sides = []
        for label, root in (("parent", parent_dir), ("head", ROOT)):
            out_root = os.path.join(tmp, "out-" + label)
            os.mkdir(out_root)
            sides.append(_run_side(os.path.join(root, "src"), out_root, configs))
        differing = compare(*sides)
    finally:
        if os.path.isdir(parent_dir):
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", parent_dir],
                           capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{differing} of {len(RUNS)} runs differ" if differing else "no difference")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
