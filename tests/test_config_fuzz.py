"""Seeded fuzz of the CLI's config handling: every config file, with up to
two flags, ends in a documented exit code, and no Python traceback escapes;
a flag of a setting the subcommand does not read, and a config file whose top
level is not a mapping, exit 2.

The value pools are bounded so that a run is cheap: every finite ``x_max``
with at least three cells is at most 20, every ``epsilon`` that passes with
it, from the config or ``--epsilon``, is at least 0.002 (so an accepted grid
has m <= 10**4), and every accepted snapshot time is at most 0.05.
"""

import math
import random

import pytest
import yaml

from dcasim.cli import (_FLAGS, _READS, EXIT_CONFIG, EXIT_INTEGRATOR, EXIT_OK,
                        EXIT_VALIDATION, main)

NAN, INF = math.nan, math.inf
# values that are wrong for every numeric key
JUNK = [NAN, INF, -INF, True, False, None, "abc", "0.1", [], [0.1], {}, {"a": 1}]
# key -> (values a run accepts, values it rejects)
POOLS = {
    "case": (["case1", "case2", "case3"], ["custom", "CASE1", "", 1, *JUNK]),
    "epsilon": ([0.5, 0.2, 0.1, 0.05, 0.01, 0.005, 0.002],
                [1.0, 0.0, -0.1, 2.0, 1e-300, 5e-324, *JUNK]),
    "epsilon_list": ([[0.2, 0.1], [0.1, 0.05, 0.02], [0.05, 0.002], [0.5, 0.2]],
                     [[0.2], [0.1, 0.2], [0.2, 0.2], [0.2, 1e-300], [0.2, 5e-324],
                      [0.2, NAN], [0.2, "x"], [0.2, None], [0.2, [0.1]], [1.0, 0.5],
                      0.1, "0.1", *JUNK]),
    "x_max": ([5.0, 10.0, 20.0, 2.5, 3],
              [1.0, 0.3, 0.0, -5.0, 1e9, 1e300, 1e-300, *JUNK]),
    "snapshot_times": ([[0.01], [0.0], [0.02, 0.01], [0.05], [0.01, 0.01], [1e-300]],
                       [[0.01, 0.0100000001], [], [-0.01], [NAN], [INF], ["a"], [True],
                        [None], [[0.01]], 0.01, "0.01", *JUNK]),
    "M": ([3.0, 5.0, 0.5, 1e-300, 1e300], [0.0, -1.0, 1e-310, *JUNK]),
    "lam": ([0.0, 0.5, 1.0, 1e-300], [1.5, -0.1, *JUNK]),
    "kernel": ([{}, {"K": "constant"}, {"K": "product", "C": "product"},
                {"K": "sum", "L": 0.5}, {"K": "product", "C": "constant", "C_value": 0.5},
                {"C": "sum", "C_value": 0.2}, {"L": 0.0, "C_value": 1.0},
                {"declared_bounds": {}}, {"declared_bounds": None}],
               [{"K": "bogus"}, {"K": None}, {"K": ["product"]}, {"L": NAN}, {"L": -1.0},
                {"L": True}, {"C_value": "x"}, {"declared_bounds": {"A2": NAN}},
                {"declared_bounds": {"A1": 1.0}}, {"declared_bounds": {"M_cal": 2.0}},
                {"declared_bounds": "x"},
                {"declared_bounds": [1]}, {"foo": 1}, {"kernel": {}}, "constant", [1, 2],
                5, *JUNK]),
    "rtol": ([1e-6, 1e-3, 0.1, 1e300], [0.0, -1.0, *JUNK]),
    "atol": ([1e-10, 1e-6, 1.0, 1e300], [0.0, -1.0, *JUNK]),
    "output_dir": (["{tmp}/other"], [None, 5, True, ["out"], "", "{blocker}/out"]),
    "unknown_key": ([], [1]),
}
# the keys each subcommand draws from: the settings it reads; one config in eight
# adds ``unknown_key`` as well, a key no command knows
KEYS = {command: sorted(reads) for command, reads in _READS.items()}
# flag -> (values a run accepts, values it rejects), as typed; the tolerances
# and lambda accept 1e-300 and 5e-324, and lambda is case 2's only
NOT_NUMBERS = ["nan", "inf", "-1", "abc"]
FLAG_POOLS = {
    "--epsilon": (["0.1", "0.05", "0.002"], ["0", "1", "1e-300", "5e-324", *NOT_NUMBERS]),
    "--lambda": (["0", "0.5", "1", "1e-300", "5e-324"], ["1.5", *NOT_NUMBERS]),
    "--rtol": (["1e-6", "1e-3", "1e-300", "5e-324"], ["0", *NOT_NUMBERS]),
    "--atol": (["1e-10", "1e-6", "1e-300", "5e-324"], ["0", *NOT_NUMBERS]),
    "--case": (["case1", "case2", "case3"], ["custom", "CASE1"]),
}
# the flags each subcommand draws from: those that set a setting it reads
FLAGS = {command: [flag for flag in sorted(FLAG_POOLS) if _FLAGS[flag][0] in reads]
         for command, reads in _READS.items()}
# the flags each subcommand's parser lacks, one of which a draw adds one time in
# eight; simulate reads every flag's setting, so it lacks none
UNREAD_FLAGS = {command: [flag for flag, (name, _) in sorted(_FLAGS.items()) if name not in reads]
                for command, reads in _READS.items()}
# what a subcommand that integrates starts from, unless the draw replaces it
BASE = {"simulate": {"epsilon": 0.1, "x_max": 5.0, "snapshot_times": [0.01]},
        "sweep": {"x_max": 5.0, "snapshot_times": [0.01]}, "validate": {}}
# what one draw in eight writes instead of the whole config
NON_MAPPINGS = [[], [{"case": "case1"}], False, 0, "case: case1", ""]
DOCUMENTED = {EXIT_OK, EXIT_CONFIG, EXIT_INTEGRATOR, EXIT_VALIDATION}


def _pick(rng, pool):
    """A value from an (accepted, rejected) pool, a rejected one one time in four."""
    accepted, rejected = pool
    return rng.choice(rejected if not accepted or rng.random() < 0.25 else accepted)


def _draw(rng, tmp_path):
    """A subcommand, a config that sets one to three keys it reads, each wrong one
    time in four, zero to two flags, and whether the draw must exit 2: an unread
    flag added, or the config replaced by a non-mapping, each one time in eight.

    ``lam`` is rejected off case 2 and beside a ``kernel:`` block, so a drawn
    ``lam`` key keeps a drawn block one time in four, and a drawn ``lam``, key
    or ``--lambda`` flag, comes with case 2 seven times in eight: in the config,
    and in a drawn ``--case`` flag, which would override it.
    """
    command = rng.choice(sorted(KEYS))
    config = dict(BASE[command])
    if command != "validate":
        config["output_dir"] = str(tmp_path / "out")
    keys = rng.sample(KEYS[command], rng.randint(1, 3))
    if {"lam", "kernel"} <= set(keys) and rng.random() < 0.75:
        keys.remove(rng.choice(["lam", "kernel"]))
    if rng.random() < 0.125:
        keys.append("unknown_key")
    for key in keys:
        value = _pick(rng, POOLS[key])
        if isinstance(value, str) and "{" in value:
            value = value.format(blocker=tmp_path / "file", tmp=tmp_path)
        config[key] = value
    flags = {flag: _pick(rng, FLAG_POOLS[flag])
             for flag in rng.sample(FLAGS[command], rng.randint(0, 2))}
    if ("lam" in keys or "--lambda" in flags) and rng.random() < 0.875:
        config["case"] = "case2"
        if "--case" in flags:
            flags["--case"] = "case2"
    unread = bool(UNREAD_FLAGS[command]) and rng.random() < 0.125
    if unread:
        flags[rng.choice(UNREAD_FLAGS[command])] = "0.1"     # a value each would take
    whole = rng.random() < 0.125
    if whole:
        config = rng.choice(NON_MAPPINGS)
    return command, config, [arg for flag in flags.items() for arg in flag], unread or whole


@pytest.mark.parametrize("seed", range(4))
def test_config_fuzz_exits_with_documented_code(tmp_path, capsys, seed):
    (tmp_path / "file").write_text("")      # a path below it cannot be created
    rng = random.Random(seed)
    path = tmp_path / "config.yaml"
    for _ in range(100):
        command, config, flags, refused = _draw(rng, tmp_path)
        path.write_text(yaml.safe_dump(config))
        try:
            code = main([command, "--config", str(path), *flags])
        except SystemExit as exc:            # argparse
            code = exc.code
        except Exception as exc:            # noqa: BLE001 -- report the config that raised
            pytest.fail(f"{command} {config!r} {flags} raised {exc!r}")
        captured = capsys.readouterr()
        assert code in DOCUMENTED, (command, config, flags, captured.err)
        assert code == EXIT_CONFIG or not refused, (command, config, flags, captured.err)
        assert "Traceback" not in captured.out + captured.err, (command, config, flags)
