import pickle

import numpy as np
import pytest

import dcasim.runs
from dcasim.integrator import IntegrationError
from dcasim.kernels import KernelSpec
from dcasim.runs import (RunConfig, exact_case_for, kernel_for_case,
                         run_simulation, run_sweep)

FAST = dict(epsilon=0.2, t_max=1.0, snapshot_times=(0.5, 1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(epsilon_list=(0.01, 0.05))       # must decrease
    with pytest.raises(ValueError):
        RunConfig(epsilon_list=(0.05, 0.0))        # outside (0, 1)
    with pytest.raises(ValueError):
        RunConfig(snapshot_times=(3.0,), t_max=2.5)


def test_kernel_for_case():
    assert kernel_for_case(RunConfig(case="case1")).lam == 1.0
    assert kernel_for_case(RunConfig(case="case3")).lam == 0.0
    assert kernel_for_case(RunConfig(case="case2", lam=0.75)).lam == 0.75
    with pytest.raises(ValueError):
        kernel_for_case(RunConfig(case="custom"))
    spec = KernelSpec(family_K="sum", family_C="sum")
    assert kernel_for_case(RunConfig(case="custom", kernel=spec)) is spec


def test_exact_case_for():
    assert exact_case_for(RunConfig(case="case1")).id == "case1"
    assert exact_case_for(RunConfig(case="case2", lam=0.5)).lam == 0.5
    assert exact_case_for(RunConfig(case="custom",
                                    kernel=KernelSpec())) is None


def test_run_simulation_requires_epsilon():
    with pytest.raises(ValueError):
        run_simulation(RunConfig(case="case1"))


def test_run_simulation_collects_everything():
    run = run_simulation(RunConfig(case="case1", **FAST))
    assert [s.t for s in run.snapshots] == [0.5, 1.0]
    assert len(run.moments.times) == 3          # t=0 plus two snapshots
    assert run.moments.times[0] == 0.0
    assert run.hypotheses_verified
    md = run.metadata()
    assert md["case"] == "case1"
    assert md["m"] == run.dk.grid.m
    assert md["hypotheses"] == "verified"
    assert md["accepted"] > 0


def test_run_simulation_tags_unverified_kernels():
    spec = KernelSpec(family_K="product", family_C="product")
    run = run_simulation(RunConfig(case="case1", **FAST), spec=spec)
    assert not run.hypotheses_verified
    assert run.metadata()["hypotheses"] == "hypotheses-unverified"


def test_number_count_decays_monotonically():
    run = run_simulation(RunConfig(case="case1", **FAST))
    m0 = run.moments.M0
    assert all(b < a for a, b in zip(m0, m0[1:]))


def test_sweep_needs_two_epsilons():
    with pytest.raises(ValueError):
        run_sweep(RunConfig(case="case1", epsilon_list=(0.05,)))


def test_sweep_needs_closed_form():
    cfg = RunConfig(case="case2", lam=0.5, epsilon_list=(0.2, 0.1), **{
        k: v for k, v in FAST.items() if k != "epsilon"})
    with pytest.raises(ValueError):
        run_sweep(cfg)


def test_sweep_tabulates_errors_per_time():
    cfg = RunConfig(case="case1", epsilon_list=(0.2, 0.1), t_max=1.0,
                    snapshot_times=(0.5, 1.0))
    res = run_sweep(cfg)
    assert res.failures == {}
    assert set(res.tables) == {0.5, 1.0}
    for table in res.tables.values():
        assert [eps for eps, _ in table.rows] == [0.2, 0.1]
        errs = [err for _, err in table.rows]
        assert errs[1] < errs[0]        # refinement reduces the error


def test_sweep_records_integrator_failures(monkeypatch):
    def fail(cfg, epsilon=None):
        raise IntegrationError("step size underflow at t=0.5")

    monkeypatch.setattr(dcasim.runs, "run_simulation", fail)
    res = run_sweep(RunConfig(case="case1", epsilon_list=(0.2, 0.1), t_max=1.0,
                              snapshot_times=(1.0,)))
    assert res.runs == {}
    assert res.failures[0.2] == "IntegrationError: step size underflow at t=0.5"


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(cfg, epsilon=None):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(dcasim.runs, "run_simulation", broken)
    with pytest.raises(TypeError):
        run_sweep(RunConfig(case="case1", epsilon_list=(0.2, 0.1), t_max=1.0,
                            snapshot_times=(1.0,)))


def test_run_pickles_without_dense_matrices():
    # what a sweep worker sends back to the parent: O(m), not the 64 MB of
    # two m = 1999 kernel matrices
    run = run_simulation(RunConfig(case="case1"), epsilon=0.005)
    assert len(pickle.dumps(run)) < 1_000_000


def test_sweep_threads_match_serial():
    cfg_base = dict(case="case1", epsilon_list=(0.2, 0.1), t_max=1.0,
                    snapshot_times=(1.0,))
    serial = run_sweep(RunConfig(threads=1, **cfg_base))
    parallel = run_sweep(RunConfig(threads=2, **cfg_base))
    assert serial.tables[1.0].rows == parallel.tables[1.0].rows
    for eps in (0.2, 0.1):
        np.testing.assert_array_equal(serial.runs[eps].snapshots[0].c,
                                      parallel.runs[eps].snapshots[0].c)
