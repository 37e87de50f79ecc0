import pickle

import pytest

import dcasim.runs
from dcasim.exact import CASE_IDS
from dcasim.integrator import IntegrationError
from dcasim.kernels import KernelSpec
from dcasim.runs import RunConfig, run_simulation, run_sweep

FAST = dict(epsilon=0.2, snapshot_times=(0.5, 1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(epsilon_list=(0.01, 0.05))       # must decrease
    with pytest.raises(ValueError):
        RunConfig(epsilon_list=(0.05, 0.0))        # outside (0, 1)
    with pytest.raises(ValueError):
        RunConfig(snapshot_times=(-1.0, 1.0))
    for bad in ({"x_max": float("inf")}, {"x_max": True}, {"rtol": float("nan")},
                {"snapshot_times": (float("inf"),)}, {"epsilon_list": (0.1, False)},
                {"snapshot_times": 1.0}):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    # a run reads the declared bound M_cal (CH2); A1 and A2 feed only moment_diagnostics
    spec = KernelSpec(declared_bounds={"M_cal": 2.0})
    assert RunConfig(kernel=spec).kernel is spec
    # snapshot times are stored sorted, without repeats
    assert RunConfig(snapshot_times=[2.5, 1.0, 2.5, 0]).snapshot_times == (0.0, 1.0, 2.5)


def test_kernel_for_case():
    # each case runs K = 1 and a constant C = lam: 1, lam (default 1), 0
    assert RunConfig(case="case1").kernel_pair() == KernelSpec(C_value=1.0)
    assert RunConfig(case="case3").kernel_pair() == KernelSpec(C_value=0.0)
    assert RunConfig(case="case2").kernel_pair() == KernelSpec(C_value=1.0)
    assert RunConfig(case="case2", lam=0.75).kernel_pair() == KernelSpec(C_value=0.75)
    with pytest.raises(ValueError):
        RunConfig(case="custom")
    spec = KernelSpec(family_K="sum", family_C="sum")
    for case in CASE_IDS:       # a kernel block replaces the case's own pair
        assert RunConfig(case=case, kernel=spec).kernel_pair() is spec


def test_exact_case_for():
    assert RunConfig(case="case1").exact_case().id == "case1"
    assert RunConfig(case="case2", lam=0.5).exact_case().lam == 0.5
    assert RunConfig(case="case3").exact_case().M == 3.0
    assert RunConfig(case="case3", M=5.0).exact_case().M == 5.0
    # the case still picks the initial profile when a kernel block is given
    assert RunConfig(case="case3", kernel=KernelSpec()).exact_case().id == "case3"


def test_snapshot_times_sharing_a_file_name_rejected():
    # files are named by {t:g}, six significant digits: 1.0000001 would overwrite t = 1
    with pytest.raises(ValueError, match=r"1\.0 and 1\.0000001 share snapshot_t1\.csv"):
        RunConfig(snapshot_times=[1.0000001, 2.5, 1.0])
    assert RunConfig(snapshot_times=[1.0, 1.00001]).snapshot_times == (1.0, 1.00001)


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
    run = run_simulation(RunConfig(case="case1", kernel=spec, **FAST))
    assert not run.hypotheses_verified
    assert run.metadata()["hypotheses"] == "hypotheses-unverified"


def test_number_count_decays_monotonically():
    run = run_simulation(RunConfig(case="case1", **FAST))
    m0 = run.moments.M0
    assert all(b < a for a, b in zip(m0, m0[1:]))


def test_sweep_needs_two_epsilons():
    with pytest.raises(ValueError):
        run_sweep(RunConfig(case="case1", epsilon_list=(0.05,)))


def test_sweep_needs_closed_form(monkeypatch):
    # rel_l1_error's probe of a zero state rejects the case before any run
    def no_run(cfg):
        raise AssertionError("integration started before the check")

    monkeypatch.setattr(dcasim.runs, "run_simulation", no_run)
    cfg = RunConfig(case="case2", lam=0.5, epsilon_list=(0.2, 0.1), **{
        k: v for k, v in FAST.items() if k != "epsilon"})
    with pytest.raises(ValueError, match="case2 with lambda=0.5 has no closed form"):
        run_sweep(cfg)


def test_sweep_needs_reference_mass_at_each_time(monkeypatch):
    # the case-1 wave front is at 2t, so on [0, 3] the closed form is empty by t = 2.5
    def no_run(cfg):
        raise AssertionError("integration started before the check")

    monkeypatch.setattr(dcasim.runs, "run_simulation", no_run)
    cfg = RunConfig(case="case1", x_max=3.0, epsilon_list=(0.2, 0.1))
    with pytest.raises(ValueError, match=r"no mass on \[0, 3.0\] at t=2.5"):
        run_sweep(cfg)


def test_sweep_tabulates_errors_per_time():
    cfg = RunConfig(case="case1", epsilon_list=(0.2, 0.1),
                    snapshot_times=(0.5, 1.0))
    res = run_sweep(cfg)
    assert res.failures == {}
    assert set(res.tables) == {0.5, 1.0}
    for table in res.tables.values():
        assert [eps for eps, _ in table.rows] == [0.2, 0.1]
        errs = [err for _, err in table.rows]
        assert errs[1] < errs[0]        # refinement reduces the error


def test_sweep_run_config_holds_its_epsilon():
    res = run_sweep(RunConfig(case="case1", epsilon_list=(0.2, 0.1), snapshot_times=(1.0,)))
    assert list(res.runs) == [0.2, 0.1]
    for eps, run in res.runs.items():
        assert run.config.epsilon == eps
        assert run.dk.grid.epsilon == eps
        assert run.metadata()["epsilon"] == eps


def test_sweep_case2_default_lambda_is_case1():
    # case 2 with lam unset runs C = K, the case-1 problem, which has a closed form
    case1, case2 = (run_sweep(RunConfig(case=case, epsilon_list=(0.2, 0.1),
                                        snapshot_times=(1.0,)))
                    for case in ("case1", "case2"))
    assert case2.tables[1.0].rows == case1.tables[1.0].rows


def test_sweep_records_integrator_failures(monkeypatch):
    def fail(cfg):
        raise IntegrationError("step size underflow at t=0.5")

    monkeypatch.setattr(dcasim.runs, "run_simulation", fail)
    res = run_sweep(RunConfig(case="case1", epsilon_list=(0.2, 0.1),
                              snapshot_times=(1.0,)))
    assert res.runs == {}
    assert res.failures[0.2] == "IntegrationError: step size underflow at t=0.5"


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(cfg):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(dcasim.runs, "run_simulation", broken)
    with pytest.raises(TypeError):
        run_sweep(RunConfig(case="case1", epsilon_list=(0.2, 0.1),
                            snapshot_times=(1.0,)))


def test_run_pickles_without_dense_matrices():
    # a run holds O(m) data, not the 64 MB of two m = 1999 kernel matrices
    run = run_simulation(RunConfig(case="case1", epsilon=0.005))
    assert len(pickle.dumps(run)) < 1_000_000

