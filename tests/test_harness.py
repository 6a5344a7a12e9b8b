import numpy as np
import pytest
from hypothesis import given, strategies as st

from nearfield_pae.channel import desk_scale_scenario
from nearfield_pae.engine import PoseEstimate
from nearfield_pae.geometry import EulerAngles, Pose, rotation_basis
from nearfield_pae.harness import (
    ConfigError,
    SweepSpec,
    apply_sweep_value,
    compute_metrics,
    load_config,
    parse_range,
    rows_to_csv,
    run_sweep,
    scenario_from_config,
    sweep_from_config,
    trial_errors,
    write_csv,
    write_svg,
)


def make_estimate(position, attitude):
    att = EulerAngles(*attitude)
    return PoseEstimate(
        position=np.asarray(position, dtype=float),
        attitude=att,
        basis=rotation_basis(att),
        cov_position=np.eye(3),
        cov_attitude=np.eye(3),
    )


def tiny_sweep_spec(**kwargs):
    base = dict(
        variable="px_dbm",
        values=("10", "20"),
        trials=2,
        scenario=desk_scale_scenario(bs_n=16, ms_n=8, pattern="t3"),
        partition=(2, 2),
        estimators=("partitioned",),
        base_seed=7,
        threads=1,
    )
    base.update(kwargs)
    return SweepSpec(**base)


class TestMetrics:
    def test_perfect_estimates(self):
        truths = [[Pose(np.array([1.0, 2.0, 3.0]), EulerAngles(0.3, 0.2, -0.4))]]
        ests = [[make_estimate([1.0, 2.0, 3.0], (0.3, 0.2, -0.4))]]
        rmse, nmse = compute_metrics(ests, truths)
        assert rmse == 0.0
        assert nmse == pytest.approx(0.0, abs=1e-30)

    def test_known_offset(self):
        truths = [[Pose(np.zeros(3), EulerAngles(0, 0, 0))]]
        ests = [[make_estimate([0.01, 0.01, 0.01], (0, 0, 0))]]
        rmse, nmse = compute_metrics(ests, truths)
        assert rmse == pytest.approx(0.01 * np.sqrt(3), rel=1e-12)
        assert nmse == pytest.approx(0.0, abs=1e-30)

    def test_rotation_nmse_matches_frobenius_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            att = EulerAngles(
                rng.uniform(-np.pi, np.pi),
                rng.uniform(-np.pi / 2, np.pi / 2),
                rng.uniform(-np.pi, np.pi),
            )
            truths = [[Pose(np.zeros(3), EulerAngles(0, 0, 0))]]
            ests = [[make_estimate([0, 0, 0], att.as_array())]]
            _, nmse = compute_metrics(ests, truths)
            r_t = np.eye(3)[:, :2]
            r_e = rotation_basis(att).matrix
            assert nmse == pytest.approx(np.sum((r_t - r_e) ** 2) / 2.0, rel=1e-12)

    def test_multi_ms_assignment_invariance(self):
        p1 = Pose(np.array([1.0, 0.0, 5.0]), EulerAngles(0, 0, 0))
        p2 = Pose(np.array([-2.0, 1.0, 6.0]), EulerAngles(0, 0, 1.0))
        truths = [[p1, p2]]
        swapped = [
            [
                make_estimate(p2.position, p2.attitude.as_array()),
                make_estimate(p1.position, p1.attitude.as_array()),
            ]
        ]
        rmse, nmse = compute_metrics(swapped, truths)
        assert rmse == pytest.approx(0.0, abs=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 4),
        order=st.randoms(use_true_random=False),
    )
    def test_trial_errors_ignore_ms_labels(self, seed, count, order):
        """Permuting the estimate list (relabelling the MSs) leaves both
        summed errors unchanged."""
        rng = np.random.default_rng(seed)
        truths = [
            Pose(rng.uniform(-3.0, 3.0, 3) + [0.0, 0.0, 6.0], EulerAngles(*rng.uniform(-1.5, 1.5, 3)))
            for _ in range(count)
        ]
        estimates = [
            make_estimate(t.position + rng.normal(0.0, 0.3, 3), rng.uniform(-1.5, 1.5, 3))
            for t in truths
        ]
        shuffled = list(estimates)
        order.shuffle(shuffled)
        assert trial_errors(shuffled, truths) == pytest.approx(
            trial_errors(estimates, truths), rel=1e-12, abs=0.0
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([[]], [])


class TestSweepSpec:
    def test_unknown_variable_rejected(self):
        with pytest.raises(ConfigError):
            tiny_sweep_spec(variable="bogus")

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError):
            tiny_sweep_spec(estimators=("partitioned", "psychic"))

    def test_apply_px(self):
        spec = tiny_sweep_spec()
        scenario, _ = apply_sweep_value(spec, "20")
        assert scenario.tx_power_w == pytest.approx(0.1)

    def test_apply_partition(self):
        spec = tiny_sweep_spec(variable="partition", values=("1", "4", "16"))
        _, part = apply_sweep_value(spec, "16")
        assert part == (4, 4)
        with pytest.raises(ConfigError):
            apply_sweep_value(spec, "8")

    def test_apply_pattern_and_distance(self):
        spec = tiny_sweep_spec(variable="pattern", values=("t3", "t5"))
        scenario, _ = apply_sweep_value(spec, "t5")
        assert len(scenario.pattern) == 5
        spec = tiny_sweep_spec(variable="distance", values=("5-8",))
        scenario, _ = apply_sweep_value(spec, "5-8")
        assert scenario.distance_range == (5.0, 8.0)

    def test_apply_rician(self):
        spec = tiny_sweep_spec(variable="rician_kfactor", values=("10", "inf"))
        scenario, _ = apply_sweep_value(spec, "inf")
        assert scenario.rician_kfactor == np.inf

    def test_parse_range_rejects_junk(self):
        with pytest.raises(ConfigError):
            parse_range("5")
        with pytest.raises(ConfigError):
            parse_range("8-5")


class TestRunSweep:
    def test_deterministic_csv_bytes(self):
        spec = tiny_sweep_spec()
        rows_a = run_sweep(spec)
        rows_b = run_sweep(spec)
        assert rows_to_csv(rows_a) == rows_to_csv(rows_b)

    def test_threads_do_not_change_output(self):
        spec_serial = tiny_sweep_spec(threads=1)
        spec_parallel = tiny_sweep_spec(threads=2)
        assert rows_to_csv(run_sweep(spec_serial)) == rows_to_csv(
            run_sweep(spec_parallel)
        )

    def test_failure_accounting(self, monkeypatch):
        # failures inside an estimator are counted per estimator: break the
        # engine entry point on every other call
        import nearfield_pae.engine as eng

        original_run = eng.run
        counter = {"n": 0}

        def flaky_run(*args, **kwargs):
            counter["n"] += 1
            if counter["n"] % 2 == 0:
                raise ValueError("synthetic estimator failure")
            return original_run(*args, **kwargs)

        monkeypatch.setattr(eng, "run", flaky_run)
        spec = tiny_sweep_spec(trials=4, values=("10",))
        rows = run_sweep(spec)
        assert rows[0].trials_attempted == 4
        assert rows[0].trials_failed == 2
        assert rows[0].trials_used == 2
        assert np.isfinite(rows[0].rmse_position)

    def test_bound_failures_counted(self, monkeypatch):
        # a bound that raises is counted per row and kept out of the bound
        # average; the CSV does not carry the count
        import nearfield_pae.mcrb as mcrb

        original_bound = mcrb.compute_bound
        counter = {"n": 0}

        def flaky_bound(*args, **kwargs):
            counter["n"] += 1
            if counter["n"] == 2:
                raise np.linalg.LinAlgError("synthetic bound failure")
            return original_bound(*args, **kwargs)

        monkeypatch.setattr(mcrb, "compute_bound", flaky_bound)
        spec = tiny_sweep_spec(
            trials=3, values=("10",), with_bound=True, bound_trials=3, threads=1
        )
        rows = run_sweep(spec)
        assert counter["n"] == 3
        assert rows[0].bound_trials_failed == 1
        assert rows[0].trials_failed == 0
        assert np.isfinite(rows[0].bound_position_rmse)
        monkeypatch.setattr(mcrb, "compute_bound", original_bound)
        clean = run_sweep(spec)
        assert clean[0].bound_trials_failed == 0
        assert "bound_trials_failed" not in rows_to_csv(rows)

    def test_seed_independence(self):
        # disjoint trial indices give independent noise streams
        rng_a = np.random.default_rng(np.random.SeedSequence([9, 0, 0]))
        rng_b = np.random.default_rng(np.random.SeedSequence([9, 0, 1]))
        a = rng_a.standard_normal(10_000)
        b = rng_b.standard_normal(10_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


class TestCsv:
    def test_format(self, tmp_path):
        spec = tiny_sweep_spec(values=("10",), trials=1)
        rows = run_sweep(spec)
        path = tmp_path / "out.csv"
        write_csv(path, rows)
        raw = path.read_bytes()
        assert b"\r\n" in raw
        text = raw.decode()
        header = text.splitlines()[0]
        assert header == (
            "variable,value,estimator,rmse_position_m,nmse_rotation,"
            "bound_position_rmse_m,bound_attitude_rmse_rad,"
            "trials_attempted,trials_failed,trials_used"
        )
        # 17 significant digits on floats
        first = text.splitlines()[1].split(",")
        assert len(first[3]) >= 15

    def test_svg_emission(self, tmp_path):
        spec = tiny_sweep_spec()
        rows = run_sweep(spec)
        path = tmp_path / "chart.svg"
        write_svg(path, rows)
        content = path.read_text()
        assert content.startswith("<svg")
        assert "polyline" in content


class TestConfigFiles:
    def write(self, tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            """
[scenario]
frequency_ghz = 28
bs_nx = 16
bs_ny = 16
ms_nx = 8
ms_ny = 8
num_ms = 1
pattern = t3
tx_power_dbm = 15
noise_power_dbm = -70
distance_min_m = 4
distance_max_m = 6

[partition]
mx = 2
my = 2

[sweep]
variable = px_dbm
values = 0, 10
trials = 2
estimators = partitioned
seed = 3
""",
        )
        cfg = load_config(path)
        scenario = scenario_from_config(cfg)
        assert scenario.bs.nx == 16
        assert scenario.tx_power_w == pytest.approx(10 ** (15 / 10) * 1e-3)
        assert scenario.distance_range == (4.0, 6.0)
        spec = sweep_from_config(cfg)
        assert spec.values == ("0", "10")
        assert spec.base_seed == 3
        assert spec.partition == (2, 2)

    def test_unknown_section_rejected(self, tmp_path):
        path = self.write(tmp_path, "[wat]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "[scenario]\nbs_nx = 16\nwarp_drive = 9\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = self.write(tmp_path, "[scenario]\nbs_nx = lots\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_seed_and_thread_overrides(self, tmp_path):
        path = self.write(
            tmp_path, "[sweep]\nvariable = px_dbm\nvalues = 0\ntrials = 1\nseed = 5\n"
        )
        cfg = load_config(path)
        spec = sweep_from_config(cfg, seed=11, threads=3)
        assert spec.base_seed == 11
        assert spec.threads == 3
