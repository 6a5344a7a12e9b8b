import pytest

from nearfield_pae.channel import load_signal
from nearfield_pae.cli import EXIT_CONFIG, EXIT_OK, main

TINY_CONFIG = """
[scenario]
bs_nx = 16
bs_ny = 16
ms_nx = 8
ms_ny = 8
pattern = t3
tx_power_dbm = 20
noise_power_dbm = -70
distance_min_m = 4
distance_max_m = 6

[partition]
mx = 2
my = 2

[sweep]
variable = px_dbm
values = 10, 20
trials = 1
estimators = partitioned
seed = 1
threads = 1
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(TINY_CONFIG)
    return str(path)


def test_simulate_writes_dump(config_path, tmp_path, capsys):
    out = str(tmp_path / "sig.bin")
    code = main(["simulate", "--config", config_path, "--out", out, "--seed", "2"])
    assert code == EXIT_OK
    sig, seed = load_signal(out)
    assert seed == 2
    assert sig.samples.shape == (256, 3)


def test_estimate_and_baseline_emit_pose_csv(config_path, tmp_path):
    for cmd in ("estimate", "baseline"):
        out = str(tmp_path / f"{cmd}.csv")
        code = main([cmd, "--config", config_path, "--out", out])
        assert code == EXIT_OK
        lines = open(out).read().splitlines()
        assert lines[0] == "estimator,ms,pos_x_m,pos_y_m,pos_z_m,roll_rad,pitch_rad,yaw_rad"
        fields = lines[1].split(",")
        assert fields[0] == ("partitioned" if cmd == "estimate" else "baseline")
        assert len(fields) == 8


def test_estimate_on_saved_signal(config_path, tmp_path):
    sig_path = str(tmp_path / "sig.bin")
    main(["simulate", "--config", config_path, "--out", sig_path, "--seed", "4"])
    out = str(tmp_path / "est.csv")
    code = main(
        ["estimate", "--config", config_path, "--signal", sig_path, "--out", out]
    )
    assert code == EXIT_OK


def test_bound_csv(config_path, tmp_path):
    out = str(tmp_path / "bound.csv")
    code = main(["bound", "--config", config_path, "--out", out, "--seed", "3"])
    assert code == EXIT_OK
    lines = open(out).read().splitlines()
    assert lines[0] == "ms,position_bound_m,attitude_bound_rad"
    vals = lines[1].split(",")
    assert float(vals[1]) > 0


def test_sweep_csv_and_svg(config_path, tmp_path):
    out = str(tmp_path / "sweep.csv")
    code = main(["sweep", "--config", config_path, "--out", out, "--svg"])
    assert code == EXIT_OK
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "sweep.svg").exists()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nnot_a_key = 1\n")
    code = main(["sweep", "--config", str(bad)])
    assert code == EXIT_CONFIG


def test_zero_iterations_config_error(config_path, tmp_path):
    # iterations = 0 once ran the sweep and returned poses at the array centre
    bad = tmp_path / "zero.ini"
    bad.write_text(open(config_path).read() + "\n[estimator]\niterations = 0\n")
    code = main(["sweep", "--config", str(bad), "--out", str(tmp_path / "sweep.csv")])
    assert code == EXIT_CONFIG


def test_missing_config_exit_code(tmp_path):
    code = main(["sweep", "--config", str(tmp_path / "missing.ini")])
    assert code == EXIT_CONFIG


def test_numerical_failure_majority_exit_code(config_path, tmp_path, monkeypatch):
    import nearfield_pae.engine as eng
    from nearfield_pae.cli import EXIT_NUMERICAL

    def broken(*args, **kwargs):
        raise ValueError("synthetic numerical failure")

    monkeypatch.setattr(eng, "run", broken)
    out = str(tmp_path / "sweep.csv")
    code = main(["sweep", "--config", config_path, "--out", out, "--threads", "1"])
    assert code == EXIT_NUMERICAL
