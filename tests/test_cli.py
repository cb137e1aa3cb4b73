import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainwise_sta.cli import (
    PRESETS,
    ConfigError,
    format_frequency,
    parse_angle,
    parse_frequency,
    run_cli,
)

coeffs = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False,
                   allow_infinity=False).map(lambda x: round(x, 6))


class TestUnitParsing:
    def test_pi_mhz(self):
        assert parse_frequency("30pi_MHz") == pytest.approx(30 * np.pi)

    def test_pi_ghz(self):
        assert parse_frequency("1.8pi_GHz") == pytest.approx(1800 * np.pi)

    def test_pi_khz(self):
        assert parse_frequency("0.72pi_kHz") == pytest.approx(0.72e-3 * np.pi)

    def test_two_pi_times(self):
        assert parse_frequency("2pi_x12_MHz") == pytest.approx(24 * np.pi)
        assert parse_frequency("2pi_x0.72_KHz") == pytest.approx(2 * np.pi * 7.2e-4)

    def test_plain_number(self):
        assert parse_frequency("94.25") == 94.25
        assert parse_frequency(10.0) == 10.0

    def test_malformed_rejected(self):
        for bad in ("30pi_Hz", "pi_MHz", "2pi_x_MHz", "fast"):
            with pytest.raises(ConfigError, match="malformed"):
                parse_frequency(bad)

    @given(x=coeffs, unit=st.sampled_from(["kHz", "MHz", "GHz"]))
    @settings(max_examples=60, deadline=None)
    def test_pi_form_roundtrip(self, x, unit):
        # format -> parse -> format is stable to 1e-12 relative (character
        # identity is out of reach: the pi * scale division is not exactly
        # invertible in floats).
        scale = {"kHz": 1e-3, "MHz": 1.0, "GHz": 1e3}[unit]
        value = parse_frequency(f"{x!r}pi_{unit}")
        assert value == pytest.approx(x * np.pi * scale, rel=1e-12)
        text = format_frequency(value, unit)
        again = parse_frequency(text)
        assert again == pytest.approx(value, rel=1e-12)
        assert parse_frequency(format_frequency(again, unit)) == pytest.approx(
            again, rel=1e-12)

    @given(x=coeffs, unit=st.sampled_from(["kHz", "MHz", "GHz"]))
    @settings(max_examples=60, deadline=None)
    def test_two_pi_form_parse(self, x, unit):
        scale = {"kHz": 1e-3, "MHz": 1.0, "GHz": 1e3}[unit]
        value = parse_frequency(f"2pi_x{x!r}_{unit}")
        assert value == pytest.approx(2 * np.pi * x * scale, rel=1e-12)

    def test_angle_forms(self):
        assert parse_angle("pi/1.99") == pytest.approx(np.pi / 1.99)
        assert parse_angle("0.5pi") == pytest.approx(np.pi / 2)
        assert parse_angle("1.234") == 1.234
        with pytest.raises(ConfigError, match="malformed"):
            parse_angle("half a turn")


class TestPresets:
    def test_shipped_presets(self):
        assert set(PRESETS) == {"rb2_lambda", "rb2_m"}
        lam = PRESETS["rb2_lambda"]
        assert lam.decays == pytest.approx(
            (2 * np.pi * 7.2e-4, 2 * np.pi * 12.0, 2 * np.pi * 4.0e-4))
        m = PRESETS["rb2_m"]
        assert m.decays == (0.01, 30.0, 0.01, 30.0, 0.0)
        assert m.suggested["epsilon"] == 0.03

    def test_presets_command(self, capsys):
        assert run_cli(["presets"]) == 0
        out = capsys.readouterr().out
        assert "rb2_lambda" in out and "rb2_m" in out


class TestDesignCommand:
    def test_reference_design(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(["design", "--protocol", "p1", "--tf", "4",
                        "--delta", "1.8pi_GHz", "--beta", "pi/1.99",
                        "--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("peak_amplitude_rad_us=94.249")
        rows = (out / "schedule.csv").read_text().strip().splitlines()
        assert rows[0] == "t_us,omega,delta_two"
        omegas = {float(r.split(",")[1]) for r in rows[1:]}
        assert len(omegas) == 1
        assert omegas.pop() == pytest.approx(30 * np.pi, rel=5e-3)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["delta"] == pytest.approx(1800 * np.pi)

    def test_missing_parameter(self, tmp_path, capsys):
        code = run_cli(["design", "--protocol", "p1", "--tf", "4",
                        "--out", str(tmp_path)])
        assert code == 2
        assert "delta" in capsys.readouterr().err

    def test_malformed_unit(self, tmp_path, capsys):
        code = run_cli(["design", "--protocol", "p1", "--tf", "4",
                        "--delta", "1.8pi_THz", "--out", str(tmp_path)])
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    def test_chainwise_design(self, tmp_path, capsys):
        out = tmp_path / "chain"
        code = run_cli(["design", "--protocol", "chainwise", "--tf", "8",
                        "--delta", "1.27pi_GHz", "--epsilon", "0.03",
                        "--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        peak = float(line.split("=")[1])
        assert peak == pytest.approx(40 * np.pi, rel=0.10)
        header = (out / "schedule.csv").read_text().splitlines()[0]
        assert header == "t_us,omega1,omega2,omega3,omega4,delta_two"

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_per_leg_must_be_positive(self, points, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["design", "--protocol", "p2", "--tf", "4", "--delta", "1000",
                        "--points-per-leg", points, "--out", str(out)])
        assert code == 2
        assert "points_per_leg" in capsys.readouterr().err
        assert not (out / "schedule.csv").exists()


class TestSimulateCommand:
    def test_preset_simulation(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--preset", "rb2_m", "--tf", "8",
                        "--delta", "1.27pi_GHz", "--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("final_efficiency=0.91")
        header = (out / "timeseries.csv").read_text().splitlines()[0]
        assert header == "t_us,pop_1,pop_2,pop_3,pop_4,pop_5,trace"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_efficiency"] == pytest.approx(0.9189, abs=2e-3)

    def test_missing_preset(self, tmp_path, capsys):
        code = run_cli(["simulate", "--preset", "na2_x", "--out", str(tmp_path)])
        assert code == 2
        assert "na2_x" in capsys.readouterr().err

    def test_non_finite_decay_rate_rejected(self, tmp_path, capsys):
        code = run_cli(["simulate", "--protocol", "p2", "--tf", "4",
                        "--delta", "1.2pi_GHz", "--gamma", "nan,75.4,0.0025",
                        "--out", str(tmp_path)])
        assert code == 2
        assert "decay rates must be finite and non-negative" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import chainwise_sta.cli as cli_mod
        from chainwise_sta import IntegrationError

        def boom(*a, **kw):
            raise IntegrationError("diverged")

        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        code = run_cli(["simulate", "--preset", "rb2_lambda", "--protocol", "p1",
                        "--out", str(tmp_path)])
        assert code == 3
        assert "diverged" in capsys.readouterr().err


class TestRoundtripCommand:
    def test_roundtrip_run(self, tmp_path, capsys):
        out = tmp_path / "rt"
        code = run_cli(["roundtrip", "--preset", "rb2_lambda", "--protocol", "p2",
                        "--tf", "4", "--delta", "1.2pi_GHz", "--hold", "0.1",
                        "--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out
        assert "roundtrip_efficiency=" in line and "one_way_efficiency=" in line
        summary = json.loads((out / "summary.json").read_text())
        assert summary["roundtrip_efficiency"] >= summary["one_way_efficiency"] ** 2 - 0.02


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = run_cli(["sweep", "--protocol", "p2", "--tf", "2:4:2",
                        "--delta", "1pi_GHz:2pi_GHz:2", "--metric", "efficiency",
                        "--preset", "rb2_lambda", "--out", str(out)])
        assert code == 0
        assert "cells=4" in capsys.readouterr().out
        rows = (out / "map.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        meta = json.loads((out / "map_meta.json").read_text())
        assert meta["metric"] == "efficiency"
        assert meta["failed_cells"] == []

    def test_peak_metric(self, tmp_path, capsys):
        out = tmp_path / "pk"
        code = run_cli(["sweep", "--protocol", "p1", "--tf", "4:5:2",
                        "--delta", "1.8pi_GHz:2pi_GHz:2", "--metric", "peak",
                        "--out", str(out)])
        assert code == 0
        rows = (out / "map.csv").read_text().strip().splitlines()
        top_left = float(rows[1].split(",")[1])
        assert top_left == pytest.approx(30 * np.pi, rel=5e-3)

    def test_bad_range_syntax(self, tmp_path, capsys):
        code = run_cli(["sweep", "--protocol", "p2", "--tf", "2-4",
                        "--delta", "1pi_GHz:2pi_GHz:2", "--metric", "efficiency",
                        "--out", str(tmp_path)])
        assert code == 2
        assert "min:max:count" in capsys.readouterr().err


class TestConfigHandling:
    def test_unknown_command(self):
        assert run_cli(["bogus"]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": "p1", "tf": 4, "delta": 100.0,
                                   "warp": 9}))
        code = run_cli(["design", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "warp" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": "p1", "tf": 4.0, "delta": "1.8pi_GHz"}))
        out = tmp_path / "o"
        code = run_cli(["design", "--config", str(cfg), "--tf", "8",
                        "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tf"] == 8.0

    def test_rerun_from_manifest_bitwise(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["sweep", "--protocol", "p2", "--tf", "2:3:2",
                "--delta", "1pi_GHz:1.5pi_GHz:2", "--metric", "efficiency",
                "--preset", "rb2_lambda"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(["sweep", "--config", str(out1 / "manifest.json"),
                        "--out", str(out2)]) == 0
        assert (out1 / "map.csv").read_bytes() == (out2 / "map.csv").read_bytes()
        assert (out1 / "map_meta.json").read_bytes() == (out2 / "map_meta.json").read_bytes()

    def test_simulate_rerun_from_manifest_bitwise(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--preset", "rb2_lambda", "--protocol", "p1",
                "--tf", "2", "--n-samples", "101"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(["simulate", "--config", str(out1 / "manifest.json"),
                        "--out", str(out2)]) == 0
        assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_unknown_protocol_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": "p3", "tf": 4, "delta": 100.0}))
        code = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "protocol" in capsys.readouterr().err

    def test_config_for_other_command_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "sweep", "protocol": "p1"}))
        code = run_cli(["design", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv, name", [
        (["design", "--protocol", "p1", "--tf", "inf", "--delta", "1000"], "t_f"),
        (["design", "--protocol", "p1", "--tf", "nan", "--delta", "1000"], "t_f"),
        (["design", "--protocol", "chainwise", "--tf", "8", "--delta", "nan"], "delta"),
        (["simulate", "--protocol", "chainwise", "--tf", "nan", "--delta", "1000"], "t_f"),
        (["simulate", "--protocol", "p2", "--tf", "inf", "--delta", "1000"], "t_f"),
        (["simulate", "--protocol", "p2", "--tf", "4", "--delta", "inf"], "delta"),
        (["sweep", "--protocol", "p2", "--tf", "1:inf:3", "--delta", "1000:2000:2",
          "--metric", "peak"], "t_f"),
        (["sweep", "--protocol", "p1", "--tf", "1:2:2", "--delta", "1000:inf:2",
          "--metric", "peak"], "delta"),
    ], ids=["design-tf-inf", "design-tf-nan", "design-delta-nan", "simulate-tf-nan",
            "simulate-tf-inf", "simulate-delta-inf", "sweep-tf-inf", "sweep-delta-inf"])
    def test_rejected_with_exit_2(self, argv, name, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert name in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
