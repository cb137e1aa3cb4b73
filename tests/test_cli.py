import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
        for bad in ("30pi_Hz", "pi_MHz", "2pi_x_MHz", "fast", "1.2.3pi_MHz", "2pi_x1.2.3_MHz"):
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
        for bad in ("half a turn", "pi/0"):
            with pytest.raises(ConfigError, match="malformed"):
                parse_angle(bad)

    @pytest.mark.parametrize("value", [True, False])
    def test_bools_rejected(self, value):
        with pytest.raises(ConfigError, match="bool"):
            parse_frequency(value)
        with pytest.raises(ConfigError, match="bool"):
            parse_angle(value)


class TestStartup:
    @staticmethod
    def run_child(code: str, *args: str) -> str:
        """Last stdout line of ``python -c code args`` with the package on the path."""
        import chainwise_sta

        src = str(Path(chainwise_sta.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", code, *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    def test_cli_import_and_simulate_load_no_scipy(self, tmp_path):
        # The package runs on numpy alone; scipy.integrate would be most of
        # its import time.
        code = (
            "import sys\n"
            "from chainwise_sta.cli import run_cli\n"
            "code = run_cli(['simulate', '--preset', 'rb2_lambda', '--protocol', 'p2',\n"
            "                '--tol', '1e-4', '--n-samples', '2', '--out', sys.argv[1]])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert self.run_child(code, str(tmp_path / "sim")) == "0 []"

    def test_propagation_does_not_import_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on first use, ~17 ms of every process's
        # start-up; the propagation path sorts and masks instead.
        code = (
            "import sys\n"
            "from chainwise_sta.cli import run_cli\n"
            "codes = [run_cli(['simulate', '--preset', 'rb2_lambda', '--protocol', 'p2',\n"
            "                  '--tol', '1e-4', '--n-samples', '2', '--out', sys.argv[1]]),\n"
            "         run_cli(['sweep', '--metric', 'efficiency', '--preset', 'rb2_m',\n"
            "                  '--protocol', 'chainwise', '--tf', '1:2:2',\n"
            "                  '--delta', '1pi_GHz:2pi_GHz:2', '--tol', '1e-4',\n"
            "                  '--out', sys.argv[2]])]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        assert self.run_child(code, str(tmp_path / "sim"), str(tmp_path / "map")) == "[0, 0] False"


class TestPresets:
    def test_shipped_presets(self):
        assert set(PRESETS) == {"rb2_lambda", "rb2_m"}
        lam = PRESETS["rb2_lambda"]
        assert lam.decays == pytest.approx(
            (2 * np.pi * 7.2e-4, 2 * np.pi * 12.0, 2 * np.pi * 4.0e-4))
        m = PRESETS["rb2_m"]
        assert m.decays == (0.01, 30.0, 0.01, 30.0, 0.0)
        # An operating point only: each protocol's designer defaults hold.
        for preset in PRESETS.values():
            assert set(preset.suggested) == {"tf", "delta"}

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

    @pytest.mark.parametrize("mode, largest", [
        (["--delta-two-mode", "exact_clamped", "--delta-two-clamp", "300"], 300.0),
        (["--delta-two-mode", "exact_clamped"], float(f"{200 * np.pi:.12g}")),
        (["--delta-two-mode", "dropped"], 0.0),
    ], ids=["clamp-300", "clamp-default", "dropped"])
    def test_delta_two_mode_reaches_the_schedule(self, mode, largest, tmp_path):
        # The p1 detuning diverges at the leg edges: clamped it reaches the
        # clamp (200 pi by default, as written to 12 digits); dropped it is zero.
        out = tmp_path / "p1"
        assert run_cli(["design", "--protocol", "p1", "--tf", "4", "--delta", "1.8pi_GHz",
                        *mode, "--out", str(out)]) == 0
        rows = (out / "schedule.csv").read_text().splitlines()
        assert rows[0].split(",")[-1] == "delta_two"
        column = np.array([float(r.split(",")[-1]) for r in rows[1:]])
        assert np.max(np.abs(column)) == largest

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_per_leg_must_be_positive(self, points, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["design", "--protocol", "p2", "--tf", "4", "--delta", "1000",
                        "--points-per-leg", points, "--out", str(out)])
        assert code == 2
        assert "points_per_leg" in capsys.readouterr().err
        assert not (out / "schedule.csv").exists()


_UNREAD = [("p2", "beta", "pi/3"), ("p2", "epsilon", "0.05"),
           ("p2", "delta_two_mode", "exact_clamped"), ("p1", "epsilon", "0.05"),
           ("chainwise", "beta", "pi/3"), ("chainwise", "delta_two_mode", "exact_clamped")]
_UNREAD_IDS = [f"{protocol}-{key}" for protocol, key, _ in _UNREAD]


class TestDesignKeys:
    """A run takes, and records, only the design keys its protocol reads."""

    @pytest.mark.parametrize("protocol, key, value", _UNREAD, ids=_UNREAD_IDS)
    def test_unread_flag_rejected(self, protocol, key, value, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["design", "--protocol", protocol, "--tf", "4", "--delta", "1.2pi_GHz",
                        "--" + key.replace("_", "-"), value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err and protocol in err
        assert not out.exists()

    @pytest.mark.parametrize("protocol, key, value", _UNREAD, ids=_UNREAD_IDS)
    def test_unread_config_key_rejected(self, protocol, key, value, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": protocol, "tf": 4, "delta": "1.2pi_GHz",
                                   key: value}))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err and protocol in err
        assert not out.exists()

    @pytest.mark.parametrize("preset, protocol, flag", [
        ("rb2_lambda", "p1", ["--beta", "pi/1.99"]),
        ("rb2_m", "chainwise", ["--epsilon", "0.03"]),
    ], ids=["rb2_lambda-beta", "rb2_m-epsilon"])
    def test_preset_runs_the_designer_defaults(self, preset, protocol, flag, tmp_path):
        # The presets suggest no design option; the designers' defaults
        # equal the values they once suggested, bit for bit.
        base = ["simulate", "--preset", preset, "--protocol", protocol,
                "--tol", "1e-4", "--n-samples", "11"]
        assert run_cli([*base, "--out", str(tmp_path / "preset")]) == 0
        assert run_cli([*base, *flag, "--out", str(tmp_path / "explicit")]) == 0
        assert ((tmp_path / "preset" / "timeseries.csv").read_bytes()
                == (tmp_path / "explicit" / "timeseries.csv").read_bytes())
        manifest = json.loads((tmp_path / "preset" / "manifest.json").read_text())
        assert not {"beta", "epsilon"} & set(manifest)


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

    # The step's matrix exponential overflows at this rate; the run must
    # fail the trace contract, not report a NaN efficiency.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_trace_exits_3_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--protocol", "p2", "--tf", "1", "--delta", "1000",
                        "--gamma", "1e20,0,0", "--n-samples", "2", "--out", str(out)])
        assert code == 3
        assert "trace is not finite" in capsys.readouterr().err
        assert not out.exists()

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

    def test_peak_output_bytes(self, tmp_path, monkeypatch, capsys):
        # map.csv, map_meta.json and manifest.json, byte for byte.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out = tmp_path / "pk"
        assert run_cli(["sweep", "--metric", "peak", "--protocol", "p2", "--tf", "1:2:2",
                        "--delta", "1000:2000:2", "--out", str(out)]) == 0
        assert (out / "map.csv").read_bytes() == (
            b"tf_us\\delta_rad_us,1000,2000\n"
            b"1,97.081295627784954,137.29368492956536\n"
            b"2,68.646842464782679,97.081295627784954\n")
        assert (out / "map_meta.json").read_text() == """{
  "delta_range_rad_us": [
    1000.0,
    2000.0,
    2
  ],
  "design": {},
  "failed_cells": [],
  "metric": "peak_amplitude",
  "protocol": "p2",
  "tf_range_us": [
    1.0,
    2.0,
    2
  ],
  "timestamp": "1970-01-01T00:00:00Z"
}
"""
        assert (out / "manifest.json").read_text() == """{
  "command": "sweep",
  "delta": [
    1000.0,
    2000.0,
    2
  ],
  "metric": "peak",
  "out": %s,
  "protocol": "p2",
  "tf": [
    1.0,
    2.0,
    2
  ]
}
""" % json.dumps(str(out))

    @pytest.mark.parametrize("key, value", [("tol", "1e-3"), ("gamma", "1,2,3")])
    def test_peak_sweep_rejects_loss_keys(self, key, value, tmp_path, capsys):
        # A peak map is pure design: it reads no decay rates and no tolerance.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"metric": "peak", "protocol": "p2", "tf": "1:2:2",
                                   "delta": "1000:2000:2", key: value}))
        out = tmp_path / "pk"
        for argv in (["sweep", "--metric", "peak", "--protocol", "p2", "--tf", "1:2:2",
                      "--delta", "1000:2000:2", "--" + key, value],
                     ["sweep", "--config", str(cfg)]):
            assert run_cli(argv + ["--out", str(out)]) == 2
            assert f"a peak sweep does not read {key!r}" in capsys.readouterr().err
            assert not out.exists()

    def test_peak_sweep_preset_fills_no_gamma(self, tmp_path, monkeypatch, capsys):
        # The preset still picks the chainwise protocol; its decays stay out
        # of the run, and the map is the one designed without the preset.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        base = ["sweep", "--metric", "peak", "--tf", "1:2:2", "--delta", "1000:2000:2"]
        out, plain = tmp_path / "pk", tmp_path / "plain"
        assert run_cli(base + ["--preset", "rb2_m", "--out", str(out)]) == 0
        assert run_cli(base + ["--protocol", "chainwise", "--out", str(plain)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["protocol"] == "chainwise" and "gamma" not in manifest
        meta = json.loads((out / "map_meta.json").read_text())
        assert "decays_rad_us" not in meta and "tolerance" not in meta
        assert (out / "map.csv").read_bytes() == (plain / "map.csv").read_bytes()

    def test_map_meta_records_the_design_options(self, tmp_path, capsys):
        out = tmp_path / "pk"
        assert run_cli(["sweep", "--metric", "peak", "--protocol", "p1", "--tf", "1:2:2",
                        "--delta", "1000:2000:2", "--delta-two-mode", "exact_clamped",
                        "--delta-two-clamp", "300", "--out", str(out)]) == 0
        meta = json.loads((out / "map_meta.json").read_text())
        assert meta["design"] == {"mode": {"limit": 300.0, "mode": "exact_clamped"}}

    @pytest.mark.parametrize("epoch", ["abc", "1.5", "inf", "1e20", "100000000000000000000"])
    def test_bad_source_date_epoch_exits_2(self, epoch, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert run_cli(["sweep", "--metric", "peak", "--protocol", "p2", "--tf", "1:2:2",
                        "--delta", "1000:2000:2", "--out", str(tmp_path / "pk")]) == 2
        assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err

    @pytest.mark.parametrize("epoch, stamp", [("0", "1970-01-01T00:00:00Z"),
                                              ("1700000000", "2023-11-14T22:13:20Z")])
    def test_source_date_epoch_pins_timestamp(self, epoch, stamp, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        out = tmp_path / "pk"
        assert run_cli(["sweep", "--metric", "peak", "--protocol", "p2", "--tf", "1:2:2",
                        "--delta", "1000:2000:2", "--out", str(out)]) == 0
        assert json.loads((out / "map_meta.json").read_text())["timestamp"] == stamp

    def test_empty_source_date_epoch_means_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "")
        out = tmp_path / "pk"
        assert run_cli(["sweep", "--metric", "peak", "--protocol", "p2", "--tf", "1:2:2",
                        "--delta", "1000:2000:2", "--out", str(out)]) == 0
        assert json.loads((out / "map_meta.json").read_text())["timestamp"] > "2020"

    @pytest.mark.parametrize("failing_tf, code, failed", [((2.0, 4.0), 3, 4), ((4.0,), 0, 2)],
                             ids=["all", "partial"])
    def test_failed_cells(self, tmp_path, capsys, monkeypatch, failing_tf, code, failed):
        import chainwise_sta.sweeps as sweeps_mod
        from chainwise_sta import IntegrationError

        real = sweeps_mod.propagate_density

        def flaky(h, gamma, rho0, grid, **kw):
            if any(abs(grid.t_end - tf) < 1e-9 for tf in failing_tf):
                raise IntegrationError("synthetic failure")
            return real(h, gamma, rho0, grid, **kw)

        monkeypatch.setattr(sweeps_mod, "propagate_density", flaky)
        out = tmp_path / "sw"
        assert run_cli(["sweep", "--protocol", "p2", "--tf", "2:4:2",
                        "--delta", "1pi_GHz:2pi_GHz:2", "--metric", "efficiency",
                        "--preset", "rb2_lambda", "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert len((out / "map.csv").read_text().strip().splitlines()) == 3
        meta = json.loads((out / "map_meta.json").read_text())
        assert len(meta["failed_cells"]) == failed
        if code == 3:
            assert "numerical failure" in captured.err and "all 4 cells failed" in captured.err
        else:
            assert f"failed={failed}" in captured.out

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_trace_fails_every_cell(self, tmp_path, capsys):
        out = tmp_path / "sw"
        assert run_cli(["sweep", "--metric", "efficiency", "--protocol", "p2", "--tf", "1:2:2",
                        "--delta", "1000:2000:2", "--gamma", "1e9,0,0", "--out", str(out)]) == 3
        meta = json.loads((out / "map_meta.json").read_text())
        assert [cell[:2] for cell in meta["failed_cells"]] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert all("trace is not finite" in cell[2] for cell in meta["failed_cells"])

    def test_wrong_decay_count_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "sw"
        assert run_cli(["sweep", "--metric", "efficiency", "--protocol", "p2", "--tf", "1:2:2",
                        "--delta", "1000:2000:2", "--gamma", "1,2,3,4,5", "--out", str(out)]) == 2
        assert "p2 needs 3 decay rates, got 5" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_range_syntax(self, tmp_path, capsys):
        code = run_cli(["sweep", "--protocol", "p2", "--tf", "2-4",
                        "--delta", "1pi_GHz:2pi_GHz:2", "--metric", "efficiency",
                        "--out", str(tmp_path)])
        assert code == 2
        assert "min:max:count" in capsys.readouterr().err

    def test_non_positive_thread_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CHAINWISE_STA_THREADS", "0")
        code = run_cli(["sweep", "--protocol", "p2", "--preset", "rb2_lambda",
                        "--tf", "1:2:2", "--delta", "1pi_GHz:2pi_GHz:2",
                        "--metric", "efficiency", "--tol", "1e-4", "--out", str(tmp_path)])
        assert code == 2
        assert "CHAINWISE_STA_THREADS" in capsys.readouterr().err


class TestConfigHandling:
    def test_consecutive_calls_do_not_share_flags(self, tmp_path, capsys):
        # The parser is built once per process; each call must still see only
        # its own flags, and a rejected call must not break the next one.
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(["design", "--protocol", "p1", "--tf", "4", "--delta", "1.8pi_GHz",
                        "--beta", "pi/1.99", "--points-per-leg", "7",
                        "--out", str(first)]) == 0
        assert run_cli(["design", "--protocol", "nope", "--out", str(tmp_path / "bad")]) == 2
        assert run_cli(["design", "--protocol", "p2", "--tf", "4", "--delta", "1000",
                        "--out", str(second)]) == 0
        manifest = json.loads((second / "manifest.json").read_text())
        assert manifest == {"command": "design", "delta": 1000.0, "out": str(second),
                            "protocol": "p2", "tf": 4.0}
        assert json.loads((first / "manifest.json").read_text())["points_per_leg"] == 7
        assert run_cli(["presets"]) == 0
        assert "rb2_m" in capsys.readouterr().out

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

    def test_clamped_simulate_rerun_from_manifest_bitwise(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--preset", "rb2_lambda", "--protocol", "p1", "--tf", "2",
                "--n-samples", "101", "--delta-two-mode", "exact_clamped",
                "--delta-two-clamp", "300"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["delta_two_mode"] == "exact_clamped"
        assert manifest["delta_two_clamp"] == 300.0
        assert run_cli(["simulate", "--config", str(out1 / "manifest.json"),
                        "--out", str(out2)]) == 0
        assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()

    @pytest.mark.parametrize("content, problem", [
        (None, "cannot read config file"),
        ("{\"protocol\": ", "is not valid JSON"),
        ("[\"design\"]", "must hold a JSON object"),
    ], ids=["missing", "invalid-json", "list"])
    def test_bad_config_file_rejected(self, content, problem, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        if content is not None:
            cfg.write_text(content)
        out = tmp_path / "o"
        assert run_cli(["design", "--config", str(cfg), "--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_protocol_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": "p3", "tf": 4, "delta": 100.0}))
        code = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "protocol" in capsys.readouterr().err

    def test_fractional_n_samples_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": "p2", "tf": 1, "delta": "1000pi_MHz",
                                   "tol": 1e-4, "n_samples": 2.7}))
        out = tmp_path / "o"
        code = run_cli(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "n_samples" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_non_numeric_points_per_leg_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"protocol": "p1", "tf": 4, "delta": 100.0,
                                   "points_per_leg": "abc"}))
        code = run_cli(["design", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "points_per_leg" in capsys.readouterr().err

    @pytest.mark.parametrize("command, entry", [
        ("simulate", {"tol": "abc"}),
        ("simulate", {"epsilon": [1]}),
        ("simulate", {"tf": True}),
        ("roundtrip", {"hold": False}),
        ("simulate", {"delta": True}),
        ("simulate", {"beta": True}),
        ("simulate", {"gamma": 5}),
        ("simulate", {"out": 5}),
        ("simulate", {"out": None}),
        ("simulate", {"preset": ["x"]}),
    ], ids=["tol-text", "epsilon-list", "tf-bool", "hold-bool", "delta-bool",
            "beta-bool", "gamma-scalar", "out-number", "out-null",
            "preset-list"])
    def test_bad_real_rejected_naming_key(self, command, entry, tmp_path, capsys):
        # Each entry used to run with a silently converted value, exit 1 with
        # a traceback, or exit 2 without naming the key.
        raw = {"protocol": "p2", "tf": 1, "delta": "1000pi_MHz", "tol": 1e-4,
               "n_samples": 11, **entry}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o"
        code = run_cli([command, "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert next(iter(entry)) in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("tf", [[True, 2, 2], [1, 2]], ids=["bool-bound", "short-list"])
    def test_bool_range_bound_rejected(self, tf, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "sweep", "protocol": "p2", "metric": "peak",
                                   "tf": tf, "delta": "1000:2000:2"}))
        out = tmp_path / "o"
        code = run_cli(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "tf" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("design", "hold", "5"),
        ("design", "tol", "1e-4"),
        ("design", "gamma", "1,2,3"),
        ("design", "n_samples", "11"),
        ("simulate", "metric", "peak"),
        ("sweep", "points_per_leg", "7"),
        ("presets", "tf", "4"),
        ("design", "tf", "abc"),
        ("design", "beta", "pi/0"),
        ("simulate", "n_samples", "2.5"),
        ("sweep", "tf", "1-2"),
        ("sweep", "metric", "area"),
    ], ids=["design-hold", "design-tol", "design-gamma", "design-n_samples", "simulate-metric",
            "sweep-points_per_leg", "presets-tf", "tf-text", "beta-pi-over-0",
            "n_samples-fraction", "range-syntax", "metric-unknown"])
    def test_flag_and_config_key_rejected_alike(self, command, key, value, tmp_path,
                                                monkeypatch, capsys):
        # A key the command does not take, or a bad value, exits 2 with the
        # same message whether it comes as a flag or as a config key.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        errors = []
        for argv in ([command, "--" + key.replace("_", "-"), value],
                     [command, "--config", str(cfg)]):
            assert run_cli(argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert key in errors[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["design", "--protocol", "p1", "--tf", "4", "--delta", "1000"],
        ["sweep", "--protocol", "p2", "--tf", "1:2:2", "--delta", "1000:2000:2",
         "--metric", "peak", "--delta-two-mode", "dropped"],
    ], ids=["design-no-mode", "sweep-dropped"])
    def test_clamp_without_exact_clamped_mode_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(argv + ["--delta-two-clamp", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "delta_two_clamp" in err and "delta_two_mode" in err
        assert not (out / "manifest.json").exists()

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
