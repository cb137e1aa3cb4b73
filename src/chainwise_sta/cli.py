"""Command-line front end: schedule design, simulation, sweeps, presets.

Frequencies on the command line and in JSON configs accept a suffix
shorthand mapping to rad/us:

* ``30pi_MHz``    -> 30 pi
* ``1.8pi_GHz``   -> 1800 pi
* ``2pi_x12_MHz`` -> 2 pi x 12
* a bare number   -> rad/us as given

Angles accept ``pi/X`` and ``Xpi`` forms or a bare radian value.  Every run
writes a ``manifest.json`` with the fully resolved parameters; feeding that
manifest back through ``--config`` reproduces the run bit for bit (set
``SOURCE_DATE_EPOCH`` to pin the map timestamp).  Flags override config
values; preset suggestions fill whatever is still missing.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .protocols import CSV_POINTS_PER_LEG, DEFAULT_BETA, DEFAULT_CLAMP, DeltaTwoMode, peak_amplitude
from .qcore import DecayVector, IntegrationError
from .sweeps import (DEFAULT_EPSILON, DEFAULT_MAP_TOL, DEFAULT_SCENARIO_SAMPLES,
                     DEFAULT_SCENARIO_TOL, PROTOCOL_LEVELS, PROTOCOLS, SweepSpec,
                     design_schedule, run_scenario, sweep_efficiency, sweep_peak_amplitude)

__all__ = [
    "ConfigError",
    "Preset",
    "PRESETS",
    "parse_frequency",
    "format_frequency",
    "parse_angle",
    "run_cli",
    "main",
]


class ConfigError(Exception):
    """Bad command-line or config-file input; maps to exit code 2."""


_UNIT_SCALE = {"ghz": 1000.0, "mhz": 1.0, "khz": 1e-3}
_PI_FORM = re.compile(r"^([+-]?[0-9.eE+-]+)pi_([kKmMgG][hH][zZ])$")
_TWO_PI_FORM = re.compile(r"^2pi_x([+-]?[0-9.eE+-]+)_([kKmMgG][hH][zZ])$")


def parse_frequency(value) -> float:
    """Angular frequency in rad/us from a number or suffixed string (not a bool)."""
    if isinstance(value, bool):
        raise ConfigError(f"malformed frequency {value!r}; a bool is not a frequency")
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).strip()
    m = _TWO_PI_FORM.match(text)
    if m:
        return 2.0 * np.pi * float(m.group(1)) * _UNIT_SCALE[m.group(2).lower()]
    m = _PI_FORM.match(text)
    if m:
        return np.pi * float(m.group(1)) * _UNIT_SCALE[m.group(2).lower()]
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"malformed frequency {value!r}; use e.g. 30pi_MHz, "
                          f"1.8pi_GHz, 2pi_x12_MHz or a rad/us number") from None


def format_frequency(rad_per_us: float, unit: str = "MHz") -> str:
    """Canonical pi-suffix form of a rad/us value, e.g. 94.2478 -> '30pi_MHz'."""
    key = unit.lower()
    if key not in _UNIT_SCALE:
        raise ConfigError(f"unknown unit {unit!r}")
    coeff = rad_per_us / (np.pi * _UNIT_SCALE[key])
    return f"{coeff!r}pi_{unit}"


def parse_angle(value) -> float:
    """Angle in radians from a number, 'pi/X', or 'Xpi' (not a bool)."""
    if isinstance(value, bool):
        raise ConfigError(f"malformed angle {value!r}; a bool is not an angle")
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).strip()
    m = re.match(r"^pi/([0-9.eE+-]+)$", text)
    if m:
        return np.pi / float(m.group(1))
    m = re.match(r"^([0-9.eE+-]+)pi$", text)
    if m:
        return float(m.group(1)) * np.pi
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"malformed angle {value!r}; use e.g. pi/1.99 or 0.5pi") from None


def _integer(value, name: str) -> int:
    """An integral value from a flag or config file, or a ConfigError naming it."""
    if isinstance(value, bool):
        pass
    elif isinstance(value, int):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    elif isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """A real number from a flag or config file, or a ConfigError naming it.

    Numbers and numeric text pass (non-finite values are left to the
    designers' own checks); bools, lists, null and other text do not.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _named(parse, value, name: str) -> float:
    """``parse(value)``, with the key named in any ConfigError it raises."""
    try:
        return parse(value)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _parse_range(value, name: str, freq: bool) -> tuple[float, float, int]:
    if isinstance(value, (list, tuple)):
        lo, hi, count = value
    else:
        parts = str(value).split(":")
        if len(parts) != 3:
            raise ConfigError(f"ranges use min:max:count, got {value!r}")
        lo, hi, count = parts
    if freq:
        lo, hi = _named(parse_frequency, lo, name), _named(parse_frequency, hi, name)
    else:
        lo, hi = _real(lo, name), _real(hi, name)
    return lo, hi, _integer(count, "range count")


@dataclass(frozen=True)
class Preset:
    """Named molecular parameter set: decays plus suggested design values."""

    name: str
    scheme: str
    decays: tuple[float, ...]
    suggested: dict


PRESETS = {
    "rb2_lambda": Preset(
        name="rb2_lambda",
        scheme="lambda3",
        decays=(2 * np.pi * 7.2e-4, 2 * np.pi * 12.0, 2 * np.pi * 4.0e-4),
        suggested={"tf": 4.0, "delta": 1800 * np.pi, "beta": np.pi / 1.99},
    ),
    "rb2_m": Preset(
        name="rb2_m",
        scheme="m5",
        decays=(0.01, 30.0, 0.01, 30.0, 0.0),
        suggested={"tf": 8.0, "delta": 1270 * np.pi, "epsilon": 0.03},
    ),
}

# Config schema: key -> (parser, description).  Anything else is rejected.
_SCHEMA_KEYS = {
    "command", "protocol", "preset", "tf", "delta", "beta", "epsilon",
    "delta_two_mode", "delta_two_clamp", "gamma", "hold", "metric",
    "out", "tol", "n_samples", "points_per_leg",
}
_RANGE_COMMANDS = ("sweep",)


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    for key in raw:
        if key not in _SCHEMA_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    return raw


def _merge(command: str, args: argparse.Namespace) -> dict:
    """Layer defaults, preset suggestions, config file, and flags."""
    merged: dict = {"command": command}
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        cmd = file_cfg.pop("command", command)
        if cmd != command:
            raise ConfigError(
                f"config file is for command {cmd!r}, invoked as {command!r}"
            )
        merged.update(file_cfg)
    for key in _SCHEMA_KEYS - {"command"}:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag

    if merged.get("preset") is not None:
        name = merged["preset"]
        if name not in PRESETS:
            raise ConfigError(
                f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
            )
        preset = PRESETS[name]
        merged.setdefault("gamma", list(preset.decays))
        if preset.scheme == "m5":
            merged.setdefault("protocol", "chainwise")
        for key, val in preset.suggested.items():
            merged.setdefault(key, val)
    return merged


def _resolve_common(merged: dict) -> dict:
    out = dict(merged)
    ranged = out["command"] in _RANGE_COMMANDS
    if "delta" in out and not ranged:
        out["delta"] = _named(parse_frequency, out["delta"], "delta")
    if "beta" in out:
        out["beta"] = _named(parse_angle, out["beta"], "beta")
    for key in ("tf", "epsilon", "tol", "hold"):
        if key in out and not (key == "tf" and ranged):
            out[key] = _real(out[key], key)
    for key in ("n_samples", "points_per_leg"):
        if key in out:
            out[key] = _integer(out[key], key)
    if "gamma" in out:
        raw = out["gamma"]
        if isinstance(raw, str):
            raw = [p for p in raw.split(",") if p.strip()]
        elif not isinstance(raw, list):
            raise ConfigError(f"gamma must be a list or a comma-separated string, got {raw!r}")
        out["gamma"] = [_named(parse_frequency, g, "gamma") for g in raw]
    if "protocol" in out and out["protocol"] not in PROTOCOLS:
        raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {out['protocol']!r}")
    if "delta_two_mode" in out and out["delta_two_mode"] not in ("dropped", "exact_clamped"):
        raise ConfigError(
            f"delta_two_mode must be 'dropped' or 'exact_clamped', got {out['delta_two_mode']!r}"
        )
    if "delta_two_clamp" in out:
        out["delta_two_clamp"] = _named(parse_frequency, out["delta_two_clamp"], "delta_two_clamp")
    return out


def _require(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg.get(key) is None:
            raise ConfigError(f"missing required parameter {key!r}")


def _delta_two_mode(cfg: dict) -> DeltaTwoMode | None:
    mode = cfg.get("delta_two_mode")
    if mode is None:
        return None
    if mode == "dropped":
        return DeltaTwoMode.dropped()
    return DeltaTwoMode.exact_clamped(cfg.get("delta_two_clamp", DEFAULT_CLAMP))


def _decays(cfg: dict, protocol: str) -> DecayVector:
    gamma = cfg.get("gamma")
    if gamma is None:
        gamma = [0.0] * PROTOCOL_LEVELS[protocol]
    return DecayVector(np.asarray(gamma, dtype=float))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(cfg: dict, out_dir: Path) -> None:
    _write_json(out_dir / "manifest.json", {k: v for k, v in sorted(cfg.items()) if v is not None})


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_design(cfg: dict) -> int:
    _require(cfg, "protocol", "tf", "delta")
    schedule = design_schedule(
        cfg["protocol"], cfg["tf"], cfg["delta"],
        beta=cfg.get("beta", DEFAULT_BETA),
        epsilon=cfg.get("epsilon", DEFAULT_EPSILON),
        delta_two_mode=_delta_two_mode(cfg),
    )
    out = _out_dir(cfg)
    schedule.to_csv(out / "schedule.csv", points_per_leg=cfg.get("points_per_leg", CSV_POINTS_PER_LEG))
    _write_manifest(cfg, out)
    peak = peak_amplitude(schedule)
    print(f"peak_amplitude_rad_us={peak:.6f}")
    return 0


def _cmd_simulate(cfg: dict, roundtrip: bool) -> int:
    _require(cfg, "protocol", "tf", "delta")
    result = run_scenario(
        cfg["protocol"], cfg["tf"], cfg["delta"],
        decays=_decays(cfg, cfg["protocol"]),
        beta=cfg.get("beta", DEFAULT_BETA),
        epsilon=cfg.get("epsilon", DEFAULT_EPSILON),
        delta_two_mode=_delta_two_mode(cfg),
        roundtrip_hold=cfg.get("hold", 0.1) if roundtrip else None,
        tol=cfg.get("tol", DEFAULT_SCENARIO_TOL),
        n_samples=cfg.get("n_samples", DEFAULT_SCENARIO_SAMPLES),
    )
    out = _out_dir(cfg)
    result.to_csv(out / "timeseries.csv")
    _write_json(out / "summary.json", result.summary())
    _write_manifest(cfg, out)
    if roundtrip:
        print(f"roundtrip_efficiency={result.roundtrip_efficiency:.6f} "
              f"one_way_efficiency={result.one_way_efficiency:.6f}")
    else:
        print(f"final_efficiency={result.final_efficiency:.6f}")
    return 0


def _cmd_sweep(cfg: dict) -> int:
    _require(cfg, "protocol", "tf", "delta", "metric")
    if cfg["metric"] not in ("efficiency", "peak"):
        raise ConfigError(f"metric must be 'efficiency' or 'peak', got {cfg['metric']!r}")
    tf_range = _parse_range(cfg["tf"], "tf", freq=False)
    delta_range = _parse_range(cfg["delta"], "delta", freq=True)
    cfg["tf"], cfg["delta"] = list(tf_range), list(delta_range)
    spec = SweepSpec(
        protocol=cfg["protocol"],
        tf_range=tf_range,
        delta_range=delta_range,
        decays=_decays(cfg, cfg["protocol"]),
        beta=cfg.get("beta", DEFAULT_BETA),
        epsilon=cfg.get("epsilon", DEFAULT_EPSILON),
        delta_two_mode=_delta_two_mode(cfg) or DeltaTwoMode.dropped(),
        tol=cfg.get("tol", DEFAULT_MAP_TOL),
    )
    grid = sweep_peak_amplitude(spec) if cfg["metric"] == "peak" else sweep_efficiency(spec)
    out = _out_dir(cfg)
    grid.to_csv(out / "map.csv")
    _write_json(out / "map_meta.json", grid.metadata)
    _write_manifest(cfg, out)
    finite = grid.cells[np.isfinite(grid.cells)]
    if finite.size == 0:
        print(f"numerical failure: all {grid.cells.size} cells failed", file=sys.stderr)
        return 3
    print(f"cells={grid.cells.size} max={np.max(finite):.6f} "
          f"min={np.min(finite):.6f} failed={len(grid.metadata['failed_cells'])}")
    return 0


def _cmd_presets() -> int:
    for name in sorted(PRESETS):
        p = PRESETS[name]
        gams = ", ".join(f"{g:.6g}" for g in p.decays)
        sugg = ", ".join(f"{k}={v:.6g}" for k, v in p.suggested.items())
        print(f"{name}: scheme={p.scheme} decays_rad_us=[{gams}] suggested: {sugg}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="chainwise-sta",
        description="Design and verify invariant-based STA pulse schedules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--protocol", choices=PROTOCOLS)
        p.add_argument("--preset")
        p.add_argument("--tf", help="leg duration in us (sweep: min:max:count)")
        p.add_argument("--delta", help="single-photon detuning, e.g. 1.8pi_GHz "
                                       "(sweep: min:max:count)")
        p.add_argument("--beta", help="phase angle, e.g. pi/1.99")
        p.add_argument("--epsilon", type=float)
        p.add_argument("--delta-two-mode", dest="delta_two_mode",
                       choices=("dropped", "exact_clamped"))
        p.add_argument("--delta-two-clamp", dest="delta_two_clamp")
        p.add_argument("--gamma", help="comma-separated per-level decay rates")
        p.add_argument("--tol", type=float)
        p.add_argument("--out")

    p_design = sub.add_parser("design", help="synthesize a schedule and export CSV")
    common(p_design)
    p_design.add_argument("--points-per-leg", dest="points_per_leg", type=int)

    p_sim = sub.add_parser("simulate", help="design then propagate the lossy dynamics")
    common(p_sim)
    p_sim.add_argument("--n-samples", dest="n_samples", type=int)

    p_rt = sub.add_parser("roundtrip", help="forward + hold + return detection run")
    common(p_rt)
    p_rt.add_argument("--n-samples", dest="n_samples", type=int)
    p_rt.add_argument("--hold", type=float, help="dark hold between legs (us)")

    p_sweep = sub.add_parser("sweep", help="grid map over (tf, delta)")
    common(p_sweep)
    p_sweep.add_argument("--metric", choices=("efficiency", "peak"))

    sub.add_parser("presets", help="list shipped molecular presets")
    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "presets":
            return _cmd_presets()
        cfg = _resolve_common(_merge(args.command, args))
        if args.command == "design":
            return _cmd_design(cfg)
        if args.command == "simulate":
            return _cmd_simulate(cfg, roundtrip=False)
        if args.command == "roundtrip":
            return _cmd_simulate(cfg, roundtrip=True)
        if args.command == "sweep":
            return _cmd_sweep(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
