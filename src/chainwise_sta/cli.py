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
``SOURCE_DATE_EPOCH`` to pin the map timestamp).  Every key is declared
once, in ``_KEYS``, with the commands that take it; a flag and the same
config key go through one converter, and a key the command does not take
is rejected either way, as is a design key that the chosen protocol does
not read (``sweeps.design_options``) and ``gamma`` or ``tol`` given to a
peak sweep, which propagates nothing.  Flags override config values;
preset suggestions fill the command's keys still missing, except the
keys a peak sweep does not read.

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

from .protocols import DeltaTwoMode, peak_amplitude
from .qcore import DecayVector, IntegrationError
from .sweeps import (PROTOCOL_LEVELS, PROTOCOLS, SweepSpec, design_options, design_schedule,
                     run_scenario, sweep_efficiency, sweep_peak_amplitude)

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
    try:
        m = _TWO_PI_FORM.match(text)
        if m:
            return 2.0 * np.pi * float(m.group(1)) * _UNIT_SCALE[m.group(2).lower()]
        m = _PI_FORM.match(text)
        if m:
            return np.pi * float(m.group(1)) * _UNIT_SCALE[m.group(2).lower()]
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
    try:
        m = re.match(r"^pi/([0-9.eE+-]+)$", text)
        if m:
            return np.pi / float(m.group(1))
        m = re.match(r"^([0-9.eE+-]+)pi$", text)
        if m:
            return float(m.group(1)) * np.pi
        return float(text)
    except (ValueError, ZeroDivisionError):
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


_frequency = functools.partial(_named, parse_frequency)
_angle = functools.partial(_named, parse_angle)


def _rates(value, name: str) -> list[float]:
    """Per-level decay rates from a list or a comma-separated string."""
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    elif not isinstance(value, list):
        raise ConfigError(f"{name} must be a list or a comma-separated string, got {value!r}")
    return [_frequency(g, name) for g in value]


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _one_of(choices: tuple[str, ...]):
    def convert(value, name: str) -> str:
        if value not in choices:
            raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
        return value
    return convert


def _range(convert):
    """A sweep axis, ``min:max:count`` or a 3-list, with both bounds through ``convert``."""
    def parse(value, name: str) -> list:
        parts = list(value) if isinstance(value, (list, tuple)) else str(value).split(":")
        if len(parts) != 3:
            raise ConfigError(f"{name}: ranges use min:max:count, got {value!r}")
        lo, hi, count = parts
        return [convert(lo, name), convert(hi, name), _integer(count, f"{name} count")]
    return parse


@dataclass(frozen=True)
class Preset:
    """Named molecular parameter set: decays plus a suggested operating point.

    ``suggested`` fills ``tf`` and ``delta`` when a command lacks them; it
    suggests no design option, so every protocol runs a preset with its
    designer's defaults unless told otherwise.
    """

    name: str
    scheme: str
    decays: tuple[float, ...]
    suggested: dict


PRESETS = {
    "rb2_lambda": Preset(
        name="rb2_lambda",
        scheme="lambda3",
        decays=(2 * np.pi * 7.2e-4, 2 * np.pi * 12.0, 2 * np.pi * 4.0e-4),
        suggested={"tf": 4.0, "delta": 1800 * np.pi},
    ),
    "rb2_m": Preset(
        name="rb2_m",
        scheme="m5",
        decays=(0.01, 30.0, 0.01, 30.0, 0.0),
        suggested={"tf": 8.0, "delta": 1270 * np.pi},
    ),
}

_POINT = ("design", "simulate", "roundtrip")
_RUNS = (*_POINT, "sweep")
_LOSSY = ("simulate", "roundtrip", "sweep")


def _for(commands: tuple[str, ...], convert) -> dict:
    return dict.fromkeys(commands, convert)


# Every flag and config key: (command -> converter, help).  A command takes
# exactly the keys that list it; flag and file values go through the same
# converter, which names the key in any error.
_KEYS = {
    "protocol": (_for(_RUNS, _one_of(PROTOCOLS)), "pulse protocol"),
    "preset": (_for(_RUNS, _one_of(tuple(PRESETS))),
               "molecular preset; its suggestions fill keys still missing"),
    "tf": ({**_for(_POINT, _real), "sweep": _range(_real)},
           "leg duration in us (sweep: min:max:count)"),
    "delta": ({**_for(_POINT, _frequency), "sweep": _range(_frequency)},
              "single-photon detuning, e.g. 1.8pi_GHz (sweep: min:max:count)"),
    "beta": (_for(_RUNS, _angle), "phase angle, e.g. pi/1.99"),
    "epsilon": (_for(_RUNS, _real), "chainwise angle parameter"),
    "delta_two_mode": (_for(_RUNS, _one_of(("dropped", "exact_clamped"))),
                       "two-photon detuning: dropped or exact_clamped"),
    "delta_two_clamp": (_for(_RUNS, _frequency), "clamp of the exact_clamped two-photon detuning"),
    "gamma": (_for(_LOSSY, _rates), "comma-separated per-level decay rates"),
    "tol": (_for(_LOSSY, _real), "propagation tolerance"),
    "n_samples": (_for(("simulate", "roundtrip"), _integer), "output samples"),
    "hold": (_for(("roundtrip",), _real), "dark hold between legs (us)"),
    "points_per_leg": (_for(("design",), _integer), "schedule.csv rows per leg"),
    "metric": (_for(("sweep",), _one_of(("efficiency", "peak"))), "map metric: efficiency or peak"),
    "out": (_for(_RUNS, _text), "output directory"),
}

# The sweep keys that a peak map, pure design with no propagation, does not read.
_PEAK_UNREAD = ("gamma", "tol")


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
    return raw


def _convert(command: str, key: str, value):
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    convert = _KEYS[key][0].get(command)
    if convert is None:
        raise ConfigError(f"{command} does not take {key!r}")
    return convert(value, key)


def _resolve(args: argparse.Namespace) -> dict:
    """The command's parameters, each converted once: the config file, the
    flags over it, then preset suggestions for keys the command takes and
    still lacks."""
    command = args.command
    file_cfg = _load_config_file(args.config) if args.config is not None else {}
    file_command = file_cfg.pop("command", command)
    if file_command != command:
        raise ConfigError(f"config file is for command {file_command!r}, invoked as {command!r}")
    flags = {k: v for k, v in vars(args).items() if k in _KEYS and v is not None}
    cfg = {"command": command}
    for key, value in [*file_cfg.items(), *flags.items()]:
        cfg[key] = _convert(command, key, value)
    unread = _PEAK_UNREAD if cfg.get("metric") == "peak" else ()
    for key in unread:
        if key in cfg:
            raise ConfigError(f"a peak sweep does not read {key!r}")
    if "preset" in cfg:
        preset = PRESETS[cfg["preset"]]
        suggested = {"gamma": list(preset.decays), **preset.suggested}
        if preset.scheme == "m5":
            suggested["protocol"] = "chainwise"
        for key, value in suggested.items():
            if key not in cfg and key not in unread and command in _KEYS[key][0]:
                cfg[key] = _convert(command, key, value)
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    for key in keys:
        if key not in cfg:
            raise ConfigError(f"missing required parameter {key!r}")


def _given(cfg: dict, *keys: str) -> dict:
    """The keys the command was given; the library's defaults fill the rest."""
    return {key: cfg[key] for key in keys if key in cfg}


def _design_options(cfg: dict) -> dict:
    """The designer options the command was given, under the designer's
    names (``delta_two_mode`` and ``delta_two_clamp`` make ``mode``); a
    design key that the protocol does not read is a ConfigError naming it."""
    if "delta_two_clamp" in cfg and cfg.get("delta_two_mode") != "exact_clamped":
        raise ConfigError("delta_two_clamp needs delta_two_mode 'exact_clamped'")
    protocol = cfg["protocol"]
    for key, option in (("beta", "beta"), ("epsilon", "epsilon"), ("delta_two_mode", "mode")):
        if key in cfg and option not in design_options(protocol):
            raise ConfigError(f"protocol {protocol} does not read {key!r}")
    options = _given(cfg, "beta", "epsilon")
    if "delta_two_mode" in cfg:
        clamp = {"limit": cfg["delta_two_clamp"]} if "delta_two_clamp" in cfg else {}
        options["mode"] = DeltaTwoMode(cfg["delta_two_mode"], **clamp)
    return options


def _decays(cfg: dict, protocol: str) -> DecayVector:
    gamma = cfg.get("gamma")
    if gamma is None:
        gamma = [0.0] * PROTOCOL_LEVELS[protocol]
    return DecayVector(np.asarray(gamma, dtype=float))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_design(cfg: dict) -> int:
    _require(cfg, "protocol", "tf", "delta")
    schedule = design_schedule(cfg["protocol"], cfg["tf"], cfg["delta"], **_design_options(cfg))
    out = _out_dir(cfg)
    schedule.to_csv(out / "schedule.csv", **_given(cfg, "points_per_leg"))
    _write_json(out / "manifest.json", cfg)
    peak = peak_amplitude(schedule)
    print(f"peak_amplitude_rad_us={peak:.6f}")
    return 0


def _cmd_simulate(cfg: dict) -> int:
    """Both ``simulate`` and ``roundtrip``."""
    _require(cfg, "protocol", "tf", "delta")
    roundtrip = cfg["command"] == "roundtrip"
    result = run_scenario(
        cfg["protocol"], cfg["tf"], cfg["delta"],
        decays=_decays(cfg, cfg["protocol"]),
        **_design_options(cfg),
        roundtrip_hold=cfg.get("hold", 0.1) if roundtrip else None,
        **_given(cfg, "tol", "n_samples"),
    )
    out = _out_dir(cfg)
    result.to_csv(out / "timeseries.csv")
    _write_json(out / "summary.json", result.summary())
    _write_json(out / "manifest.json", cfg)
    if roundtrip:
        print(f"roundtrip_efficiency={result.final_efficiency:.6f} "
              f"one_way_efficiency={result.one_way_efficiency:.6f}")
    else:
        print(f"final_efficiency={result.final_efficiency:.6f}")
    return 0


def _cmd_sweep(cfg: dict) -> int:
    _require(cfg, "protocol", "tf", "delta", "metric")
    spec = SweepSpec(cfg["protocol"], tuple(cfg["tf"]), tuple(cfg["delta"]), _design_options(cfg))
    if cfg["metric"] == "peak":
        grid = sweep_peak_amplitude(spec)
    else:
        grid = sweep_efficiency(spec, _decays(cfg, cfg["protocol"]), **_given(cfg, "tol"))
    out = _out_dir(cfg)
    grid.to_csv(out / "map.csv")
    _write_json(out / "map_meta.json", grid.metadata)
    _write_json(out / "manifest.json", cfg)
    finite = grid.cells[np.isfinite(grid.cells)]
    if finite.size == 0:
        print(f"numerical failure: all {grid.cells.size} cells failed", file=sys.stderr)
        return 3
    print(f"cells={grid.cells.size} max={np.max(finite):.6f} "
          f"min={np.min(finite):.6f} failed={len(grid.metadata['failed_cells'])}")
    return 0


def _cmd_presets(cfg: dict) -> int:
    for name in sorted(PRESETS):
        p = PRESETS[name]
        gams = ", ".join(f"{g:.6g}" for g in p.decays)
        sugg = ", ".join(f"{k}={v:.6g}" for k, v in p.suggested.items())
        print(f"{name}: scheme={p.scheme} decays_rad_us=[{gams}] suggested: {sugg}")
    return 0


_COMMANDS = {
    "design": (_cmd_design, "synthesize a schedule and export CSV"),
    "simulate": (_cmd_simulate, "design then propagate the lossy dynamics"),
    "roundtrip": (_cmd_simulate, "forward + hold + return detection run"),
    "sweep": (_cmd_sweep, "grid map over (tf, delta)"),
    "presets": (_cmd_presets, "list shipped molecular presets"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="chainwise-sta",
        description="Design and verify invariant-based STA pulse schedules. "
                    "Each flag lists the commands that take it; any other "
                    "command rejects it, as a flag or as a config key.",
    )
    parser.add_argument("command", help="; ".join(f"{name}: {text}"
                                                  for name, (_, text) in _COMMANDS.items()))
    parser.add_argument("--config", help="JSON config file; flags override it")
    for key, (takes, text) in _KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), help=f"{text} [{' '.join(takes)}]")
    return parser


def run_cli(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command not in _COMMANDS:
            raise ConfigError(f"unknown command {args.command!r}; use one of {tuple(_COMMANDS)}")
        return _COMMANDS[args.command][0](_resolve(args))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
