"""Command-line front end: ``ghz-sim validate | ghz | sweep``.

Unit convention at the boundary: frequency inputs labelled "MHz" are angular
frequencies with 1 MHz = 1e6 rad/s, and times are in microseconds. (The
protocol's t_1 = pi sqrt(15) / (4 Omega) only reproduces 0.34 us for
Omega = 8.95 MHz under this angular reading.) Set ``"units": "si"`` in the
config to pass rad/s and seconds through unchanged.

All emitted numbers go through one fixed 12-significant-digit lowercase
scientific format, so output files are byte-deterministic for a fixed config.

Exit codes: 0 success, 1 check or accuracy failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import checks as checks_mod
from .errors import (AccuracyError, ConfigurationError, TruncationError,
                     UntunedError)
from .fock_core import HilbertShape, ION_LABELS
from .evolution import require_resolved_step
from .ghz_protocol import (Label, ProtocolSchedule, _physical_memory,
                           ghz_schedule, lab_period, parse_label,
                           protocol_timeseries, pulse_times, require_memory)
from .hamiltonian import SystemParams

MHZ = 1e6   # angular rad/s per "MHz" at the config boundary
US = 1e-6   # seconds per microsecond

FREQ_KEYS = ("Omega", "g", "nu", "omega_0", "omega_c", "omega_L")

DEFAULT_CONFIG = {
    "units": "mhz",
    # scaled resonant hierarchy: nu = 20 Omega, omega_0 = 200 nu
    "Omega": 8.95,
    "g": None,            # null -> tune for the GHZ condition
    "eta_L": 0.05,
    "eta_c": 0.05,
    "nu": 179.0,
    "omega_0": 35800.0,
    "omega_c": 35621.0,
    "omega_L": 35800.0,
    "phi": 0.0,
    "model": "block",
    "shape": "6x6",
    "initial": "g,0,0",
    "p": 1,
    "m": 1,
    "n": 1,
    "t": None,            # optional explicit pulse time (us, or s for si units)
    "dt": None,           # lab-frame RK4 step cap in the laser frame (us / s)
    "n_times": 101,
    "format": "csv",
    "output": "ghz_series.csv",
}

MODEL_ALIASES = {"block": "block_analytic", "ld": "ld_full",
                 "rwa": "rwa_full", "lab": "lab_frame"}

FORMATS = ("csv", "json")


def fmt(x: float) -> str:
    """Fixed float formatting: 12 significant digits, lowercase scientific."""
    return f"{float(x):.11e}"


def load_config(path: str | None, overrides: dict) -> dict:
    config = dict(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"config {path}: invalid JSON ({exc})")
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config {path}: expected a JSON object")
        unknown = set(loaded) - set(DEFAULT_CONFIG)
        if unknown:
            raise ConfigurationError(
                f"config {path}: unknown field(s) {sorted(unknown)}")
        config.update(loaded)
    # flags win over file values
    config.update({k: v for k, v in overrides.items() if v is not None})
    return config


def parse_shape(text: str) -> HilbertShape:
    try:
        vib, cav = text.lower().split("x")
        return HilbertShape(vib_dim=int(vib), cav_dim=int(cav))
    except (ValueError, TypeError):
        raise ConfigurationError(f"bad shape {text!r}, expected e.g. '6x6'")


def build_params(config: dict) -> tuple[SystemParams, bool]:
    """SystemParams in internal units plus a flag for 'tune the coupling'."""
    units = config.get("units", "mhz")
    if units not in ("mhz", "si"):
        raise ConfigurationError(f"units must be 'mhz' or 'si', got {units!r}")
    scale = MHZ if units == "mhz" else 1.0
    tune = config["g"] is None
    values = {}
    for key in FREQ_KEYS:
        raw = config[key]
        values[key] = 0.0 if raw is None else float(raw) * scale
    try:
        params = SystemParams(eta_L=float(config["eta_L"]),
                              eta_c=float(config["eta_c"]),
                              phi=float(config["phi"]), **values)
    except ValueError as exc:
        raise ConfigurationError(str(exc))
    return params, tune


def config_time(config: dict, key: str) -> float | None:
    raw = config.get(key)
    if raw is None:
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(
            f"{key} must be a finite number > 0, got {raw!r}")
    scale = US if config.get("units", "mhz") == "mhz" else 1.0
    return value * scale


def resolve_model(name: str) -> str:
    if name in MODEL_ALIASES:
        return MODEL_ALIASES[name]
    if name in MODEL_ALIASES.values():
        return name
    raise ConfigurationError(
        f"unknown model {name!r}; choose from {sorted(MODEL_ALIASES)}")


# ---------------------------------------------------------------------------
# table writing / reading
# ---------------------------------------------------------------------------

def write_table(path: str, columns: list[str], rows: list[list[float]],
                file_format: str):
    """Write ``rows`` under ``columns`` as CSV, or as JSON for "json"."""
    # one %-format per row writes the same bytes as joining fmt of each value
    row_format = ",".join(["%.11e"] * len(columns))
    lines = [row_format % tuple(row) for row in rows]
    if file_format == "csv":
        text = "\n".join([",".join(columns)] + lines) + "\n"
    else:
        payload = {"columns": columns, "rows": [
            list(map(float, line.split(","))) for line in lines]}
        text = json.dumps(payload, indent=1) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_table(path: str) -> tuple[list[str], list[list[float]]]:
    """Re-parse a file written by :func:`write_table`, JSON or CSV by its
    first character."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return list(payload["columns"]), [list(map(float, r))
                                          for r in payload["rows"]]
    lines = [ln for ln in text.splitlines() if ln]
    columns = lines[0].split(",")
    return columns, [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def population_columns(shape: HilbertShape, populations: np.ndarray
                       ) -> tuple[list[str], np.ndarray]:
    """pop_* names and values of the basis states of ``shape`` whose floored
    population is nonzero in any row of ``populations``, in index order."""
    index = np.flatnonzero(populations.any(axis=0))
    ion, m, n = np.unravel_index(index, (shape.ion_dim, shape.vib_dim,
                                         shape.cav_dim))
    names = [f"pop_{ION_LABELS[s]}_{a}_{b}" for s, a, b in zip(ion, m, n)]
    return names, populations[:, index]


def series_table(series) -> tuple[list[str], list[list[float]]]:
    """Flatten a ProtocolSeries into fixed and pop_* columns. Times are
    emitted in microseconds regardless of the input unit system."""
    names, pops = population_columns(series.shape, series.populations)
    columns = ["t_us"] + names + ["fidelity", "norm", "block_leakage"]
    return columns, np.column_stack([series.times / US, pops, series.fidelity,
                                     series.norm,
                                     series.block_leakage]).tolist()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    if args.list:
        for name in checks_mod.CHECK_NAMES:
            print(name)
        return 0
    results = checks_mod.run_checks()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} measured={fmt(res.measured)} "
              f"threshold={fmt(res.threshold)} ({res.detail})")
    failed = [res.name for res in results if not res.passed]
    if failed:
        print(f"validate: {len(failed)} check(s) failed: {', '.join(failed)}")
        return 1
    print(f"validate: all {len(results)} checks passed")
    return 0


def _run_config(args) -> dict:
    """The loaded config of a ghz or sweep command, flags applied."""
    config = load_config(args.config, {
        "model": args.model, "shape": args.shape, "p": args.p,
        "format": args.format, "output": args.output,
    })
    if config["format"] not in FORMATS:
        raise ConfigurationError(f"unknown output format {config['format']!r}; "
                                 f"choose from {list(FORMATS)}")
    return config


def whole_number(name: str, value) -> int:
    """``value`` as an int when it is a whole number (1, 2.0, "3"); otherwise
    a ConfigurationError that names ``name``, never a silent truncation."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not number.is_integer():
        raise ConfigurationError(
            f"{name} must be a whole number, got {value!r}")
    return int(number)


class Run(NamedTuple):
    """One checked pulse, its fields the arguments of protocol_timeseries
    in order: ``protocol_timeseries(*run)`` evolves and scores it."""

    schedule: ProtocolSchedule
    initial: Label
    model: str
    times: np.ndarray
    dt: float | None


def resolve_run(config: dict) -> Run:
    """Check a loaded config and turn it into one run, allocating nothing
    large and evolving nothing; a null g tunes the coupling, a number is
    held as given, and a lab dt must resolve the period of H(t)."""
    params, tune = build_params(config)
    p, m, n, n_times = (whole_number(key, config[key])
                        for key in ("p", "m", "n", "n_times"))
    shape = parse_shape(config["shape"])
    model = resolve_model(config["model"])
    initial = parse_label(config["initial"])
    require_memory(shape, model, n_times)
    try:
        schedule = ghz_schedule(params, m=m, n=n, p=p, shape=shape, tune=tune)
    except UntunedError as exc:
        raise ConfigurationError(
            f"{exc.condition}; the config key g = {config['g']!r} is held as "
            f"given (a null g is tuned)") from None
    explicit_t = config_time(config, "t")
    if explicit_t is not None:
        schedule = replace(schedule, t_p=explicit_t)
    dt, period = config_time(config, "dt"), lab_period(params)
    if model == "lab_frame" and dt is not None and period is not None:
        require_resolved_step(dt, period)
    return Run(schedule, initial, model, pulse_times(schedule.t_p, n_times),
               dt)


def cmd_ghz(args) -> int:
    config = _run_config(args)
    run = resolve_run(config)
    series = protocol_timeseries(*run)

    columns, rows = series_table(series)
    write_table(config["output"], columns, rows, config["format"])

    final, schedule = series.final, run.schedule
    print(f"ghz model={run.model} initial={config['initial']} p={schedule.p} "
          f"t_p={fmt(schedule.t_p / US)} us "
          f"tuned_g={fmt(schedule.params.g / MHZ)} MHz "
          f"fidelity={fmt(final.fidelity)} block_leakage={fmt(final.block_leakage)} "
          f"output={config['output']}")
    return 0


def parse_values(text: str) -> list[float]:
    """Axis values: '0.1,0.2,0.3' or an inclusive range 'start:stop:step'."""
    text = text.strip().strip("{}")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                f"bad range {text!r}, expected 'start:stop:step'")
        start, stop, step = (float(v) for v in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigurationError(
                f"bad range {text!r}: start, stop and step must be finite")
        if step <= 0:
            raise ConfigurationError("range step must be > 0")
        # refused before the list is built, at 32 bytes a value (a float and
        # its pointer); counted as a float, an infinite count fails too
        count = float(np.floor((stop - start) / step + 1e-9)) + 1
        physical = _physical_memory()
        if not 32 * count <= physical:
            raise ConfigurationError(
                f"bad range {text!r}: its {count:,.0f} points need at least "
                f"{32 * count:,.0f} bytes, more than the {physical:,} bytes "
                f"of physical memory")
        values = [start + i * step for i in range(max(int(count), 0))]
    else:
        values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ConfigurationError(f"no values in {text!r}")
    return values


SWEEP_AXES = ("eta_c", "eta_L", "phi", "p", "vib_dim", "cav_dim", "dt")


def cmd_sweep(args) -> int:
    """One ghz run per axis value, on the config with that key (for vib_dim
    and cav_dim, that side of shape) replaced. Every point is resolved
    before the first one runs; a row is the final row of its run."""
    config, axis = _run_config(args), args.axis
    if config["t"] is not None:
        raise ConfigurationError(
            f"sweep does not take the config key t (got {config['t']!r}): "
            f"every sweep point runs its own scheduled pulse time")
    if axis not in SWEEP_AXES:
        raise ConfigurationError(f"unknown sweep axis {axis!r}; valid axes: "
                                 f"{', '.join(SWEEP_AXES)}")
    values = parse_values(args.values)
    if axis in ("p", "vib_dim", "cav_dim"):
        values = [whole_number(f"{axis} value", v) for v in values]

    def point(value) -> dict:
        if axis in ("vib_dim", "cav_dim"):
            shape = replace(parse_shape(config["shape"]), **{axis: value})
            return {**config, "shape": f"{shape.vib_dim}x{shape.cav_dim}"}
        return {**config, axis: value}

    runs = [resolve_run(point(value)) for value in values]
    if axis == "dt":
        if runs[0].model != "lab_frame":
            raise ConfigurationError(
                f"sweep axis dt steps only the lab_frame model; model "
                f"{runs[0].model} has no time step, so every point would be "
                f"the same run")
        values = [run.dt / US for run in runs]
    reports = [protocol_timeseries(*run).final for run in runs]

    # a vib_dim/cav_dim sweep's points differ in shape: pad to the largest
    shapes = [run.schedule.shape for run in runs]
    outer = HilbertShape(vib_dim=max(sh.vib_dim for sh in shapes),
                         cav_dim=max(sh.cav_dim for sh in shapes))
    grid = np.zeros((len(runs), outer.ion_dim, outer.vib_dim, outer.cav_dim))
    for cube, report, sh in zip(grid, reports, shapes):
        cube[:, :sh.vib_dim, :sh.cav_dim] = report.populations.reshape(
            sh.ion_dim, sh.vib_dim, sh.cav_dim)
    names, pops = population_columns(outer, grid.reshape(len(runs), -1))
    columns = [axis, "t_p_us", "tuned_g_MHz",
               "fidelity", "norm", "block_leakage"] + names
    rows = np.column_stack([[[value, run.schedule.t_p / US,
                              run.schedule.params.g / MHZ,
                              report.fidelity, report.norm,
                              report.block_leakage]
                             for value, run, report in zip(values, runs,
                                                           reports)],
                            pops]).tolist()
    write_table(config["output"], columns, rows, config["format"])
    print(f"sweep axis={axis} points={len(runs)} model={runs[0].model} "
          f"output={config['output']}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghz-sim",
        description="Simulate single-step tripartite GHZ generation for a "
                    "trapped ion in an optical cavity.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--output", help="output file path")
    common.add_argument("--format", choices=FORMATS)
    common.add_argument("--model", help="block | ld | rwa | lab")
    common.add_argument("--shape", help="truncation, e.g. 6x6 (vib x cav)")
    common.add_argument("--p", type=int, help="pulse index p >= 1")

    p_val = sub.add_parser("validate", help="run the consistency checks")
    p_val.add_argument("--list", action="store_true",
                       help="print check names without running")
    p_val.set_defaults(handler=cmd_validate)

    p_ghz = sub.add_parser("ghz", parents=[common],
                           help="run one GHZ pulse and write the time series")
    p_ghz.set_defaults(handler=cmd_ghz)

    p_sweep = sub.add_parser(
        "sweep", parents=[common],
        help="one ghz pulse per value of one config key, one row each; a "
             "null g is tuned at every point, a number is held")
    p_sweep.add_argument("axis", help="one of eta_c, eta_L, phi, p, vib_dim, "
                                      "cav_dim (one side of shape), dt (lab "
                                      "model only, written in us)")
    p_sweep.add_argument("values", help="comma list '0.02,0.05' or range "
                                        "'0:1.5:0.25'")
    p_sweep.set_defaults(handler=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (AccuracyError, TruncationError) as exc:
        print(f"ghz-sim: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, ValueError, IndexError, OSError) as exc:
        print(f"ghz-sim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
