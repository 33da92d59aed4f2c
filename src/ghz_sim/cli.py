"""Command-line front end: ``ghz-sim validate | ghz | sweep``.

Unit convention at the boundary: frequency inputs labelled "MHz" are angular
frequencies with 1 MHz = 1e6 rad/s, and times are in microseconds. (The
protocol's t_1 = pi sqrt(15) / (4 Omega) only reproduces 0.34 us for
Omega = 8.95 MHz under this angular reading.) Set ``"units": "si"`` in the
config to pass rad/s and seconds through unchanged.

All emitted numbers go through one fixed 12-significant-digit lowercase
scientific format, ``"%.11e"`` (:func:`fmt`), so output files are
byte-deterministic for a fixed config. Tables are written by one numpy pass
that produces exactly those bytes (:func:`write_table`): for
1e-290 <= |x| <= 1e290 the mantissa is rint(|x| 10^(11 - e)), with e the
decimal exponent and the power of ten correctly rounded, so the scaled
value is within 2.3e-4 of the exact one and rounds the same way unless it
lies within 1e-3 of a tie; ties, values whose rounding may carry into a
13th digit, |x| outside that range, NaN and inf are formatted by Python's
own ``"%.11e"``.

Exit codes: 0 success, 1 check or accuracy failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .errors import (AccuracyError, ConfigurationError, TruncationError,
                     UntunedError)
from .fock_core import HilbertShape, ION_LABELS
from .evolution import require_resolved_step
from .ghz_protocol import (BLOCK_ANALYTIC, LAB_FRAME, MODEL_TAGS, Label,
                           ProtocolSchedule, ghz_schedule, lab_period,
                           parse_label, protocol_timeseries, pulse_times)
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

MODEL_ALIASES = dict(zip(("block", "ld", "rwa", "lab"), MODEL_TAGS))

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


def _physical_memory() -> int:
    """Bytes of physical memory: page size x physical pages."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(shape: HilbertShape, model: str, n_times: int):
    """Refuse, before anything is allocated, a run whose largest dense array
    exceeds physical memory: the (n_times, D) complex trajectory of every
    model, or the D x D complex Hamiltonian of ld, rwa and lab."""
    physical = _physical_memory()
    dim = shape.total_dim
    need, what = 16 * n_times * dim, f"its n_times = {n_times} trajectory"
    if model != BLOCK_ANALYTIC and 16 * dim * dim > need:
        need, what = 16 * dim * dim, f"its {dim} x {dim} Hamiltonian"
    if need > physical:
        raise ConfigurationError(
            f"shape {shape.vib_dim}x{shape.cav_dim} needs {need:,} bytes for "
            f"{what}, more than the {physical:,} bytes of physical memory")


def resolve_model(name: str) -> str:
    if name in MODEL_ALIASES:
        return MODEL_ALIASES[name]
    if name in MODEL_TAGS:
        return name
    raise ConfigurationError(
        f"unknown model {name!r}; choose from {sorted(MODEL_ALIASES)}")


# ---------------------------------------------------------------------------
# table writing / reading
# ---------------------------------------------------------------------------

# one value's slot: five little-endian uint32 words, 20 bytes, laid out as
# "-d.d" "dddd" "dddd" "dde+" "dd,\0" (positive: a zero byte for the "-";
# a three-digit exponent: "ddd,"); zero bytes are dropped when written
WORD = np.dtype("<u4")
EXP_MAX = 300


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The writer's lookup tables, built on first use so that importing the
    CLI (and ``--help``) does not pay for them: the four ASCII digits of
    0-9999 in one uint32 word each ("0042" is '0', '0', '4', '2' in
    memory); the word "d.d" of each two-digit lead 0-99; for each exponent
    e in [-EXP_MAX, EXP_MAX] the "e+" half word and the exponent's digits,
    with the bit shift of the separator after them; and the correctly
    rounded powers of ten 10^-279 .. 10^301 (``float("1e%d")``, not
    ``10.0 ** k``)."""
    ascii_digit = np.arange(ord("0"), ord("9") + 1, dtype=WORD)
    digits = (ascii_digit[:, None, None, None]
              | ascii_digit[:, None, None] << 8
              | ascii_digit[:, None] << 16 | ascii_digit << 24).ravel()
    lead = ((digits[:100] & 0xFF0000) >> 8 | ord(".") << 16
            | digits[:100] & 0xFF000000)
    e = np.arange(-EXP_MAX, EXP_MAX + 1)
    wide = np.abs(e) >= 100
    e_sign = (ord("e") | np.where(e < 0, ord("-"), ord("+")) << 8) << 16
    e_digits = np.where(wide, digits[np.abs(e)] >> 8, digits[np.abs(e)] >> 16)
    powers = np.array([float(f"1e{k}") for k in range(-279, 302)])
    tables = (digits, lead, e_sign.astype(WORD), e_digits,
              np.where(wide, 24, 16).astype(WORD), powers)
    for table in tables:   # shared by every call
        table.flags.writeable = False
    return tables


def format_rows(values: np.ndarray) -> bytes:
    """The bytes of one ``",".join(fmt(v) for v in row) + "\\n"`` per row of
    a 2-D float array with at least one column, in one vectorised pass (see
    :func:`write_table` for why they are the same bytes)."""
    digits, lead, e_sign, e_digits, sep_shift, powers = _format_tables()
    x = values.ravel()
    ax = np.abs(x)
    # the fast path's proven range; NaN compares False
    fast = (ax >= 1e-290) & (ax <= 1e290)
    a = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * powers[11 - e + 279]
    e += (y >= 1e12).astype(np.int64) - (y < 1e11)
    y = a * powers[11 - e + 279]
    frac = y - np.floor(y)
    fast &= (y >= 1e11) & (y < 1e12 - 1) & (np.abs(frac - 0.5) > 1e-3)
    # zero, like every value off the fast path, has mantissa 0 and e = 0
    fallback = ~fast & (ax != 0)
    mantissa = np.where(fast, np.rint(y), 0).astype(np.int64)

    sep = np.full(values.shape, ord(","), dtype=WORD)
    sep[:, -1] = ord("\n")
    sep = sep.ravel()
    e += EXP_MAX
    words = np.empty((len(x), 5), dtype=WORD)
    # the 12 digits split 2 + 4 | 4 + 2 (a product is cheaper than a %)
    high = mantissa // 10 ** 6
    low = mantissa - high * 10 ** 6
    first, third = high // 10 ** 4, low // 100
    words[:, 0] = lead[first] | np.signbit(x) * ord("-")
    words[:, 1] = digits[high - first * 10 ** 4]
    words[:, 2] = digits[third]
    words[:, 3] = digits[low - third * 100] >> 16 | e_sign[e]
    words[:, 4] = e_digits[e] | sep << sep_shift[e]
    slots = words.view(np.uint8)
    for i in np.flatnonzero(fallback):
        text = b"%.11e" % x[i]
        slots[i] = 0
        slots[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        slots[i, len(text)] = sep[i]
    return slots[slots != 0].tobytes()


def write_table(path: str, columns: list[str], rows: list[list[float]],
                file_format: str):
    """Write ``rows`` (a list of rows or a 2-D float array) under
    ``columns`` as CSV, or as JSON for "json".

    Every value is written as :func:`fmt` writes it, ``"%.11e"``, but in
    one numpy pass (:func:`format_rows`). For finite x with
    1e-290 <= |x| <= 1e290, e = floor(log10 |x|), moved by one when
    y = |x| 10^(11 - e) falls outside [1e11, 1e12), with 10^(11 - e)
    correctly rounded (a table of ``float("1e%d")``). y then carries two
    roundings, a relative error below 2.3e-16, so it is within 2.3e-4 of
    the exact |x| 10^(11 - e) < 1e12, and rint(y) is the correctly rounded
    12-digit mantissa, the one ``"%.11e"`` prints, unless y is within that
    distance of a tie. Zero is written directly. Everything else goes
    through Python's own ``"%.11e"``, whose string is copied into the row:
    y within 1e-3 of a tie; y >= 1e12 - 1, where rounding may carry into a
    13th digit (an exact value just under 1e11 whose y landed below 1e11
    arrives here after the move); |x| outside [1e-290, 1e290]; NaN and
    +-inf. The JSON rows are the CSV lines parsed back to floats, as a
    reader of the CSV would get them.
    """
    values = np.asarray(rows, dtype=float).reshape(len(rows), len(columns))
    # without columns, a row is an empty line
    body = (format_rows(values).decode("ascii") if values.size
            else "\n" * len(rows))
    if file_format == "csv":
        text = ",".join(columns) + "\n" + body
    else:
        payload = {"columns": columns, "rows": [
            list(map(float, line.split(","))) for line in body.splitlines()]}
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


def series_table(series) -> tuple[list[str], np.ndarray]:
    """Flatten a ProtocolSeries into fixed and pop_* columns. Times are
    emitted in microseconds regardless of the input unit system."""
    names, pops = population_columns(series.shape, series.populations)
    columns = ["t_us"] + names + ["fidelity", "norm", "block_leakage"]
    return columns, np.column_stack([series.times / US, pops, series.fidelity,
                                     series.norm,
                                     series.block_leakage])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    # imported here, its one use: ghz and sweep processes never load it
    from . import checks as checks_mod

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


def require_stepped(model: str, what: str, consequence: str):
    """Refuse ``what``, a dt, for a model without a time step."""
    if model != LAB_FRAME:
        raise ConfigurationError(
            f"{what} steps only the {LAB_FRAME} model; model {model} has no "
            f"time step, so {consequence}")


def resolve_run(config: dict) -> Run:
    """Check a loaded config and turn it into one run, allocating nothing
    large and evolving nothing; a null g tunes the coupling, a number is
    held as given, a dt is refused on a static model, and a lab dt must
    resolve the period of H(t)."""
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
    if dt is not None:
        require_stepped(model, f"config key dt = {config['dt']!r}",
                        "it would be ignored")
        if period is not None:
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

    if axis == "dt":
        require_stepped(resolve_model(config["model"]), "sweep axis dt",
                        "every point would be the same run")
    runs = [resolve_run(point(value)) for value in values]
    if axis == "dt":
        values = [run.dt / US for run in runs]

    # equal Hamiltonians have equal shape and block, so points sorted by
    # them run each distinct Hamiltonian back to back and evolve_static
    # diagonalises it once; rows stay in axis order, and a failing sweep
    # reports the failure of its first failing point in axis order
    def group(i: int) -> tuple:
        shape, block = runs[i].schedule.shape, runs[i].schedule.block
        return shape.vib_dim, shape.cav_dim, block.a, block.mu

    reports, failure = [None] * len(runs), None
    for i in sorted(range(len(runs)), key=group):
        if failure is not None and i > failure[0]:
            continue
        try:
            reports[i] = protocol_timeseries(*runs[i]).final
        except Exception as exc:
            failure = (i, exc)
    if failure is not None:
        raise failure[1]

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
                            pops])
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


# one parser a process: parse_args keeps every parsed value in a new
# Namespace and leaves the parser as it was, so a reused parser parses each
# argv exactly as a fresh one
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
