"""Command-line front end: ``ghz-sim validate | ghz | sweep``.

Unit convention at the boundary: frequency inputs labelled "MHz" are angular
frequencies with 1 MHz = 1e6 rad/s, and times are in microseconds. (The
protocol's t_1 = pi sqrt(15) / (4 Omega) only reproduces 0.34 us for
Omega = 8.95 MHz under this angular reading.) Set ``"units": "si"`` in the
config to pass rad/s and seconds through unchanged.

All emitted numbers go through one fixed 12-significant-digit lowercase
scientific format, ``"%.11e"`` (:func:`fmt`), so output files are
byte-deterministic for a fixed config on the same numpy and BLAS build with
the same BLAS thread count: ld and rwa outputs from 10x10 up can move in
the 12th digit between one BLAS thread and several (6x6 and lab outputs
were measured equal under both). Tables are written by one numpy pass that
produces exactly those bytes (:func:`write_table`): for
1e-99 <= |x| < 1e100 the mantissa is rint(|x| 10^(11 - e)), with e the
decimal exponent and the power of ten correctly rounded, so the scaled
value is within 2.3e-4 of the exact one and rounds the same way unless it
lies within 1e-3 of a tie. A mantissa that rounds up to 10^12 is written
as 10^11 with the exponent raised by one, as ``"%.11e"`` carries it. Ties,
values whose scaled y reaches 10^12, a carry to the three-digit exponent
e = 100, |x| outside that range, NaN and inf are formatted by Python's own
``"%.11e"``.

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
from .evolution import require_sample_times
from .ghz_protocol import (MODELS, Label, ProtocolSchedule, ghz_schedule,
                           parse_label, physical_memory, protocol_timeseries,
                           pulse_times, require_model, run_step)
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
    except (ValueError, TypeError, AttributeError):
        raise ConfigurationError(f"bad shape {text!r}, expected e.g. '6x6'")


def config_float(value) -> float | None:
    """A config value as a float when it is a JSON number or a numeric
    string; None for anything else: null, true or false (JSON booleans
    are not numbers here), a list, an object, any other string, or an
    integer too large for a float."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def build_params(config: dict) -> tuple[SystemParams, bool]:
    """SystemParams in internal units plus a flag for 'tune the coupling'."""
    units = config.get("units", "mhz")
    if units not in ("mhz", "si"):
        raise ConfigurationError(f"units must be 'mhz' or 'si', got {units!r}")
    scale = MHZ if units == "mhz" else 1.0
    tune = config["g"] is None

    def number(key: str) -> float:
        value = config_float(config[key])
        if value is None:
            raise ConfigurationError(
                f"{key} must be a number, got {config[key]!r}")
        return value

    values = {key: 0.0 if key == "g" and tune else number(key) * scale
              for key in FREQ_KEYS}
    values.update((key, number(key)) for key in ("eta_L", "eta_c", "phi"))
    try:
        params = SystemParams(**values)
    except ValueError as exc:
        raise ConfigurationError(str(exc))
    return params, tune


def config_time(config: dict, key: str) -> float | None:
    raw = config.get(key)
    if raw is None:
        return None
    value = config_float(raw)
    scale = US if config.get("units", "mhz") == "mhz" else 1.0
    # a value that underflows to 0 s is refused too
    if value is None or not (math.isfinite(value) and value * scale > 0):
        raise ConfigurationError(
            f"{key} must be a finite number > 0, got {raw!r}")
    return value * scale


# ---------------------------------------------------------------------------
# table writing / reading
# ---------------------------------------------------------------------------

# one value's slot: five little-endian uint32 words, 20 bytes, laid out as
# "-d.d" "dddd" "dddd" "dde+" "dd,\0" (positive: a zero byte for the "-");
# zero bytes are dropped when written
WORD = np.dtype("<u4")
EXP_MAX = 99   # the fast path writes two-digit exponents only


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The writer's lookup tables, built on first use so that importing the
    CLI (and ``--help``) does not pay for them: the four ASCII digits of
    0-9999 in one uint32 word each ("0042" is '0', '0', '4', '2' in
    memory); the word "d.d" of each two-digit lead 0-99; for each exponent
    e in [-EXP_MAX, EXP_MAX] the "e+" half word and the exponent's two
    digits; and the correctly rounded powers of ten 10^-90 .. 10^112
    (``float("1e%d")``, not ``10.0 ** k``)."""
    ascii_digit = np.arange(ord("0"), ord("9") + 1, dtype=WORD)
    digits = (ascii_digit[:, None, None, None]
              | ascii_digit[:, None, None] << 8
              | ascii_digit[:, None] << 16 | ascii_digit << 24).ravel()
    lead = ((digits[:100] & 0xFF0000) >> 8 | ord(".") << 16
            | digits[:100] & 0xFF000000)
    e = np.arange(-EXP_MAX, EXP_MAX + 1)
    e_sign = (ord("e") | np.where(e < 0, ord("-"), ord("+")) << 8) << 16
    powers = np.array([float(f"1e{k}") for k in range(-90, 113)])
    tables = (digits, lead, e_sign.astype(WORD), digits[np.abs(e)] >> 16,
              powers)
    for table in tables:   # shared by every call
        table.flags.writeable = False
    return tables


def format_rows(values: np.ndarray) -> bytes:
    """The bytes of one ``",".join(fmt(v) for v in row) + "\\n"`` per row of
    a 2-D float array with at least one column, in one vectorised pass (see
    :func:`write_table` for why they are the same bytes)."""
    digits, lead, e_sign, e_digits, powers = _format_tables()
    x = values.ravel()
    ax = np.abs(x)
    # the fast path's range, e within [-101, 101]; NaN compares False
    fast = (ax >= 1e-99) & (ax < 1e100)
    a = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * powers[11 - e + 90]
    e += (y >= 1e12).astype(np.int64) - (y < 1e11)
    y = a * powers[11 - e + 90]
    frac = y - np.floor(y)
    fast &= (y >= 1e11) & (y < 1e12) & (np.abs(frac - 0.5) > 1e-3)
    mantissa = np.where(fast, np.rint(y), 0).astype(np.int64)
    # a mantissa rounded up to 10^12 carries into the exponent; a carry to
    # e = 100 leaves the two-digit exponents
    carry = mantissa == 10 ** 12
    mantissa[carry] = 10 ** 11
    e += carry
    fast &= np.abs(e) <= EXP_MAX
    # zero, like every value off the fast path, is written with e = 0
    fallback = ~fast & (ax != 0)
    e = np.where(fast, e, 0) + EXP_MAX

    sep = np.full(values.shape, ord(","), dtype=WORD)
    sep[:, -1] = ord("\n")
    sep = sep.ravel()
    words = np.empty((len(x), 5), dtype=WORD)
    # the 12 digits split 2 + 4 | 4 + 2 (a product is cheaper than a %)
    high = mantissa // 10 ** 6
    low = mantissa - high * 10 ** 6
    first, third = high // 10 ** 4, low // 100
    words[:, 0] = lead[first] | np.signbit(x) * ord("-")
    words[:, 1] = digits[high - first * 10 ** 4]
    words[:, 2] = digits[third]
    words[:, 3] = digits[low - third * 100] >> 16 | e_sign[e]
    words[:, 4] = e_digits[e] | sep << 16
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
    1e-99 <= |x| < 1e100, e = floor(log10 |x|), moved by one when
    y = |x| 10^(11 - e) falls outside [1e11, 1e12), with 10^(11 - e)
    correctly rounded (a table of ``float("1e%d")``). y then carries two
    roundings, a relative error below 2.3e-16, so it is within 2.3e-4 of
    the exact |x| 10^(11 - e) < 1e12, and rint(y) is the correctly rounded
    12-digit mantissa, the one ``"%.11e"`` prints, unless y is within that
    distance of a tie. A rint(y) of 1e12 carries: it is written as
    mantissa 1e11 with exponent e + 1, as ``"%.11e"`` writes it (so is an
    exact value just under 1e11 whose y landed below 1e11 before the
    move). Zero is written directly. Everything else goes through
    Python's own ``"%.11e"``, whose string is copied into the row: y
    within 1e-3 of a tie; y >= 1e12; a carry to e = 100; |x| outside
    [1e-99, 1e100); NaN and +-inf. The JSON rows are the CSV lines parsed
    back to floats, as a reader of the CSV would get them.
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
    names = [f"pop_{ION_LABELS[s]}_{m}_{n}"
             for s, m, n in shape.levels[:, index].T]
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
    """The loaded config of a ghz or sweep command, flags applied, its
    output a file path in an existing directory."""
    config = load_config(args.config, {
        "model": args.model, "shape": args.shape, "p": args.p,
        "format": args.format, "output": args.output,
    })
    if config["format"] not in FORMATS:
        raise ConfigurationError(f"unknown output format {config['format']!r}; "
                                 f"choose from {list(FORMATS)}")
    if not (isinstance(config["output"], str) and config["output"]):
        raise ConfigurationError(
            f"output must be a file path, got {config['output']!r}")
    # refused before any point runs, not when the table is written
    directory = os.path.dirname(config["output"]) or "."
    if os.path.isdir(config["output"]) or not os.path.isdir(directory):
        raise ConfigurationError(f"output {config['output']!r} is not a "
                                 f"file path in an existing directory")
    return config


def whole_number(name: str, value) -> int:
    """``value`` as an int when it is a whole number (1, 2.0, "3"); otherwise
    a ConfigurationError that names ``name``, never a silent truncation."""
    number = config_float(value)
    if number is None or not number.is_integer():
        raise ConfigurationError(
            f"{name} must be a whole number, got {value!r}")
    return int(number)


class Run(NamedTuple):
    """One checked pulse, which ``protocol_timeseries(*run)`` evolves and
    scores; ``dt`` is the step the run takes: the config dt or else the
    default step of :func:`lab_step`, None for a model without a step."""

    schedule: ProtocolSchedule
    initial: Label
    model: str
    times: np.ndarray
    dt: float | None


def resolve_run(config: dict) -> Run:
    """Parse a loaded config into one run, evolving nothing: a null g tunes
    the coupling and a number is held as given. :func:`require_model`,
    :func:`ghz_schedule`, :func:`pulse_times` and :func:`run_step`, which
    also picks a lab run's step, refuse a run that cannot be done."""
    params, tune = build_params(config)
    p, m, n, n_times = (whole_number(key, config[key])
                        for key in ("p", "m", "n", "n_times"))
    shape = parse_shape(config["shape"])
    model = config["model"]
    initial = parse_label(config["initial"])
    dt = config_time(config, "dt")
    require_model(model, shape, n_times, dt)
    try:
        schedule = ghz_schedule(params, m=m, n=n, p=p, shape=shape, tune=tune)
    except UntunedError as exc:
        raise ConfigurationError(
            f"{exc.condition}; the config key g = {config['g']!r} is held as "
            f"given (a null g is tuned)") from None
    explicit_t = config_time(config, "t")
    if explicit_t is not None:
        schedule = replace(schedule, t_p=explicit_t)
    times = pulse_times(schedule.t_p, n_times)
    try:
        require_sample_times(times)
    except ValueError:
        raise ConfigurationError(
            f"the pulse time t = {schedule.t_p!r} s is too short for "
            f"n_times = {n_times} distinct samples; the config keys t and "
            f"n_times must give a strictly increasing time grid") from None
    return Run(schedule, initial, model, times,
               run_step(schedule, model, times, dt))


def cmd_ghz(args) -> int:
    config = _run_config(args)
    run = resolve_run(config)
    series = protocol_timeseries(*run)

    columns, rows = series_table(series)
    write_table(config["output"], columns, rows, config["format"])

    schedule = run.schedule
    print(f"ghz model={run.model} initial={config['initial']} p={schedule.p} "
          f"t_p={fmt(schedule.t_p / US)} us "
          f"tuned_g={fmt(schedule.params.g / MHZ)} MHz "
          f"fidelity={fmt(series.fidelity[-1])} "
          f"block_leakage={fmt(series.block_leakage[-1])} "
          f"output={config['output']}")
    return 0


def parse_values(text: str) -> list[float]:
    """Axis values: '0.1,0.2,0.3' or an inclusive range 'start:stop:step'."""
    text = text.strip().strip("{}")

    def number(item: str, what: str) -> float:
        try:
            return float(item)
        except ValueError:
            raise ConfigurationError(
                f"bad sweep values {text!r}: {what} {item.strip()!r} is not "
                f"a number") from None

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                f"bad range {text!r}, expected 'start:stop:step'")
        start, stop, step = (number(v, f"range {what}") for v, what in
                             zip(parts, ("start", "stop", "step")))
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigurationError(
                f"bad range {text!r}: start, stop and step must be finite")
        if step <= 0:
            raise ConfigurationError("range step must be > 0")
        # refused before the list is built, at 32 bytes a value (a float and
        # its pointer); counted as a float, an infinite count fails too
        count = float(np.floor((stop - start) / step + 1e-9)) + 1
        physical = physical_memory()
        if not 32 * count <= physical:
            raise ConfigurationError(
                f"bad range {text!r}: its {count:,.0f} points need at least "
                f"{32 * count:,.0f} bytes, more than the {physical:,} bytes "
                f"of physical memory")
        values = [start + i * step for i in range(max(int(count), 0))]
    else:
        values = [number(v, "value") for v in text.split(",") if v.strip()]
    if not values:
        raise ConfigurationError(f"no values in {text!r}")
    return values


SWEEP_AXES = ("eta_c", "eta_L", "phi", "p", "vib_dim", "cav_dim", "dt")


def cmd_sweep(args) -> int:
    """One ghz run per axis value, on the config with that key (for vib_dim
    and cav_dim, that side of shape) replaced. Every point is resolved
    before the first one runs; a row is the final row of its run. The
    first failing point in axis order stops the sweep, its message led by
    "sweep point <axis> = <value>: "."""
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

    def failed(value, exc: Exception) -> Exception:
        """``exc``, its message led by the point that raised it."""
        exc.args = (f"sweep point {axis} = {value!r}: {exc}",)
        return exc

    runs = []
    for value in values:
        try:
            runs.append(resolve_run(point(value)))
        except Exception as exc:
            raise failed(value, exc)

    # equal Hamiltonians have equal shape and block, so points sorted by
    # them run each distinct Hamiltonian back to back and evolve_static
    # diagonalises it once; rows stay in axis order, and a failing sweep
    # reports the failure of its first failing point in axis order
    def group(i: int) -> tuple:
        shape, block = runs[i].schedule.shape, runs[i].schedule.block
        return shape.vib_dim, shape.cav_dim, block.a, block.mu

    # each point's last row, its populations padded to the largest shape
    shapes = [run.schedule.shape for run in runs]
    outer = HilbertShape(vib_dim=max(sh.vib_dim for sh in shapes),
                         cav_dim=max(sh.cav_dim for sh in shapes))
    grid = np.zeros((len(runs), outer.ion_dim, outer.vib_dim, outer.cav_dim))
    scores = np.zeros((len(runs), 3))
    failure = None
    for i in sorted(range(len(runs)), key=group):
        if failure is not None and i > failure[0]:
            continue
        try:
            series = protocol_timeseries(*runs[i])
        except Exception as exc:
            failure = (i, exc)
            continue
        sh = shapes[i]
        grid[i, :, :sh.vib_dim, :sh.cav_dim] = series.populations[-1].reshape(
            sh.ion_dim, sh.vib_dim, sh.cav_dim)
        scores[i] = (series.fidelity[-1], series.norm[-1],
                     series.block_leakage[-1])
        del series   # not held through the next point's run
    if failure is not None:
        raise failed(values[failure[0]], failure[1])

    names, pops = population_columns(outer, grid.reshape(len(runs), -1))
    written = [run.dt / US for run in runs] if axis == "dt" else values
    columns = [axis, "t_p_us", "tuned_g_MHz",
               "fidelity", "norm", "block_leakage"] + names
    rows = np.column_stack([[[value, run.schedule.t_p / US,
                              run.schedule.params.g / MHZ]
                             for value, run in zip(written, runs)],
                            scores, pops])
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
    common.add_argument("--model", help=" | ".join(MODELS))
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
