"""Every refusal of the ``ghz`` and ``sweep`` commands in one table,
``REFUSALS``, and one set of invariants that runs on each row.

The contract: bad input exits 2 and an accuracy or truncation failure exits
1, with exactly one stderr line, ``ghz-sim: <message>``, a sweep point's
message led by ``sweep point <axis> = <value>: ``; stdout stays empty and
nothing is written. A refusal comes at the first stage that can see it, and
a row declares that stage exactly:

- ``config``: before any point is resolved (no ``cli.resolve_run`` call);
- ``resolve``: before any run starts (no ``cli.protocol_timeseries`` call);
- ``score``: before any state is evolved (no ``ghz_protocol._evolve_states``
  call);
- ``run``: after a run, as the truncation guard refuses.

Every stage but ``run`` refuses within 1 s. Where a library function owns
the rule (``require_model``, ``ghz_schedule``, ``pulse_times``,
``lab_step``), the row's ``twin`` calls it, and it must raise the same text.

To add a refusal, add one row: its id, exact message, config, flags,
commands, sweep point, stage, exit code and, where the library owns the
rule, its twin. A run writes its config to ``run.json`` and its output to
``x.csv`` in an empty directory, unless the row names either itself.
"""

import json
import math
import os
import re
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import pytest

from ghz_sim import cli, ghz_protocol
from ghz_sim.cli import DEFAULT_CONFIG, FREQ_KEYS, SWEEP_AXES, main
from ghz_sim.errors import ConfigurationError
from ghz_sim.fock_core import HilbertShape
from ghz_sim.ghz_protocol import (ghz_schedule, lab_step, physical_memory,
                                  protocol_timeseries, pulse_times,
                                  require_model)
from ghz_sim.hamiltonian import rotating_frame_source

from conftest import LAB_HIERARCHY

STAGES = ("config", "resolve", "score", "run")

GHZ = ("ghz",)
SWEEP = ("sweep", "eta_c", "0.05")   # a one-point sweep of the config
BOTH = (GHZ, SWEEP)
AT = "eta_c = 0.05"                  # the point of SWEEP
LAB = ("--model", "lab")
SMALL = ("--model", "block", "--shape", "2x2")
STATIC = ("block", "ld", "rwa")
MODEL_NAMES = "['block', 'lab', 'ld', 'rwa']"
MEMORY = f"more than the {physical_memory():,} bytes of physical memory"
# omega_L = 0: H is static and no period caps the default step, which the
# spectral radius of H (set by the optical omega_0) makes tiny
OPTICAL = {"omega_L": 0, "omega_0": 3580000, "omega_c": 3579821}
# omega_L = omega_0 = omega_c = 0: the spectral radius of H(0) alone sets
# the default step
DARK = {"omega_L": 0, "omega_0": 0, "omega_c": 0}
HALF_PI = "1.5707963267948966"
PERIOD_US = 2 * math.pi / 35800.0   # the laser period of the default config


def schedule(config=None, shape="6x6", **levels):
    """The library's schedule of a config, its params built as the CLI
    builds them."""
    params, tune = cli.build_params({**DEFAULT_CONFIG, **(config or {})})
    return ghz_schedule(params, shape=cli.parse_shape(shape), tune=tune,
                        **levels)


def lab(config=None, shape="6x6", p=1, t=None, dt=None):
    """:func:`lab_step` of a config's lab run to 101 samples over t (s), by
    default the scheduled pulse."""
    run = schedule(config, shape, p=p)
    return lab_step(run.params, rotating_frame_source(run.params, run.shape),
                    pulse_times(t or run.t_p, 101), dt)


def model_run(model, vib=6, cav=6, dt=None):
    """A run of the default pulse under ``model`` through the library's
    entry, :func:`protocol_timeseries`, which :func:`require_model` guards
    before anything is built."""
    def run():
        pulse = schedule(shape=f"{vib}x{cav}")
        return protocol_timeseries(pulse, ("g", 0, 0), model,
                                   pulse_times(pulse.t_p, 101), dt)
    return run


@dataclass(frozen=True)
class Refusal:
    id: str
    message: str
    config: dict | str | None = None   # run.json: a dict's JSON, or raw text
    argv: tuple[str, ...] = ()         # flags given to every command
    commands: tuple[tuple[str, ...], ...] = (GHZ,)
    point: str | None = None           # "<axis> = <value>" of a sweep's lead
    stage: str = "resolve"
    code: int = 2
    twin: Callable[[], object] | None = None


def too_small(vib, cav, m=1, n=1):
    return (f"shape {vib}x{cav} cannot hold the (m, n) = ({m}, {n}) block; "
            f"the smallest shape that holds it is {m + 1}x{n + 1}")


def needs(shape, count, what):
    return f"shape {shape} needs {count} bytes for its {what}, {MEMORY}"


def held(ratio, p="1", required="4", g="500"):
    return (f"params are not tuned for a GHZ pulse with p={p}: mu/a = "
            f"{ratio}, required {required}; the config key g = {g} is held as "
            f"given (a null g is tuned)")


def default_step(dt, steps, t, radius):
    return (f"the default lab step dt is at most {dt} s and takes about "
            f"{steps} RK4 steps or more over 101 sample times, more than "
            f"MAX_RK4_STEPS = 1,000,000; that step is the largest that keeps "
            f"the RK4 norm drift below its target over t = {t} s at the "
            f"spectral radius of H, which is at least {radius} rad/s, so give "
            f"a config dt, shorten the pulse (t or p) or use a smaller shape")


def rk4_steps(dt, steps):
    return (f"dt = {dt} s takes about {steps} RK4 steps over 101 sample "
            f"times, more than MAX_RK4_STEPS = 1,000,000; raise dt")


def guard(dt, dt_max, period):
    return (f"dt = {dt} violates the resolution guard dt <= T / 50 = "
            f"{dt_max} (T = {period}, the period of H(t))")


def truncation(population, shape):
    return (f"top-level population {population} exceeds 1.0e-04; rerun with "
            f"a shape larger than {shape}")


# config values of a wrong type, refused by ghz and by a sweep point
TYPED = [
    ({"eta_L": None}, "eta_L must be a number, got None"),
    ({"eta_c": None}, "eta_c must be a number, got None"),
    ({"Omega": [1]}, "Omega must be a number, got [1]"),
    ({"Omega": None}, "Omega must be a number, got None"),
    ({"nu": None, "model": "block"}, "nu must be a number, got None"),
    ({"omega_0": None}, "omega_0 must be a number, got None"),
    ({"omega_c": None}, "omega_c must be a number, got None"),
    ({"omega_L": None}, "omega_L must be a number, got None"),
    ({"phi": "x"}, "phi must be a number, got 'x'"),
    ({"g": "x"}, "g must be a number, got 'x'"),
    ({"g": True}, "g must be a number, got True"),
    ({"units": "gauss"}, "units must be 'mhz' or 'si', got 'gauss'"),
    ({"units": None}, "units must be 'mhz' or 'si', got None"),
    ({"initial": None},
     "bad initial state label None, expected e.g. 'g,0,0'"),
    ({"p": True}, "p must be a whole number, got True"),
    ({"model": []}, f"unknown model []; choose from {MODEL_NAMES}"),
]

REFUSALS = [
    # the config file, the output path and the sweep's own arguments
    Refusal("config-missing", "config missing.json: [Errno 2] No such file "
            "or directory: 'missing.json'", argv=("--config", "missing.json"),
            commands=BOTH, stage="config"),
    Refusal("config-directory", "config .: [Errno 21] Is a directory: '.'",
            argv=("--config", "."), commands=BOTH, stage="config"),
    Refusal("config-invalid-json", "config run.json: invalid JSON (Expecting "
            "property name enclosed in double quotes: line 1 column 2 "
            "(char 1))", config="{not json", stage="config"),
    Refusal("config-not-an-object", "config run.json: expected a JSON object",
            config="[1]", stage="config"),
    Refusal("config-unknown-key", "config run.json: unknown field(s) "
            "['Omegas']", config={"Omegas": 1.0}, stage="config"),
    Refusal("format-xml", "unknown output format 'xml'; choose from "
            "['csv', 'json']", config={"format": "xml"},
            argv=("--output", "x.xml"),
            commands=(("ghz", "--model", "lab"),
                      ("sweep", "eta_c", "0.04,0.05", "--model", "rwa")),
            stage="config"),
    *(Refusal(f"output={output!r}", f"output must be a file path, got "
              f"{output!r}", config={"output": output},
              commands=(GHZ, ("sweep", "cav_dim", "6")), stage="config")
      for output in (None, "")),
    *(Refusal(f"output={output}", f"output {output!r} is not a file path in "
              f"an existing directory",
              argv=("--model", "rwa", "--shape", "6x6", "--output", output),
              commands=(GHZ, ("sweep", "eta_c", "0.02,0.05,0.1")),
              stage="config")
      for output in ("missing/x.csv", ".")),
    Refusal("sweep-config-t", "sweep does not take the config key t (got "
            "0.1): every sweep point runs its own scheduled pulse time",
            config={"t": 0.1}, argv=SMALL, commands=(SWEEP,), stage="config"),
    Refusal("sweep-axis", "unknown sweep axis 'coupling'; valid axes: eta_c, "
            "eta_L, phi, p, vib_dim, cav_dim, dt",
            commands=(("sweep", "coupling", "1,2"),), stage="config"),
    *(Refusal(f"values={values}", f"bad sweep values {values!r}: {item} is "
              f"not a number", argv=SMALL,
              commands=(("sweep", "eta_c", values),), stage="config")
      for values, item in (("x", "value 'x'"), ("0.05,abc", "value 'abc'"),
                           ("0.05, 1e-2e, 0.1", "value '1e-2e'"),
                           ("a:0.2:0.05", "range start 'a'"),
                           ("0.1:b:0.05", "range stop 'b'"),
                           ("0.1:0.2:x", "range step 'x'"))),
    *(Refusal(f"range={values}", f"bad range {values!r}: start, stop and "
              f"step must be finite", argv=SMALL,
              commands=(("sweep", "eta_c", "--", values),), stage="config")
      for values in ("0:inf:0.1", "0:-inf:0.1", "-inf:0.1:0.1", "0:nan:0.1",
                     "nan:0.1:0.1", "0:0.1:inf")),
    *(Refusal(f"range={values}", f"bad range {values!r}: its {count} points "
              f"need at least {size} bytes, {MEMORY}", argv=SMALL,
              commands=(("sweep", "eta_c", values),), stage="config")
      for values, count, size in (
          ("0:1e300:1e-300", "inf", "inf"),
          ("0:1e12:1", "1,000,000,000,001", "32,000,000,000,032"))),
    Refusal("range-empty", "no values in '0.1:0.05:0.01'", argv=SMALL,
            commands=(("sweep", "eta_c", "0.1:0.05:0.01"),), stage="config"),
    *(Refusal(f"sweep-{axis}={values}", f"{axis} value must be a whole "
              f"number, got {value}", argv=SMALL,
              commands=(("sweep", axis, values),), stage="config")
      for axis, values, value in (("p", "1,1.5,2", "1.5"),
                                  ("vib_dim", "3,3.5", "3.5"),
                                  ("cav_dim", "3.2", "3.2"))),

    # config values, each refused by ghz and by a sweep point
    *(Refusal("-".join(f"{key}={value!r}" for key, value in config.items()),
              message, config=config,
              commands=(GHZ, ("sweep", "cav_dim", "6")), point="cav_dim = 6")
      for config, message in TYPED),
    # a sweep point's shape is built before the point is resolved
    Refusal("shape=66", "bad shape 66, expected e.g. '6x6'",
            config={"shape": 66}),
    Refusal("shape=66-sweep", "bad shape 66, expected e.g. '6x6'",
            config={"shape": 66}, commands=(("sweep", "cav_dim", "6"),),
            point="cav_dim = 6", stage="config"),
    Refusal("Omega=nan", "Omega must be finite, got nan",
            config={"Omega": math.nan}),
    Refusal("eta_c=inf", "eta_c must be finite, got inf",
            config={"eta_c": math.inf}),
    *(Refusal(f"{key}=1e308", f"{key} = 1e+308 MHz overflows to inf in "
              f"rad/s (1 MHz = 1e6 rad/s)", config={key: 1e308},
              commands=BOTH, point=AT) for key in FREQ_KEYS),
    *(Refusal(f"{key}={value}", f"{key} must be a whole number, got "
              f"{value!r}", config={key: value}, argv=SMALL, commands=BOTH,
              point=AT)
      for key, value in (("p", 1.5), ("m", 1.7), ("n", 1.2),
                         ("n_times", 10.5), ("p", None))),
    *(Refusal(f"{key}={value}" + ("-held-g" if g else ""),
              (f"pulse index p must be >= 1, got {value}" if key == "p" else
               f"{key} must be >= 1 (the block pairs levels {key} - 1 and "
               f"{key}), got {value}"),
              config={key: value, **({"g": g} if g else {})}, commands=BOTH,
              point=AT,
              twin=partial(schedule, {"g": g}, **{key: value}))
      for key, value in (("m", 0), ("n", 0), ("m", -1), ("p", 0), ("p", -1))
      for g in (None, 1.0)),
    *(Refusal(f"{key}={raw}", f"{key} must be a finite number > 0, got "
              f"{raw!r}", config={key: raw},
              commands=(("ghz", "--model", "block"),
                        ("ghz", "--model", "lab")))
      for key in ("t", "dt") for raw in (math.nan, math.inf, 0, 1e-320)),
    *(Refusal(f"sweep-dt={raw}", f"dt must be a finite number > 0, got "
              f"{float(raw)!r}", argv=("--model", "lab", "--shape", "3x3"),
              commands=(("sweep", "dt", raw),), point=f"dt = {float(raw)!r}")
      for raw in ("nan", "0")),
    *(Refusal(f"n_times={n_times}", f"n_times must be >= 2 (the series runs "
              f"from t = 0 to t_p), got {n_times}",
              config={"n_times": n_times}, commands=commands, point=AT,
              twin=partial(pulse_times, 1e-6, n_times))
      for n_times, commands in (
          (0, (GHZ,)),
          (1, (GHZ, ("sweep", "eta_c", "0.05", *SMALL))))),
    Refusal("t=1e-322-si", "the pulse time t = 1e-322 s is too short for "
            "n_times = 101 distinct samples; the config keys t and n_times "
            "must give a strictly increasing time grid",
            config={"units": "si", "t": 1e-322},
            commands=tuple(("ghz", "--model", model, "--shape", "2x2")
                           for model in ("block", "ld"))),

    # the model and its memory
    Refusal("model-warp", f"unknown model 'warp'; choose from {MODEL_NAMES}",
            argv=("--model", "warp"), twin=model_run("warp")),
    *(Refusal(f"model={model!r}", f"unknown model {model!r}; choose from "
              f"{MODEL_NAMES}", config={"model": model},
              twin=model_run(model))
      for model in ("ld_full", "warp", None)),
    *(Refusal(f"dt-{model}{suffix}", f"dt = 5.000e-06 s steps only the lab "
              f"model; model {model} has no time step, so it would be ignored",
              config={"dt": 5, **config}, argv=argv,
              twin=model_run(model, dt=5e-6))
      for model in STATIC
      for config, argv, suffix in (
          ({"model": model}, (), ""),
          ({}, ("--model", model, "--shape", "6x6"), "-flag"))),
    *(Refusal(f"sweep-dt-{model}", f"dt = 1.000e-10 s steps only the lab "
              f"model; model {model} has no time step, so it would be "
              f"ignored", argv=("--model", model, "--shape", "6x6"),
              commands=(("sweep", "dt", "0.0001,0.0002"),),
              point="dt = 0.0001", twin=model_run(model, dt=1e-10))
      for model in STATIC),
    Refusal("memory-ld-1e7", needs(
        "10000000x10000000", "640,000,000,000,000,000,000,000,000,000",
        "200000000000000 x 200000000000000 Hamiltonian"),
        config={"model": "ld", "shape": "10000000x10000000"},
        twin=model_run("ld", 10 ** 7, 10 ** 7)),
    Refusal("memory-block-1e7", needs(
        "10000000x10000000", "323,200,000,000,000,000",
        "n_times = 101 trajectory"),
        config={"model": "block", "shape": "10000000x10000000"},
        twin=model_run("block", 10 ** 7, 10 ** 7)),
    *(Refusal(f"memory-{model}-1e5", needs("100000x100000", count, what),
              argv=("--model", model, "--shape", "100000x100000"),
              commands=BOTH, point=AT,
              twin=model_run(model, 10 ** 5, 10 ** 5))
      for model, count, what in (
          ("ld", "6,400,000,000,000,000,000,000",
           "20000000000 x 20000000000 Hamiltonian"),
          ("lab", "6,400,000,000,000,000,000,000",
           "20000000000 x 20000000000 Hamiltonian"),
          ("block", "32,320,000,000,000", "n_times = 101 trajectory"))),
    Refusal("memory-n_times", needs(
        "2x2", "128,000,000,000,000,000", "n_times = 1000000000000000 "
        "trajectory"), config={"n_times": 10 ** 15}, argv=SMALL,
        twin=partial(require_model, "block", HilbertShape(2, 2),
                     10 ** 15)),
    Refusal("memory-sweep-vib_dim", needs(
        "100000000x6", "23,040,000,000,000,000,000",
        "1200000000 x 1200000000 Hamiltonian"),
        argv=("--model", "ld", "--shape", "6x6"),
        commands=(("sweep", "vib_dim", "6,100000000"),),
        point="vib_dim = 100000000", twin=model_run("ld", 10 ** 8, 6)),

    # the schedule: the block, the coupling and its tuning
    Refusal("shape-1x1", too_small(1, 1),
            argv=("--model", "rwa", "--shape", "1x1"),
            twin=partial(schedule, shape="1x1")),
    Refusal("sweep-cav_dim=1", too_small(6, 1), argv=("--model", "ld"),
            commands=(("sweep", "cav_dim", "1"),), point="cav_dim = 1",
            twin=partial(schedule, shape="6x1")),
    Refusal("shape-3x2-m3", too_small(3, 2, m=3),
            config={"m": 3, "n": 1, "initial": "g,2,0"},
            argv=("--shape", "3x2"), twin=partial(schedule, shape="3x2", m=3)),
    Refusal("shape-2x2-m2-n2", too_small(2, 2, m=2, n=2),
            config={"m": 2, "n": 2}, argv=("--model", "ld", "--shape", "2x2"),
            twin=partial(schedule, shape="2x2", m=2, n=2)),
    Refusal("phi-vanishes", f"effective coupling g cos(phi) vanishes at phi "
            f"= {HALF_PI}, so no g meets the GHZ condition",
            commands=tuple(("sweep", "phi", f"0,{HALF_PI}", "--model",
                            "block", "--shape", shape)
                           for shape in ("2x2", "6x6")),
            point=f"phi = {HALF_PI}",
            twin=partial(schedule, {"phi": float(HALF_PI)})),
    Refusal("phi-vanishes-held-g", f"effective coupling g cos(phi) vanishes "
            f"at phi = {HALF_PI}, so no g meets the GHZ condition",
            config={"g": 1.0, "phi": float(HALF_PI)},
            twin=partial(schedule, {"g": 1.0, "phi": float(HALF_PI)})),
    Refusal("phi-negative", "effective coupling g cos(phi) is negative at "
            "phi = 2.0 (cos(phi) = -4.161e-01), so no g >= 0 meets the GHZ "
            "condition; use a phi with cos(phi) > 0",
            argv=("--model", "block", "--shape", "6x6"),
            commands=(("sweep", "phi", "0,2"),), point="phi = 2.0",
            twin=partial(schedule, {"phi": 2.0})),
    Refusal("held-g", held("1.0621506484487029"), config={"g": 500},
            argv=SMALL, commands=(GHZ, ("sweep", "phi", "0,0.3")),
            point="phi = 0.0"),
    Refusal("held-g-sweep-eta_c",
            held("2.179449471770337", g="46.21760126474184"),
            config={"g": 46.21760126474184},
            argv=("--model", "ld", "--shape", "6x6"),
            commands=(("sweep", "eta_c", "0.05,0.1"),), point="eta_c = 0.1"),
    Refusal("held-g-sweep-p", held("1.0621506484487029", p="1e+300",
                                   required="4e+300"),
            config={"g": 500}, argv=("--model", "block", "--shape", "6x6"),
            commands=(("sweep", "p", "1e300"),), point="p = 1e+300"),
    *(Refusal(f"tuned-p=1e300-{name}", "tuning g for p = 1e+300 gives g = "
              "0.000e+00 rad/s, which misses the GHZ condition: mu/a = inf, "
              "required 4e+300", config={"p": 1e300}, commands=commands,
              point=point, twin=partial(schedule, p=int(1e300)))
      for name, commands, point in (
          ("ghz", BOTH, AT), ("sweep-p", (("sweep", "p", "1e300"),),
                              "p = 1e+300"))),
    Refusal("tuned-g-overflows", "tuning g for p = 1 gives g = inf rad/s, "
            "which misses the GHZ condition: g must be finite",
            config={"eta_c": 1e-310},
            commands=(GHZ, ("sweep", "eta_L", "0.05")), point="eta_L = 0.05",
            twin=partial(schedule, {"eta_c": 1e-310})),
    Refusal("initial-outside-the-block", "initial label g,5,5 is not in the "
            "(m=1, n=1) block", config={"initial": "g,5,5"}, commands=BOTH,
            point=AT, stage="score"),

    # the lab run's step and its work bound
    Refusal("lab-dt=1e-12", rk4_steps("1.000e-18", "1.76e+08"),
            config={"dt": 1e-12}, argv=LAB, twin=partial(lab, dt=1e-18)),
    Refusal("lab-sweep-dt=1e-12", rk4_steps("1.000e-18", "1.76e+08"),
            argv=LAB, commands=(("sweep", "dt", "1e-12"),),
            point="dt = 1e-12", twin=partial(lab, dt=1e-18)),
    Refusal("lab-dt=1e-300", rk4_steps("1.000e-306", "1.76e+296"),
            config={"dt": 1e-300}, argv=LAB, twin=partial(lab, dt=1e-306)),
    Refusal("lab-t=1000", "the pulse time t = 1.000e-03 s spans 1.14e+07 "
            "periods T = 8.775e-11 s of H(t), more than MAX_PERIOD_POWERS = "
            "10,000,000 products U(T) psi; shorten t", config={"t": 1000},
            argv=LAB, twin=partial(lab, t=1e-3)),
    Refusal("lab-p=3000", "the pulse time t = 1.053e-03 s spans 1.2e+07 "
            "periods T = 8.775e-11 s of H(t), more than MAX_PERIOD_POWERS = "
            "10,000,000 products U(T) psi; shorten t",
            argv=(*LAB, "--p", "3000"), twin=partial(lab, p=3000)),
    Refusal("lab-default-step", default_step("2.357e-16", "1.44e+09",
                                             "3.399e-07", "1.969e+13"),
            config={**OPTICAL, "dt": None}, argv=LAB, commands=BOTH,
            point=AT, twin=partial(lab, OPTICAL)),
    Refusal("lab-optical-dt", rk4_steps("1.000e-15", "3.4e+08"),
            config={**OPTICAL, "dt": 1e-9}, argv=LAB, commands=BOTH,
            point=AT, twin=partial(lab, OPTICAL, dt=1e-15)),
    Refusal("lab-default-step-p=100", default_step("1.337e-11", "2.63e+06",
                                                   "3.510e-05", "9.934e+08"),
            config=DARK, argv=(*LAB, "--shape", "6x6"),
            commands=(("sweep", "p", "1,100"),), point="p = 100",
            twin=partial(lab, DARK, p=100)),
    Refusal("lab-default-step-p=5000", default_step("1.445e-09", "1.21e+06",
                                                    "1.755e-03", "1.045e+07"),
            config={**DARK, "nu": 1}, argv=(*LAB, "--shape", "2x2"),
            commands=(("sweep", "p", "1,5000"),), point="p = 5000",
            twin=partial(lab, {**DARK, "nu": 1}, "2x2", p=5000)),
    Refusal("lab-dt-above-the-guard", guard("2.507e-12", "1.755e-12",
                                            "8.775e-11"),
            config={"dt": PERIOD_US / 70, "t": 1e-3, "n_times": 2},
            argv=(*LAB, "--shape", "3x3"),
            twin=partial(lab, shape="3x3", t=1e-9,
                         dt=PERIOD_US / 70 * 1e-6)),
    Refusal("lab-sweep-dt-above-the-guard", guard("1.000e-09", "2.808e-10",
                                                  "1.404e-08"),
            config=LAB_HIERARCHY, argv=(*LAB, "--shape", "6x6"),
            commands=(("sweep", "dt", "0.0001,0.001"),), point="dt = 0.001",
            twin=partial(lab, LAB_HIERARCHY, dt=1e-9)),

    # the truncation guard, after a run
    Refusal("truncation-4x4", truncation("2.854e-03", "4x4"),
            argv=("--model", "ld", "--shape", "4x4"), stage="run", code=1),
    Refusal("truncation-sweep-vib_dim=4", truncation("2.854e-03", "4x6"),
            argv=("--model", "ld", "--shape", "6x6"),
            commands=tuple(("sweep", "vib_dim", values)
                           for values in ("4", "6,4,3", "4,3")),
            point="vib_dim = 4", stage="run", code=1),
    Refusal("truncation-sweep-3x3", truncation("3.679e-02", "3x3"),
            argv=("--model", "ld", "--shape", "3x3"),
            commands=(("sweep", "eta_c", "0.05,0.05"),), point=AT,
            stage="run", code=1),
]

CASES = [pytest.param(row, command, id=f"{row.id}-{' '.join(command)}")
         for row in REFUSALS for command in row.commands]


def argv_of(row: Refusal, command: tuple[str, ...]) -> list[str]:
    """``command`` with the row's config file, the default output unless the
    row names one, and the row's flags (before any positional argument)."""
    argv = [command[0]]
    if row.config is not None:
        argv += ["--config", "run.json"]
    if not ("--output" in row.argv
            or isinstance(row.config, dict) and "output" in row.config):
        argv += ["--output", "x.csv"]
    return argv + [*row.argv, *command[1:]]


def record_stages(monkeypatch) -> list[str]:
    """The stages a run reaches, recorded as it calls the first function of
    each."""
    reached = ["config"]
    for stage, module, name in (
            ("resolve", cli, "resolve_run"),
            ("score", cli, "protocol_timeseries"),
            ("run", ghz_protocol, "_evolve_states")):
        def probe(*args, stage=stage, fn=getattr(module, name), **kwargs):
            reached.append(stage)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, probe)
    return reached


@pytest.mark.parametrize("row, command", CASES)
def test_the_cli_refuses(tmp_path, monkeypatch, capsys, row, command):
    monkeypatch.chdir(tmp_path)
    if row.config is not None:
        text = (row.config if isinstance(row.config, str)
                else json.dumps(row.config))
        (tmp_path / "run.json").write_text(text)
    before = sorted(os.listdir())
    reached = record_stages(monkeypatch)
    start = time.perf_counter()
    code = main(argv_of(row, command))
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    lead = (f"sweep point {row.point}: "
            if command[0] == "sweep" and row.point else "")
    assert "\n" not in row.message
    assert err == f"ghz-sim: {lead}{row.message}\n"
    assert (code, out) == (row.code, "")
    assert sorted(os.listdir()) == before
    assert max(reached, key=STAGES.index) == row.stage
    if row.stage != "run":
        assert elapsed < 1.0


@pytest.mark.parametrize("row", [row for row in REFUSALS if row.twin],
                         ids=lambda row: row.id)
def test_the_library_refuses_with_the_same_text(row):
    with pytest.raises(ConfigurationError) as info:
        row.twin()
    assert str(info.value) == row.message


def test_every_config_key_and_sweep_axis_has_a_row():
    # a row refuses a key when it sets it, in its config or a flag, and
    # its message names it
    keys, axes = set(), set()
    for row in REFUSALS:
        config = row.config if isinstance(row.config, dict) else {}
        for command in row.commands:
            flags = {word[2:] for word in (*row.argv, *command)
                     if word.startswith("--")}
            keys |= {key for key in flags | set(config)
                     if re.search(rf"\b{key}\b", row.message)}
            if command[0] == "sweep":
                axes.add(command[1])
    assert set(DEFAULT_CONFIG) - keys == set()
    assert set(SWEEP_AXES) - axes == set()
