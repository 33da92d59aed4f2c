"""Guards on the package's structure: no module reaches into another's
private names, and the benchmark's per-layer tracer still finds every
attribute it binds, so a refactor cannot silently zero its metrics."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from conftest import load_perfbench
from ghz_sim.cli import main

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ghz_sim"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

tracing = load_perfbench("tracing")

# every (module, attribute) of tracing.SPAN_BINDINGS that the package has
# ("cli.sweep", "ghz_protocol.truncation_leak" and
# "ghz_protocol.lab_hamiltonian_source" name layers that are gone)
RESOLVED_BINDINGS = (
    ("cli", "load_config"), ("cli", "build_params"), ("cli", "parse_shape"),
    ("cli", "series_table"), ("cli", "write_table"), ("cli", "ghz_schedule"),
    ("cli", "protocol_timeseries"),
    ("ghz_protocol", "ghz_schedule"), ("ghz_protocol", "protocol_timeseries"),
    ("ghz_protocol", "run_protocol"), ("ghz_protocol", "evolve_static"),
    ("ghz_protocol", "evolve_timedep"),
    ("ghz_protocol", "to_interaction_picture"),
    ("ghz_protocol", "block_propagator"),
    ("ghz_protocol", "build_ld_hamiltonian"),
    ("ghz_protocol", "build_rwa_hamiltonian"),
)

# the arguments the tracer's hooks read from a bound call
HOOK_ARGUMENTS = {
    ("ghz_protocol", "evolve_static"): {"initial"},
    ("ghz_protocol", "evolve_timedep"): {"t_end", "dt", "store_times"},
    ("cli", "write_table"): {"path"},
}


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(source: str, own: str) -> list[str]:
    """``module.name`` of each underscore name that ``source``, the text of
    package module ``own``, takes from another package module: imported by
    name, or read as an attribute of an imported package module."""
    found, module_names = [], {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            relative = node.level == 1 and node.module is None
            package = node.level == 1 or (node.module or "").startswith(
                "ghz_sim")
            if not package:
                continue
            source_module = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if relative and alias.name in MODULES:
                    module_names[alias.asname or alias.name] = alias.name
                elif private(alias.name) and source_module != own:
                    found.append(f"{source_module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ghz_sim.") and alias.asname:
                    module_names[alias.asname] = alias.name.split(".")[-1]
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name)
                and module_names.get(node.value.id, own) != own):
            found.append(f"{module_names[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("source, expected", [
    ("from .ghz_protocol import Label, _physical_memory\n",
     ["ghz_protocol._physical_memory"]),
    ("from ghz_sim.evolution import _eigensystem\n",
     ["evolution._eigensystem"]),
    ("from . import checks as c\nc._CHECKS\n", ["checks._CHECKS"]),
    ("import ghz_sim.evolution as ev\nev._held\n", ["evolution._held"]),
    ("from .cli import main, __doc__\nfrom . import cli\ncli.main\n", []),
])
def test_the_scan_sees_a_private_import(source, expected):
    assert private_imports(source, "own") == expected


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_another_modules_private_name(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert private_imports(source, module) == []


def test_every_traced_layer_still_resolves():
    bound = {(mod, attr) for mod, attr, *_ in tracing.SPAN_BINDINGS}
    for mod, attr in RESOLVED_BINDINGS:
        assert (mod, attr) in bound
        assert callable(getattr(importlib.import_module(f"ghz_sim.{mod}"),
                                attr, None)), f"{mod}.{attr}"
    for (mod, attr), names in HOOK_ARGUMENTS.items():
        fn = getattr(importlib.import_module(f"ghz_sim.{mod}"), attr)
        assert names <= set(inspect.signature(fn).parameters), f"{mod}.{attr}"


def test_every_counted_attribute_still_exists():
    fock_core = importlib.import_module("ghz_sim.fock_core")
    for owner, attr in ((fock_core.HilbertShape, "index"),
                        (fock_core.HilbertShape, "labels"),
                        (fock_core.QuantumState, "__post_init__")):
        assert callable(getattr(owner, attr, None)), attr


def test_a_traced_ld_run_records_every_layer_it_runs(tmp_path):
    modules = {name: importlib.import_module(f"ghz_sim.{name}")
               for name in ("cli", "ghz_protocol", "fock_core")}
    tracer = tracing.Tracer()
    output = tmp_path / "out.csv"
    with tracing.counters_installed(tracer, modules["fock_core"]), \
            tracing.spans_installed(tracer, modules):
        assert main(["ghz", "--model", "ld", "--shape", "5x5",
                     "--output", str(output)]) == 0
    assert {sp.name for sp in tracer.spans} >= {
        "cli.config", "cli.table", "cli.write", "ghz_protocol.schedule",
        "ghz_protocol.timeseries", "evolution.static", "hamiltonian.build"}
    marks = dict(tracer.marks)
    assert marks["cli.bytes_out"] == output.stat().st_size
    assert marks["evolution.static_dim"] == 50
    counts = tracer.counts()
    assert counts["fock_core.index_calls"] > 0
    assert counts["fock_core.state_objs"] > 0
