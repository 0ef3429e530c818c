"""The import contract, checked in fresh interpreters: a single-triple CLI
request loads no lane it does not run and, for a valid config, no
jsonschema; every public name of the package resolves to the object its
module defines, whatever was imported first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

# What `pole-order` and `factorize` never need.
LANES = {"numpy", "triplepole.sweep", "triplepole.group_oracle", "triplepole.gauss_sums"}
# The Gaussian lane, which only a gaussian model needs.
GAUSSIAN = {"triplepole.gauss", "triplepole.char_group"}
# What only a rejected config loads, to word its exit-2 message.
JSONSCHEMA = {"jsonschema"}


def imported_modules(*argv) -> tuple[int, set[str]]:
    """Exit code and imported modules of a fresh `python -m triplepole`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "triplepole", *argv],
        capture_output=True,
        text=True,
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, modules


@pytest.mark.parametrize("command", ["pole-order", "factorize"])
@pytest.mark.parametrize(
    "config", ["abelian_z7", "abelian_z3sq", "basechange_z7", "generic_mismatch"]
)
def test_single_triple_request_loads_no_lane(command, config):
    code, modules = imported_modules(command, "--config", str(CONFIGS / f"{config}.json"))
    assert code == 0
    assert "triplepole.cli" in modules
    assert modules & LANES == set()
    assert modules & GAUSSIAN == set()
    assert modules & JSONSCHEMA == set()


@pytest.mark.parametrize("command", ["pole-order", "factorize"])
def test_gaussian_request_loads_the_gaussian_lane(command):
    # the names the other requests are checked for
    code, modules = imported_modules(command, "--config", str(CONFIGS / "gaussian_mod7.json"))
    assert code == 0
    assert modules >= GAUSSIAN
    assert modules & JSONSCHEMA == set()


def test_rejected_config_loads_no_lane(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"version": 2}))
    code, modules = imported_modules("pole-order", "--config", str(path))
    assert code == 2
    assert modules & LANES == set()
    assert modules >= JSONSCHEMA  # the name the valid requests are checked for


def test_rejected_oracle_compare_loads_no_lane():
    # a generic model is refused before the oracle is imported
    code, modules = imported_modules(
        "oracle-compare", "--config", str(CONFIGS / "generic_mismatch.json")
    )
    assert code == 2
    assert "triplepole.cli" in modules
    assert modules & LANES == set()


def test_rejected_hecke_estimate_loads_no_lane(tmp_path):
    # a modulus without a Galois action is refused before the sums are imported
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "model": {"kind": "gaussian", "modulus": [2, 1]},
                "labels": {"theta1": 1, "theta2": 1, "chi": 10},
                "estimate": {"X": 50000},
            }
        )
    )
    code, modules = imported_modules("hecke-estimate", "--config", str(path))
    assert code == 3
    assert "triplepole.gauss" in modules
    assert modules & LANES == set()


def test_oracle_compare_loads_no_sweep():
    # the kernel is imported only by the agreement sweep
    code, modules = imported_modules(
        "oracle-compare", "--config", str(CONFIGS / "abelian_z7.json")
    )
    assert code == 0
    assert "triplepole.group_oracle" in modules
    assert "triplepole.sweep" not in modules


def test_sampled_sweep_loads_no_masked_arrays(tmp_path):
    # numpy.ma costs 10-20 ms to import, in every fresh sampled request
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "catalogue": {"p_values": [2, 3], "max_group_order": 16},
                "budget": {"strategy": "sample", "samples": 200, "seed": 3},
            }
        )
    )
    code, modules = imported_modules("sweep", "--config", str(path))
    assert code == 0
    assert "triplepole.sweep" in modules
    assert "numpy.ma" not in modules


# The names `triplepole` exports, by the module that defines them.
EXPORTS = {
    "calculus": [
        "CuspidalDatumF", "InducedFrom", "IsobaricRep", "MatchingMatrix", "RSFactor",
        "StaysCuspidal", "automorphic_induction", "base_change", "dual", "factorize",
        "galois_shift", "is_isomorphic", "matching_matrix", "rs_pole_order",
        "triple_pole_order", "twist",
    ],
    "errors": [
        "ConfigError", "IndeterminatePoleError", "InvariantViolationError",
        "ModelMismatchError", "PreconditionError",
        "RelationValidationError", "TriplePoleError", "UnsupportedModulusError",
        "UnsupportedOperationError",
    ],
    "models": [
        "AbelianModel", "CuspidalLabelK", "CyclicData", "GenericAtom",
        "GenericRelationModel", "RelationDiagnostic", "validate_relations",
    ],
    "char_group": ["abelian_basis"],
    "config": ["CONFIG_SCHEMA", "CONFIG_VERSION", "REPORT_VERSION", "load_config"],
    "gauss": [
        "GaussianHeckeChar", "GaussianModulus", "HeckeGaussianModel", "conjugate_char",
        "ideal_density", "unit_trivial_characters",
    ],
    "gauss_sums": [
        "PoleProbe", "TripleEstimate", "character_sum", "ideal_count",
        "numeric_triple_estimate", "probe_pole",
    ],
    "group_oracle": [
        "CharacterOfA", "FiniteGroupModel", "OracleComparison", "build_semidirect",
        "cyclotomic_polynomial", "dual_sigma", "oracle_agreement_sweep", "oracle_compare",
        "oracle_group", "projection_formula_sweep", "trivial_multiplicity",
    ],
    "sweep": [
        "SweepBudget", "SweepFamily", "SweepReport", "catalogue_cyclic", "catalogue_rank2",
        "find_witness", "shipped_catalogue",
    ],
}

# Prints the exported names that do not resolve to their module's object.
RESOLVE = """\
import importlib, json, sys
exports, first = json.loads(sys.argv[1]), sys.argv[2]
if first == "submodule":
    import triplepole.sweep
import triplepole
wrong = []
for module, names in exports.items():
    home = importlib.import_module("triplepole." + module)
    for name in names:
        scope = {}
        exec(f"from triplepole import {name}", scope)
        if scope[name] is not getattr(home, name):
            wrong.append(name)
if triplepole.sweep is not sys.modules["triplepole.sweep"]:
    wrong.append("triplepole.sweep")
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("first", ["package", "submodule"])
def test_exports_resolve_to_their_definitions(first):
    proc = subprocess.run(
        [sys.executable, "-c", RESOLVE, json.dumps(EXPORTS), first],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# Prints whether `import triplepole.sweep as m`, after the statement in
# argv[1], binds the module, with its function `sweep`.
IMPORT_AS = """\
import sys, types
exec(sys.argv[1])
import triplepole.sweep as m
print(isinstance(m, types.ModuleType) and m is sys.modules["triplepole.sweep"] and callable(m.sweep))
"""


@pytest.mark.parametrize("first", ["import triplepole", "from triplepole import shipped_catalogue"])
def test_import_as_binds_the_sweep_module(first):
    proc = subprocess.run([sys.executable, "-c", IMPORT_AS, first], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_package_lists_exactly_the_exports():
    import triplepole

    assert sorted(triplepole.__all__) == sorted(n for names in EXPORTS.values() for n in names)
