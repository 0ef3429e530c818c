"""Pole orders of triple products with an induced character factor.

The public names below are imported from their submodules on first use
(PEP 562), so ``import triplepole`` loads no lane until one is asked for.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "calculus": (
        "CuspidalDatumF",
        "InducedFrom",
        "IsobaricRep",
        "MatchingMatrix",
        "RSFactor",
        "StaysCuspidal",
        "automorphic_induction",
        "base_change",
        "dual",
        "factorize",
        "galois_shift",
        "is_isomorphic",
        "matching_matrix",
        "rs_pole_order",
        "triple_pole_order",
        "twist",
    ),
    "errors": (
        "ConfigError",
        "IndeterminatePoleError",
        "InvariantViolationError",
        "ModelMismatchError",
        "PreconditionError",
        "RelationValidationError",
        "TriplePoleError",
        "UnsupportedModulusError",
        "UnsupportedOperationError",
    ),
    "models": (
        "AbelianModel",
        "CuspidalLabelK",
        "CyclicData",
        "GenericAtom",
        "GenericRelationModel",
        "RelationDiagnostic",
        "validate_relations",
    ),
    "char_group": ("abelian_basis",),
    "config": ("CONFIG_SCHEMA", "CONFIG_VERSION", "REPORT_VERSION", "load_config"),
    "gauss": (
        "GaussianHeckeChar",
        "GaussianModulus",
        "HeckeGaussianModel",
        "conjugate_char",
        "ideal_density",
        "unit_trivial_characters",
    ),
    "gauss_sums": (
        "PoleProbe",
        "TripleEstimate",
        "character_sum",
        "ideal_count",
        "numeric_triple_estimate",
        "probe_pole",
    ),
    "group_oracle": (
        "CharacterOfA",
        "FiniteGroupModel",
        "OracleComparison",
        "build_semidirect",
        "cyclotomic_polynomial",
        "dual_sigma",
        "oracle_agreement_sweep",
        "oracle_compare",
        "oracle_group",
        "projection_formula_sweep",
        "trivial_multiplicity",
    ),
    "sweep": (
        "SweepBudget",
        "SweepFamily",
        "SweepReport",
        "catalogue_cyclic",
        "catalogue_rank2",
        "find_witness",
        "shipped_catalogue",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
