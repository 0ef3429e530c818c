"""Pole orders of triple products with an induced character factor."""

__version__ = "0.1.0"

from .calculus import (
    CuspidalDatumF,
    InducedFrom,
    IsobaricRep,
    MatchingMatrix,
    RSFactor,
    StaysCuspidal,
    automorphic_induction,
    base_change,
    dual,
    factorize,
    galois_shift,
    is_isomorphic,
    matching_matrix,
    rs_pole_order,
    triple_pole_order,
    twist,
)
from .cyclotomic import CyclotomicInt, cyclotomic_polynomial
from .errors import (
    ConfigError,
    IndeterminatePoleError,
    InvariantViolationError,
    ModelMismatchError,
    NotAnIntegerError,
    PreconditionError,
    RelationValidationError,
    TriplePoleError,
    UnsupportedModulusError,
    UnsupportedOperationError,
)
from .models import (
    AbelianModel,
    CuspidalLabelK,
    CyclicData,
    GenericAtom,
    GenericRelationModel,
    RelationDiagnostic,
    validate_relations,
)
from .char_group import abelian_basis
from .config import CONFIG_SCHEMA, CONFIG_VERSION, REPORT_VERSION, load_config
from .gauss import (
    DirichletChar,
    GaussianHeckeChar,
    GaussianModulus,
    HeckeGaussianModel,
    conjugate_char,
    dirichlet_via_norm,
    ideal_density,
    unit_trivial_characters,
)
from .gauss_sums import (
    PoleProbe,
    TripleEstimate,
    character_sum,
    classify_pole,
    ideal_count,
    numeric_triple_estimate,
    probe_pole,
)
from .group_oracle import (
    CharacterOfA,
    ClassFunction,
    FiniteGroupModel,
    OracleComparison,
    build_semidirect,
    characters_of_base,
    dual_sigma,
    induced_character,
    inner_product,
    oracle_agreement_sweep,
    oracle_compare,
    oracle_group,
    projection_formula_check,
    projection_formula_sweep,
    trivial_multiplicity,
)
from .sweep import (
    SweepBudget,
    SweepFamily,
    SweepReport,
    catalogue_cyclic,
    catalogue_rank2,
    find_witness,
    shipped_catalogue,
    sweep,
)
