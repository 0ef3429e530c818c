import json
from pathlib import Path

import pytest
from jsonschema.validators import validator_for

from triplepole import AbelianModel, ConfigError, GenericRelationModel
from triplepole.config import (
    CONFIG_SCHEMA,
    CONFIG_VERSION,
    build_budget,
    build_family,
    build_labels,
    build_model,
    load_config,
    require_section,
    validate_config,
)
from triplepole.gauss import HeckeGaussianModel

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.json"))


def z7_spec():
    return {"kind": "abelian", "factors": [7], "sigma": [[2]], "p": 3}


def gaussian_spec():
    return {"kind": "gaussian", "modulus": [7, 0]}


def base_config(**sections):
    return {"version": CONFIG_VERSION, **sections}


# ---------------------------------------------------------------------------
# Schema and loading


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_are_valid(path):
    config = load_config(path)
    assert config["version"] == CONFIG_VERSION


def test_docs_schema_copy_matches_package():
    on_disk = json.loads((REPO / "docs" / "config.schema.json").read_text())
    assert on_disk == CONFIG_SCHEMA


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_wrong_version_rejected():
    with pytest.raises(ConfigError, match="version"):
        validate_config({"version": 99})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unexpected|additional"):
        validate_config(base_config(noise=1))


def test_labels_require_all_three():
    config = base_config(
        model=z7_spec(), labels={"theta1": [1], "theta2": [3]}
    )
    with pytest.raises(ConfigError, match="chi"):
        validate_config(config)


def test_unknown_model_kind_rejected_by_schema():
    config = base_config(model={"kind": "mystery"})
    with pytest.raises(ConfigError):
        validate_config(config)


def test_estimate_requires_norm_bound():
    config = base_config(model=gaussian_spec(), estimate={"tau": 0.05})
    with pytest.raises(ConfigError, match="X"):
        validate_config(config)


def test_require_section():
    config = base_config(model=z7_spec())
    assert require_section(config, "model", "pole-order") == z7_spec()
    with pytest.raises(ConfigError, match="labels"):
        require_section(config, "labels", "pole-order")


# The exit-2 messages of the schema check, recorded from the version that
# called `jsonschema.validate`; validating with a prebuilt validator must
# reproduce them byte for byte.
PINNED_SCHEMA_MESSAGES = [
    ({"version": 99}, "version: 1 was expected"),
    (
        {"version": 1, "noise": 1},
        "<root>: Additional properties are not allowed ('noise' was unexpected)",
    ),
    (
        {"version": 1, "model": z7_spec(), "labels": {}},
        "labels: 'theta1' is a required property",
    ),
    (
        {"version": 1, "model": z7_spec(), "labels": {"theta1": "x", "theta2": [3], "chi": [1]}},
        "labels/theta1: 'x' is not valid under any of the given schemas",
    ),
    (
        {"version": 1, "model": dict(z7_spec(), factors=[7, 1])},
        "model/factors/1: 1 is less than the minimum of 2",
    ),
    (
        {"version": 1, "family": {"models": [gaussian_spec()]}},
        "family/models/0: Additional properties are not allowed ('modulus' was unexpected)",
    ),
    (
        {"version": 1, "model": gaussian_spec(), "estimate": {"X": 10, "tau": 1.5}},
        "estimate/tau: 1.5 is greater than or equal to the maximum of 1",
    ),
    ([1, 2, 3], "<root>: [1, 2, 3] is not of type 'object'"),
]


@pytest.mark.parametrize("raw, message", PINNED_SCHEMA_MESSAGES)
def test_schema_messages_pinned(raw, message):
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert str(exc.value) == f"config schema violation at {message}"


def test_truncated_json_message_pinned(tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text('{"version": 1, "model": {"kind"')
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == (
        f"config file {path} is not valid JSON: "
        "Expecting ':' delimiter: line 1 column 32 (char 31)"
    )


def test_schema_is_valid_under_its_metaschema():
    validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


# ---------------------------------------------------------------------------
# Builders


def test_build_abelian_model():
    model = build_model(z7_spec())
    assert isinstance(model, AbelianModel)
    assert model.describe() == {
        "kind": "abelian",
        "factors": [7],
        "sigma": [[2]],
        "p": 3,
        "order": 7,
    }


def test_build_generic_model():
    spec = {
        "kind": "generic",
        "p": 3,
        "atoms": [{"id": "a", "degree": 1}, {"id": "b", "degree": 2}],
        "relations": [],
        "chi_invariant": False,
        "theta1_id": "a",
        "theta2_id": "b",
    }
    model = build_model(spec)
    assert isinstance(model, GenericRelationModel)
    assert model.p == 3
    assert {a.atom_id for a in model.atoms} == {"a", "b"}


def test_build_gaussian_model():
    model = build_model(gaussian_spec())
    assert isinstance(model, HeckeGaussianModel)
    assert model.describe()["norm"] == 49


def test_build_model_unknown_kind():
    with pytest.raises(ConfigError, match="unknown model kind"):
        build_model({"kind": "mystery"})


def test_build_labels_abelian_coords_and_behavior():
    model = build_model(z7_spec())
    labels = build_labels(
        model,
        {
            "theta1": [1],
            "theta2": {"coords": [3], "behavior": "stays"},
            "chi": [0],
        },
    )
    label1, behavior1 = labels["theta1"]
    assert label1.payload == (1,) and behavior1 == "induced"
    label2, behavior2 = labels["theta2"]
    assert label2.payload == (3,) and behavior2 == "stays"
    assert labels["chi"].payload == (0,)


def test_build_labels_generic_shift():
    model = build_model(
        {
            "kind": "generic",
            "p": 3,
            "atoms": [{"id": "theta1", "degree": 1}, {"id": "theta2", "degree": 1}],
            "relations": [[0, 0], [1, 1], [2, 2]],
            "chi_invariant": True,
        }
    )
    labels = build_labels(
        model, {"theta1": {"shift": 1}, "theta2": {}, "chi": {}}
    )
    assert labels["theta1"][0].payload[1] == 1
    assert labels["theta2"][0].payload[1] == 0


def test_build_labels_gaussian_index():
    model = build_model(gaussian_spec())
    labels = build_labels(model, {"theta1": 1, "theta2": {"index": 1}, "chi": 10})
    assert labels["theta1"][0] == labels["theta2"][0]
    assert labels["chi"].payload == (40,)
    assert model.character(labels["chi"].payload) == model.characters[10]


def test_build_labels_gaussian_index_out_of_range():
    model = build_model(gaussian_spec())
    with pytest.raises(ConfigError, match="out of range"):
        build_labels(model, {"theta1": 99, "theta2": 1, "chi": 0})


@pytest.mark.parametrize(
    "labels",
    [
        {"theta1": [1], "theta2": {}, "chi": {}},
        {"theta1": {}, "theta2": {"shift": 1}, "chi": 3},
    ],
)
def test_build_labels_generic_rejects_another_kinds_shape(labels):
    # The CLI tests cover abelian and gaussian models.
    spec = json.loads((REPO / "configs" / "generic_mismatch.json").read_text())
    with pytest.raises(ConfigError, match='a generic model: expected {"shift": t}'):
        build_labels(build_model(spec["model"]), labels)


def test_build_family_explicit_models():
    config = base_config(family={"models": [z7_spec(), z7_spec()]})
    family = build_family(config, "sweep")
    assert len(family.models) == 2
    assert all(m.p == 3 for m in family.models)


def test_build_family_catalogue():
    config = base_config(catalogue={"p_values": [2], "max_group_order": 9})
    family = build_family(config, "sweep")
    assert family.models
    assert all(m.p == 2 for m in family.models)
    # The order bound applies to the cyclic slice of the catalogue.
    assert all(m.order <= 9 for m in family.models if len(m.factors) == 1)


def test_build_family_requires_exactly_one_source():
    with pytest.raises(ConfigError, match="exactly one"):
        build_family(base_config(), "sweep")
    both = base_config(
        family={"models": [z7_spec()]}, catalogue={"p_values": [2]}
    )
    with pytest.raises(ConfigError, match="exactly one"):
        build_family(both, "sweep")


def test_build_budget_defaults_and_override():
    budget = build_budget(base_config())
    assert budget.strategy == "exhaustive"
    assert budget.limit is None

    config = base_config(budget={"strategy": "sample", "samples": 7, "seed": 3})
    budget = build_budget(config)
    assert (budget.strategy, budget.samples, budget.seed) == ("sample", 7, 3)

    overridden = build_budget(config, seed_override=42)
    assert overridden.seed == 42
