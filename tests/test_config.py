import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from triplepole import AbelianModel, ConfigError, GenericRelationModel
from triplepole.cli import main
from triplepole.config import (
    CONFIG_SCHEMA,
    CONFIG_VERSION,
    _KEYWORDS,
    _conforms,
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
# called `jsonschema.validate`.  `_conforms` decides that a config is
# rejected; jsonschema's best match still words every message, which must
# stay byte for byte the same.
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
# The in-package checker against jsonschema

VALIDATOR = validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
SHIPPED = [json.loads(path.read_text()) for path in CONFIGS]


def _schemas(schema):
    """`schema` and every subschema in it."""
    yield schema
    for keyword, arg in schema.items():
        if keyword == "properties":
            subs = arg.values()
        elif keyword == "oneOf":
            subs = arg
        elif keyword in ("items", "additionalProperties") and isinstance(arg, dict):
            subs = [arg]
        else:
            continue
        for sub in subs:
            yield from _schemas(sub)


def _values(value):
    """`value` and every value nested in it."""
    yield value
    if isinstance(value, (dict, list)):
        for child in value.values() if isinstance(value, dict) else value:
            yield from _values(child)


def test_checker_knows_every_schema_keyword():
    used = {keyword for schema in _schemas(CONFIG_SCHEMA) for keyword in schema}
    assert used <= _KEYWORDS.keys()


def _edited(raw, path, value):
    """A deep copy of `raw` with the value at `path` set."""
    out = copy.deepcopy(raw)
    *parents, last = path
    target = out
    for key in parents:
        target = target[key]
    target[last] = value
    return out


Z7 = {"version": 1, "model": z7_spec(), "labels": {"theta1": [1], "theta2": [3], "chi": [0]}}
GAUSS = {
    "version": 1,
    "model": gaussian_spec(),
    "labels": {"theta1": 1, "theta2": 1, "chi": 10},
    "estimate": {"X": 10**6, "tau": 0.05},
}
GENERIC, SWEEP, WITNESS = (
    json.loads((REPO / "configs" / name).read_text())
    for name in ("generic_mismatch.json", "sweep_small.json", "witness_z7.json")
)
# One label of each kind's shape, plus values of no kind's shape.
LABELS = [
    ([1], True), ([], True), ({"coords": [1], "behavior": "stays"}, True),
    ({"shift": 1}, True), ({}, True), (0, True), ({"index": 2, "behavior": "induced"}, True),
    (1.0, True), (True, False), (-1, False), ("x", False), ({"shift": 1.5}, False),
    ({"coords": [1], "index": 0}, False), ({"index": -1}, False), ({"coords": [1], "behavior": 1}, False),
]
EDGE_CASES = [
    pytest.param(_edited(Z7, ["version"], True), False, id="version-true"),
    pytest.param(_edited(Z7, ["version"], 1.0), True, id="version-1.0"),
    pytest.param(_edited(Z7, ["model", "p"], 3.0), True, id="p-3.0"),
    pytest.param(_edited(Z7, ["model", "p"], True), False, id="p-true"),
    pytest.param(_edited(Z7, ["model", "factors"], [7.0]), True, id="factor-7.0"),
    pytest.param(_edited(Z7, ["model", "factors"], [True]), False, id="factor-true"),
    pytest.param(_edited(Z7, ["model", "sigma"], [[1.0]]), True, id="sigma-1.0"),
    pytest.param(_edited(Z7, ["model", "sigma"], [[False]]), False, id="sigma-false"),
    pytest.param(_edited(GAUSS, ["model", "modulus"], [7.0, 0]), True, id="modulus-7.0"),
    pytest.param(_edited(GAUSS, ["estimate", "X"], 1.0), True, id="X-1.0"),
    pytest.param(_edited(GAUSS, ["estimate", "X"], True), False, id="X-true"),
    pytest.param(_edited(GAUSS, ["estimate", "X"], 0.5), False, id="X-0.5"),
    pytest.param(_edited(SWEEP, ["budget", "samples"], 1.0), True, id="samples-1.0"),
    pytest.param(_edited(SWEEP, ["budget", "samples"], True), False, id="samples-true"),
    pytest.param(_edited(SWEEP, ["catalogue", "max_group_order"], True), False, id="order-true"),
    pytest.param(_edited(GENERIC, ["model", "atoms", 0, "degree"], True), False, id="degree-true"),
    # NaN compares false with every bound, so jsonschema accepts it; the
    # numeric lane's own precondition rejects it later.
    pytest.param(_edited(GAUSS, ["estimate", "tau"], math.nan), True, id="tau-nan"),
    pytest.param(_edited(GAUSS, ["estimate", "tau"], math.inf), False, id="tau-inf"),
    pytest.param(_edited(GAUSS, ["estimate", "tau"], -math.inf), False, id="tau-neg-inf"),
    pytest.param(_edited(GAUSS, ["estimate", "tau"], 0), False, id="tau-0"),
    pytest.param(_edited(GAUSS, ["estimate", "tau"], 1), False, id="tau-1"),
    pytest.param(_edited(GAUSS, ["estimate", "tau"], True), False, id="tau-true"),
    pytest.param(_edited(SWEEP, ["budget", "limit"], None), True, id="limit-null"),
    pytest.param(_edited(SWEEP, ["budget", "limit"], 1.0), True, id="limit-1.0"),
    pytest.param(_edited(SWEEP, ["budget", "limit"], -1), False, id="limit-negative"),
    pytest.param(_edited(SWEEP, ["budget", "limit"], False), False, id="limit-false"),
    pytest.param(_edited(WITNESS, ["witness", "target_ell"], None), True, id="target-ell-null"),
    pytest.param(_edited(WITNESS, ["witness", "target_ell"], "3"), False, id="target-ell-string"),
    pytest.param(_edited(GENERIC, ["model", "atoms", 0, "id"], ""), False, id="atom-id-empty"),
    pytest.param(_edited(GENERIC, ["model", "theta1_id"], ""), True, id="theta1-id-empty"),
    pytest.param(_edited(Z7, ["model", "kind"], "generic"), False, id="kind-generic"),
    pytest.param(_edited(Z7, ["labels", "behavior"], "stays"), False, id="labels-extra"),
] + [
    pytest.param(_edited(Z7, ["labels", role], label), valid, id=f"{role}-{json.dumps(label)}")
    for role in ("theta1", "theta2", "chi")
    for label, valid in LABELS
]


@pytest.mark.parametrize("raw, valid", EDGE_CASES)
def test_checker_edge_cases_agree_with_jsonschema(raw, valid):
    assert VALIDATOR.is_valid(raw) is valid
    assert _conforms(raw, CONFIG_SCHEMA) is valid


# The accepted integral-float edge cases, plus a float label and a sampled
# sweep, with the subcommands that read the edited value.
_ABELIAN_COMMANDS = ("pole-order", "factorize", "oracle-compare")
FLOAT_COMMANDS = {
    "version-1.0": _ABELIAN_COMMANDS,
    "p-3.0": _ABELIAN_COMMANDS,
    "factor-7.0": _ABELIAN_COMMANDS,
    "sigma-1.0": _ABELIAN_COMMANDS,
    "modulus-7.0": ("hecke-estimate", "oracle-compare"),
    "X-1.0": ("hecke-estimate",),
    "samples-1.0": ("sweep",),
    "limit-1.0": ("sweep",),
}
FLOAT_CASES = [
    pytest.param(p.values[0], FLOAT_COMMANDS[p.id], id=p.id)
    for p in EDGE_CASES
    if p.id in FLOAT_COMMANDS
] + [
    pytest.param(_edited(GAUSS, ["labels", "chi"], 10.0), ("hecke-estimate",), id="chi-10.0"),
    pytest.param(
        _edited(_edited(SWEEP, ["budget", "strategy"], "sample"), ["budget", "samples"], 10.0),
        ("sweep",),
        id="sampled-10.0",
    ),
]


def _run_config(tmp_path, capsys, command, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    code = main([command, "--config", str(path)])
    report = json.loads(capsys.readouterr().out)
    del report["elapsed_seconds"]
    return code, report


@pytest.mark.parametrize("raw, commands", FLOAT_CASES)
def test_integral_floats_run_as_their_integer_twins(tmp_path, capsys, raw, commands):
    twin = json.loads(
        json.dumps(raw), parse_float=lambda s: int(float(s)) if float(s).is_integer() else float(s)
    )
    assert [type(v) for v in _values(twin)] != [type(v) for v in _values(raw)]
    for command in commands:
        assert _run_config(tmp_path, capsys, command, raw) == _run_config(
            tmp_path, capsys, command, twin
        ), command


# Values a mutation puts in: every value nested in a shipped config, the
# schema's own strings, and numbers at and around its bounds.
PROPERTY_NAMES = sorted(
    {name for schema in _schemas(CONFIG_SCHEMA) for name in schema.get("properties", {})}
) + ["noise"]
MUTANTS = st.one_of(
    st.sampled_from([value for raw in SHIPPED for value in _values(raw)]),
    st.sampled_from(
        PROPERTY_NAMES
        + ["abelian", "generic", "gaussian", "induced", "stays", "exhaustive", "sample", ""]
    ),
    st.sampled_from([None, True, False, 0.0, 1.0, 2.0, 0.5, 1.5, math.nan, math.inf, -math.inf]),
    st.integers(-2, 12),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_checker_agrees_with_jsonschema_on_mutated_configs(data):
    raw = copy.deepcopy(data.draw(st.sampled_from(SHIPPED)))
    for _ in range(data.draw(st.integers(1, 3))):
        target = data.draw(st.sampled_from([v for v in _values(raw) if isinstance(v, (dict, list))]))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        value = copy.deepcopy(data.draw(MUTANTS))
        if action == "add" or not keys:
            if isinstance(target, dict):
                target[data.draw(st.sampled_from(PROPERTY_NAMES))] = value
            else:
                target.insert(data.draw(st.integers(0, len(target))), value)
        elif action == "delete":
            del target[data.draw(st.sampled_from(keys))]
        else:
            target[data.draw(st.sampled_from(keys))] = value
    assert _conforms(raw, CONFIG_SCHEMA) == VALIDATOR.is_valid(raw)


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
