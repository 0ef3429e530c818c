"""Versioned JSON run configuration: schema, loading, and object building.

A configuration file describes at most one of each section; which sections a
subcommand needs is checked at dispatch time so one file can drive several
commands.  Schema violations raise ConfigError; values that pass the schema
but violate library preconditions surface as the library's own errors.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, InvariantViolationError
from .models import (
    AbelianModel,
    CuspidalLabelK,
    CyclicData,
    GenericAtom,
    GenericRelationModel,
)

if TYPE_CHECKING:
    from .gauss import HeckeGaussianModel

CONFIG_VERSION = 1
REPORT_VERSION = 1

_abelian_model = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "factors", "sigma", "p"],
    "properties": {
        "kind": {"const": "abelian"},
        "factors": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "integer", "minimum": 2},
        },
        "sigma": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "minItems": 1, "items": {"type": "integer"}},
        },
        "p": {"type": "integer", "minimum": 2},
        "allow_trivial_sigma": {"type": "boolean"},
    },
}

_generic_model = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "p", "atoms", "relations", "chi_invariant"],
    "properties": {
        "kind": {"const": "generic"},
        "p": {"type": "integer", "minimum": 2},
        "atoms": {
            "type": "array",
            "minItems": 2,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["id", "degree"],
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "degree": {"type": "integer", "minimum": 1},
                    "noninvariant": {"type": "boolean"},
                },
            },
        },
        "relations": {
            "type": "array",
            "items": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "items": {"type": "integer"},
            },
        },
        "chi_invariant": {"type": "boolean"},
        "theta1_id": {"type": "string"},
        "theta2_id": {"type": "string"},
        "validate": {"type": "boolean"},
    },
}

_gaussian_model = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "modulus"],
    "properties": {
        "kind": {"const": "gaussian"},
        "modulus": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": {"type": "integer"},
        },
    },
}

_coords = {"type": "array", "items": {"type": "integer"}}

_abelian_label = {
    "oneOf": [
        _coords,
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["coords"],
            "properties": {
                "coords": _coords,
                "behavior": {"enum": ["induced", "stays"]},
            },
        },
    ]
}

_generic_label = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"shift": {"type": "integer"}},
}

_gaussian_label = {
    "oneOf": [
        {"type": "integer", "minimum": 0},
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["index"],
            "properties": {
                "index": {"type": "integer", "minimum": 0},
                "behavior": {"enum": ["induced", "stays"]},
            },
        },
    ]
}

_any_label = {"oneOf": [_abelian_label, _generic_label, _gaussian_label]}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["version"],
    "properties": {
        "version": {"const": CONFIG_VERSION},
        "model": {
            "oneOf": [_abelian_model, _generic_model, _gaussian_model]
        },
        "labels": {
            "type": "object",
            "additionalProperties": False,
            "required": ["theta1", "theta2", "chi"],
            "properties": {
                "theta1": _any_label,
                "theta2": _any_label,
                "chi": _any_label,
            },
        },
        "family": {
            "type": "object",
            "additionalProperties": False,
            "required": ["models"],
            "properties": {
                "models": {"type": "array", "minItems": 1, "items": _abelian_model}
            },
        },
        "catalogue": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "p_values": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "integer", "minimum": 2},
                },
                "max_group_order": {"type": "integer", "minimum": 2},
            },
        },
        "budget": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "strategy": {"enum": ["exhaustive", "sample"]},
                "limit": {"type": ["integer", "null"], "minimum": 0},
                "samples": {"type": "integer", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "witness": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "target_ell": {"type": ["integer", "null"], "minimum": 0},
                "require_noninvariant_chi": {"type": "boolean"},
            },
        },
        "estimate": {
            "type": "object",
            "additionalProperties": False,
            "required": ["X"],
            "properties": {
                "X": {"type": "integer", "minimum": 1},
                "tau": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 1,
                },
            },
        },
    },
}


_JSON_TYPES = {"null": type(None), "boolean": bool, "string": str, "array": list, "object": dict}


def _is_type(value, name: str) -> bool:
    """Whether a JSON value has the draft 2020-12 type `name`: a bool is
    only a boolean, and an integral float is an integer."""
    if isinstance(value, bool):
        return name == "boolean"
    if name == "integer":
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if name == "number":
        return isinstance(value, (int, float))
    return isinstance(value, _JSON_TYPES[name])


def _equal(a, b) -> bool:
    """JSON equality, as `const` and `enum` compare: 1.0 equals 1, but a
    bool equals only itself, also inside arrays and objects."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


# Each keyword `CONFIG_SCHEMA` uses, as a test of (value, argument, the
# schema holding it).  A keyword missing here raises KeyError rather than
# pass unchecked.  Size and range keywords hold for values of other types.
_KEYWORDS = {
    "$schema": lambda v, a, s: True,
    "type": lambda v, a, s: any(_is_type(v, t) for t in ([a] if isinstance(a, str) else a)),
    "const": lambda v, a, s: _equal(v, a),
    "enum": lambda v, a, s: any(_equal(v, e) for e in a),
    "oneOf": lambda v, a, s: sum(_conforms(v, branch) for branch in a) == 1,
    "items": lambda v, a, s: not isinstance(v, list) or all(_conforms(x, a) for x in v),
    "minItems": lambda v, a, s: not isinstance(v, list) or len(v) >= a,
    "maxItems": lambda v, a, s: not isinstance(v, list) or len(v) <= a,
    "minLength": lambda v, a, s: not isinstance(v, str) or len(v) >= a,
    "required": lambda v, a, s: not isinstance(v, dict) or all(k in v for k in a),
    "properties": lambda v, a, s: not isinstance(v, dict)
    or all(_conforms(v[k], sub) for k, sub in a.items() if k in v),
    "additionalProperties": lambda v, a, s: not isinstance(v, dict)
    or all(_conforms(v[k], a) for k in v if k not in s.get("properties", {})),
    "minimum": lambda v, a, s: not _is_type(v, "number") or not v < a,
    "exclusiveMinimum": lambda v, a, s: not _is_type(v, "number") or not v <= a,
    "exclusiveMaximum": lambda v, a, s: not _is_type(v, "number") or not v >= a,
}


def _conforms(value, schema) -> bool:
    """Whether the JSON value `value` is valid under `schema`, with the
    draft 2020-12 meaning of every keyword `CONFIG_SCHEMA` uses.  This is
    the whole accept decision; jsonschema only words a rejection."""
    if isinstance(schema, bool):
        return schema
    return all(_KEYWORDS[keyword](value, arg, schema) for keyword, arg in schema.items())


def _integers(value):
    """`value` with each integral float, which the schema accepts as an
    integer (its one number, tau, lies in (0, 1)), made a Python int."""
    if isinstance(value, list):
        return [_integers(x) for x in value]
    if isinstance(value, dict):
        return {key: _integers(x) for key, x in value.items()}
    return int(value) if isinstance(value, float) and value.is_integer() else value


def load_config(path: str | Path) -> dict:
    """Read and schema-validate a JSON configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    validate_config(raw)
    return _integers(raw)


def validate_config(raw: dict) -> None:
    """Accept `raw` if it conforms to `CONFIG_SCHEMA`, else raise
    ConfigError.

    `_conforms` decides, so an accepted config never imports jsonschema.
    A rejected one does: the message names jsonschema's best match among
    all errors, as `jsonschema.validate` reports it.  A config that
    `_conforms` rejects but jsonschema accepts is a bug in `_conforms`.
    """
    if _conforms(raw, CONFIG_SCHEMA):
        return
    from jsonschema.exceptions import best_match
    from jsonschema.validators import validator_for

    error = best_match(validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA).iter_errors(raw))
    if error is None:
        raise InvariantViolationError("config checker rejected a config jsonschema accepts")
    path = "/".join(str(piece) for piece in error.absolute_path) or "<root>"
    raise ConfigError(f"config schema violation at {path}: {error.message}") from error


def require_section(config: dict, section: str, command: str) -> dict:
    if section not in config:
        raise ConfigError(
            f"command {command!r} needs a {section!r} section in the config"
        )
    return config[section]


def build_model(spec: dict):
    """Instantiate the label model a config section describes."""
    kind = spec["kind"]
    if kind == "abelian":
        return AbelianModel(
            factors=tuple(spec["factors"]),
            sigma=tuple(tuple(row) for row in spec["sigma"]),
            cyclic=CyclicData(spec["p"]),
            allow_trivial_sigma=spec.get("allow_trivial_sigma", False),
        )
    if kind == "generic":
        atoms = tuple(
            GenericAtom(
                atom_id=a["id"],
                degree=a["degree"],
                noninvariant=a.get("noninvariant", True),
            )
            for a in spec["atoms"]
        )
        return GenericRelationModel(
            cyclic=CyclicData(spec["p"]),
            atoms=atoms,
            relations=frozenset(tuple(cell) for cell in spec["relations"]),
            chi_invariant=spec["chi_invariant"],
            theta1_id=spec.get("theta1_id", "theta1"),
            theta2_id=spec.get("theta2_id", "theta2"),
            validate=spec.get("validate", True),
        )
    if kind == "gaussian":
        from .gauss import GaussianModulus, HeckeGaussianModel

        return HeckeGaussianModel(GaussianModulus(tuple(spec["modulus"])))
    raise ConfigError(f"unknown model kind {kind!r}")


# The label shape each model kind reads, as an exit-2 message names it.
_LABEL_SHAPES = {
    "abelian": 'a coordinate array or {"coords": [...]}',
    "generic": '{"shift": t}',
    "gaussian": 'a character index or {"index": i}',
}


def _label_shape(value) -> str:
    """The model kind whose label shape a schema-valid label has."""
    if isinstance(value, dict):
        if "coords" in value:
            return "abelian"
        return "gaussian" if "index" in value else "generic"
    return "abelian" if isinstance(value, list) else "gaussian"


def _abelian_label_of(model: AbelianModel, role: str, value) -> tuple[CuspidalLabelK, str]:
    if isinstance(value, dict):
        return model.label(tuple(value["coords"])), value.get("behavior", "induced")
    return model.label(tuple(value)), "induced"


def _gaussian_label_of(
    model: HeckeGaussianModel, role: str, value
) -> tuple[CuspidalLabelK, str]:
    if isinstance(value, dict):
        index, behavior = value["index"], value.get("behavior", "induced")
    else:
        index, behavior = value, "induced"
    characters = model.characters
    if index >= len(characters):
        raise ConfigError(
            f"character index {index} out of range; the modulus has "
            f"{len(characters)} ideal characters"
        )
    return model.character_label(index), behavior


def _generic_label_of(
    model: GenericRelationModel, role: str, value: dict
) -> tuple[CuspidalLabelK, str]:
    make = {
        "theta1": model.theta1_label,
        "theta2": model.theta2_label,
        "chi": model.chi_label,
    }[role]
    return make(value.get("shift", 0)), "induced"


# The label builder of each model kind, by its class-level `kind`.
_LABEL_BUILDERS = {
    "abelian": _abelian_label_of,
    "generic": _generic_label_of,
    "gaussian": _gaussian_label_of,
}


def build_labels(model, spec: dict) -> dict:
    """Build the three labels of a triple from a labels section.

    Returns {"theta1": (label, behavior), "theta2": ..., "chi": label};
    `behavior` distinguishes data that base-change to the Galois orbit
    ("induced") from data that stay cuspidal ("stays").  The schema accepts
    every kind's label shape in every role, so a label of another model
    kind's shape is rejected here.
    """
    kind = getattr(model, "kind", None)
    label_of = _LABEL_BUILDERS.get(kind)
    if label_of is None:
        raise ConfigError("unsupported model for label building")
    out = {}
    for role in ("theta1", "theta2", "chi"):
        value = spec[role]
        if _label_shape(value) != kind:
            raise ConfigError(
                f"label {role!r} does not fit a {kind} model: "
                f"expected {_LABEL_SHAPES[kind]}"
            )
        out[role] = label_of(model, role, value)
    out["chi"] = out["chi"][0]
    return out


def build_family(config: dict, command: str):
    """A `SweepFamily` from either an explicit model list or catalogue
    parameters; exactly one of the two sections must be present."""
    from .sweep import SweepFamily, shipped_catalogue

    has_family = "family" in config
    has_catalogue = "catalogue" in config
    if has_family == has_catalogue:
        raise ConfigError(
            f"command {command!r} needs exactly one of 'family' or 'catalogue'"
        )
    if has_family:
        models = tuple(build_model(m) for m in config["family"]["models"])
        return SweepFamily(models=models)
    cat = config["catalogue"]
    return shipped_catalogue(
        p_values=tuple(cat.get("p_values", (2, 3, 5))),
        max_group_order=cat.get("max_group_order", 64),
    )


def build_budget(config: dict, seed_override: int | None = None):
    """The `SweepBudget` of the config's budget section."""
    from .sweep import SweepBudget

    spec = dict(config.get("budget", {}))
    if seed_override is not None:
        spec["seed"] = seed_override
    return SweepBudget(
        strategy=spec.get("strategy", "exhaustive"),
        limit=spec.get("limit"),
        samples=spec.get("samples", 10000),
        seed=spec.get("seed", 0),
    )
