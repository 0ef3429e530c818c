"""Command line front end.

Every subcommand reads a JSON config file, runs one library entry point, and
emits a versioned report (JSON by default, `--format text` for a terminal
rendering) to stdout or `--output`.  Each handler imports the lane it runs
(sweep, oracle, numerics) when it runs, after checking the model kind and
sections its config needs, so a `pole-order` or `factorize` request, and
a rejected `oracle-compare` or `hecke-estimate`, loads no numpy and none
of those lanes.

Exit codes:
    0  success (including marked reports: violated comparison precondition,
       witness search exhausted)
    2  unusable configuration (bad file, bad JSON, schema violation, config
       missing a section the command needs) or an `--output` that cannot be
       written; that error report goes to stdout instead
    3  inputs rejected by a library precondition
    4  a checked invariant failed: integrality or partial-permutation
       violations, oracle disagreement, numeric estimate contradicting the
       symbolic count
    5  numeric pole probe landed in the indeterminate band
    6  internal error: any other exception, such as a bug or MemoryError; the
       traceback goes to stderr
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

from . import __version__
from .calculus import (
    CuspidalDatumF,
    automorphic_induction,
    factorize,
    matching_matrix,
    triple_pole_order,
)
from .config import (
    REPORT_VERSION,
    build_budget,
    build_family,
    build_labels,
    build_model,
    load_config,
    require_section,
)
from .errors import (
    ConfigError,
    IndeterminatePoleError,
    InvariantViolationError,
    ModelMismatchError,
    PreconditionError,
    RelationValidationError,
    UnsupportedOperationError,
)
from .models import AbelianModel, CuspidalLabelK

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_INVARIANT = 4
EXIT_INDETERMINATE = 5
EXIT_INTERNAL = 6


def _label_json(label: CuspidalLabelK) -> dict:
    """Model-independent JSON rendering of a cuspidal label."""
    info: dict = {"degree": label.degree}
    kind = getattr(label.model, "kind", None)
    if kind == "gaussian":
        info["exponents"] = list(label.payload)
    elif kind == "abelian":
        info["coords"] = list(label.payload)
    elif kind == "generic":
        atom_id, shift = label.payload
        info["atom"] = atom_id
        info["shift"] = shift
    else:
        info["payload"] = repr(label.payload)
    return info


def _datum(pair) -> CuspidalDatumF:
    label, behavior = pair
    if behavior == "stays":
        return CuspidalDatumF.stays_cuspidal(label)
    return automorphic_induction(label)


def _triple(config: dict, command: str):
    model = build_model(require_section(config, "model", command))
    labels = build_labels(model, require_section(config, "labels", command))
    return model, labels


def _matrix_json(matrix) -> dict:
    return {
        "p": matrix.p,
        "ell": matrix.ell,
        "true_cells": [list(cell) for cell in matrix.true_cells],
        "rows": matrix.as_rows(),
    }


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (result_dict, exit_code).


def cmd_pole_order(config: dict, args) -> tuple[dict, int]:
    model, labels = _triple(config, "pole-order")
    pi1 = _datum(labels["theta1"])
    pi2 = _datum(labels["theta2"])
    chi = labels["chi"]
    ell = triple_pole_order(pi1, pi2, chi)
    result = {
        "ell": ell,
        "model": model.describe(),
        "theta1": _label_json(labels["theta1"][0]),
        "theta2": _label_json(labels["theta2"][0]),
        "chi": _label_json(chi),
        "matrix": None,
    }
    if pi1.is_induced and pi2.is_induced:
        m = matching_matrix(labels["theta1"][0], labels["theta2"][0], chi)
        result["matrix"] = _matrix_json(m)
    return result, EXIT_OK


def cmd_factorize(config: dict, args) -> tuple[dict, int]:
    model, labels = _triple(config, "factorize")
    pi1 = _datum(labels["theta1"])
    pi2 = _datum(labels["theta2"])
    chi = labels["chi"]
    factors = factorize(pi1, pi2, chi)
    result = {
        "ell": sum(f.pole_order for f in factors),
        "model": model.describe(),
        "factors": [
            {
                "j": f.j,
                "k": f.k,
                "left": _label_json(f.left),
                "right": _label_json(f.right),
                "pole_order": f.pole_order,
            }
            for f in factors
        ],
    }
    return result, EXIT_OK


def cmd_sweep(config: dict, args) -> tuple[dict, int]:
    from .sweep import sweep

    family = build_family(config, "sweep")
    budget = build_budget(config, seed_override=args.seed)
    report = sweep(family, budget)
    code = EXIT_OK
    if report.violations or report.rigidity_breaches:
        code = EXIT_INVARIANT
    return report.to_dict(), code


def cmd_witness(config: dict, args) -> tuple[dict, int]:
    from .sweep import find_witness

    family = build_family(config, "witness")
    spec = config.get("witness", {})
    found = find_witness(
        family,
        target_ell=spec.get("target_ell"),
        require_noninvariant_chi=spec.get("require_noninvariant_chi", False),
    )
    result = {
        "target_ell": spec.get("target_ell"),
        "require_noninvariant_chi": spec.get("require_noninvariant_chi", False),
        "found": found is not None,
        "witness": found,
        "models": [m.describe() for m in family.models],
    }
    return result, EXIT_OK


def cmd_oracle_compare(config: dict, args) -> tuple[dict, int]:
    model, labels = _triple(config, "oracle-compare")
    if not isinstance(model, AbelianModel):
        raise ConfigError("oracle-compare needs an abelian model")
    from .group_oracle import oracle_compare

    comparison = oracle_compare(
        model, labels["theta1"][0], labels["theta2"][0], labels["chi"]
    )
    result = comparison.to_dict()
    result["model"] = model.describe()
    code = EXIT_OK if comparison.equal is not False else EXIT_INVARIANT
    return result, code


def cmd_hecke_estimate(config: dict, args) -> tuple[dict, int]:
    model, labels = _triple(config, "hecke-estimate")
    if model.kind != "gaussian":
        raise ConfigError("hecke-estimate needs a gaussian model")
    spec = require_section(config, "estimate", "hecke-estimate")
    from .gauss_sums import DEFAULT_TAU, numeric_triple_estimate

    estimate = numeric_triple_estimate(
        labels["theta1"][0],
        labels["theta2"][0],
        labels["chi"],
        X=spec["X"],
        tau=spec.get("tau", DEFAULT_TAU),
        workers=args.workers,
    )
    result = estimate.to_dict()
    result["model"] = model.describe()
    code = EXIT_OK if estimate.agree else EXIT_INVARIANT
    return result, code


_HANDLERS = {
    "pole-order": cmd_pole_order,
    "factorize": cmd_factorize,
    "sweep": cmd_sweep,
    "witness": cmd_witness,
    "oracle-compare": cmd_oracle_compare,
    "hecke-estimate": cmd_hecke_estimate,
}


# ---------------------------------------------------------------------------
# Text rendering


def _render_matrix(matrix: dict) -> list[str]:
    return [
        "  " + " ".join("#" if cell else "." for cell in row)
        for row in matrix["rows"]
    ]


def _render_text(command: str, envelope: dict) -> str:
    lines = [f"{command} (v{envelope['tool']['version']})"]
    if "error" in envelope:
        err = envelope["error"]
        lines.append(f"error {err['type']}: {err['message']}")
        for key in ("ratio", "pair"):
            if err.get(key) is not None:
                lines.append(f"  {key}: {err[key]}")
        return "\n".join(lines) + "\n"
    result = envelope["result"]
    if command in ("pole-order", "factorize"):
        lines.append(f"pole order: {result['ell']}")
        if command == "pole-order" and result.get("matrix"):
            lines.append("matching matrix (# = on):")
            lines.extend(_render_matrix(result["matrix"]))
        if command == "factorize":
            for f in result["factors"]:
                lines.append(
                    f"  cell ({f['j']}, {f['k']}): pole order {f['pole_order']}"
                )
    elif command == "sweep":
        lines.append(
            f"{result['triples_examined']} triples examined "
            f"({result['strategy']}, complete={result['complete']})"
        )
        lines.append(f"max pole order: {result['max_ell']}")
        lines.append("histogram:")
        for ell, count in sorted(result["histogram"].items(), key=lambda x: int(x[0])):
            lines.append(f"  ell={ell}: {count}")
        lines.append(f"violations: {len(result['violations'])}")
        lines.append(f"rigidity breaches: {len(result['rigidity_breaches'])}")
    elif command == "witness":
        if result["found"]:
            w = result["witness"]
            lines.append(
                f"witness in model {w['model']}: theta1={w['theta1']} "
                f"theta2={w['theta2']} chi={w['chi']} ell={w['ell']}"
            )
        else:
            lines.append("no witness found (search exhausted)")
    elif command == "oracle-compare":
        lines.append(f"calculus ell: {result['ell']}")
        lines.append(f"oracle multiplicity: {result['multiplicity']}")
        if result["precondition_violated"]:
            lines.append("verdict: skipped (calculus precondition violated)")
        else:
            lines.append(f"verdict: {'agree' if result['equal'] else 'DISAGREE'}")
    elif command == "hecke-estimate":
        lines.append(f"numeric ell: {result['ell_hat']}")
        lines.append(f"symbolic ell: {result['ell_symbolic']}")
        lines.append(f"verdict: {'agree' if result['agree'] else 'DISAGREE'}")
        for cell in result["cells"]:
            lines.append(
                f"  cell ({cell['j']}, {cell['k']}): ratio={cell['ratio']:.6f} "
                f"verdict={cell['verdict']}"
            )
    lines.append(f"elapsed: {envelope['elapsed_seconds']:.3f}s")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Driver


def _envelope(command: str, args, elapsed: float) -> dict:
    return {
        "report_version": REPORT_VERSION,
        "tool": {"name": "triplepole", "version": __version__},
        "command": command,
        "seed": args.seed,
        "workers": args.workers,
        "elapsed_seconds": round(elapsed, 6),
    }


def _error_payload(exc: Exception) -> dict:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, IndeterminatePoleError):
        payload["ratio"] = exc.ratio
        payload["pair"] = list(exc.pair) if exc.pair is not None else None
    return payload


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, IndeterminatePoleError):
        return EXIT_INDETERMINATE
    if isinstance(
        exc,
        (
            PreconditionError,
            ModelMismatchError,
            RelationValidationError,
            UnsupportedOperationError,
        ),
    ):
        return EXIT_PRECONDITION
    if isinstance(exc, InvariantViolationError):
        return EXIT_INVARIANT
    return EXIT_INTERNAL


def _error_envelope(args, start: float, exc: Exception) -> dict:
    envelope = _envelope(args.command, args, time.monotonic() - start)
    envelope["error"] = _error_payload(exc)
    return envelope


def _render(args, envelope: dict) -> str:
    if args.fmt == "text":
        return _render_text(args.command, envelope)
    return json.dumps(envelope, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplepole",
        description="Pole orders of triple products with an induced character factor",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "pole-order": "pole order of one triple, with the matching matrix",
        "factorize": "Rankin-Selberg factor list of one triple",
        "sweep": "exhaustive or sampled sweep over a model family",
        "witness": "search a family for a triple with a target pole order",
        "oracle-compare": "check one triple against the finite-group oracle",
        "hecke-estimate": "numeric pole estimate for a Gaussian triple",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the sweep seed")
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="accepted and echoed in the report; has no effect",
        )
        p.add_argument("--output", default=None, help="write the report to a file")
        p.add_argument(
            "--format", choices=("json", "text"), default="json", dest="fmt"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        config = load_config(args.config)
        result, code = _HANDLERS[args.command](config, args)
        envelope = _envelope(args.command, args, time.monotonic() - start)
        envelope["result"] = result
    except Exception as exc:  # noqa: BLE001
        code = _exit_code(exc)
        if code == EXIT_INTERNAL:
            traceback.print_exc()  # the envelope has no room for where it failed
        envelope = _error_envelope(args, start, exc)
    text = _render(args, envelope)
    if args.output:
        try:
            Path(args.output).write_text(text)
            return code
        except OSError as exc:
            code, text = EXIT_CONFIG, _render(args, _error_envelope(args, start, exc))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
