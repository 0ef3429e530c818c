"""The cli-mix request stream: requests built from the shipped `configs/`,
the exit code and report fields each request must produce, and the check.

One pass holds, for every pair of a shipped config and a subcommand that
reads it (`SHIPPED`), two requests: the shipped file as it is, and a variant
with seeded labels, budget seed, modulus or target (`_variant`).  The seed
chooses which of the two is rendered as text and which as JSON.  Four
malformed or invalid requests, mutations of shipped configs that must exit
with 2 and 3, complete the pass.  There is no record of real traffic, so
this mix (each shipped use once as shipped and once varied, plus four bad
requests) is an assumption: it weights the subcommands as the shipped
configs do.

Expected pole orders of abelian triples are computed here from the
definition (cell (j, k) is on when sigma^j(theta2) + sigma^k(theta1) + chi
vanishes), independently of the package, so a request is checked against
more than the package's own opinion.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# (shipped config, subcommand): each config under the command it was written
# for, and each single-triple model config also under the other commands
# that take a model.  oracle-compare on the generic model must exit 2.
SHIPPED = [
    ("abelian_z3sq", "pole-order"),
    ("abelian_z3sq", "factorize"),
    ("abelian_z3sq", "oracle-compare"),
    ("abelian_z7", "pole-order"),
    ("abelian_z7", "factorize"),
    ("abelian_z7", "oracle-compare"),
    ("basechange_z7", "pole-order"),
    ("basechange_z7", "factorize"),
    ("basechange_z7", "oracle-compare"),
    ("generic_mismatch", "pole-order"),
    ("generic_mismatch", "factorize"),
    ("generic_mismatch", "oracle-compare"),
    ("gaussian_mod7", "hecke-estimate"),
    ("sweep_small", "sweep"),
    ("witness_p2_restricted", "witness"),
    ("witness_z7", "witness"),
]
BAD_CONFIGS = 2  # per pass, exit 2
BAD_INPUTS = 2  # per pass, exit 3
HECKE_MODULI = (7, 9, 13, 15, 21)
SWEEP_SAMPLES = 3000


# ---------------------------------------------------------------------------
# Abelian arithmetic, from the definitions


def _apply(sigma, factors, a, t):
    for _ in range(t):
        a = tuple(
            sum(sigma[i][j] * a[j] for j in range(len(factors))) % factors[i]
            for i in range(len(factors))
        )
    return a


def _elements(factors):
    out = [()]
    for d in factors:
        out = [e + (x,) for e in out for x in range(d)]
    return out


def _add(factors, *terms):
    return tuple(sum(t[i] for t in terms) % d for i, d in enumerate(factors))


def pole_order(factors, sigma, p, theta1, theta2, chi) -> int:
    zero = (0,) * len(factors)
    return sum(
        _add(factors, _apply(sigma, factors, theta2, j), _apply(sigma, factors, theta1, k), chi)
        == zero
        for j in range(p)
        for k in range(p)
    )


def stays_pole_order(factors, sigma, p, theta1, theta2, chi) -> int:
    """A stable theta1 pairs with at most one constituent of the induced theta2."""
    zero = (0,) * len(factors)
    return sum(_add(factors, theta1, _apply(sigma, factors, theta2, j), chi) == zero
               for j in range(p))


def _fixed(factors, sigma):
    return [a for a in _elements(factors) if _apply(sigma, factors, a, 1) == a]


def _noninvariant(factors, sigma):
    return [a for a in _elements(factors) if _apply(sigma, factors, a, 1) != a]


def _abelian(model: dict):
    return tuple(model["factors"]), tuple(tuple(r) for r in model["sigma"]), model["p"]


def _coords(value) -> tuple:
    return tuple(value["coords"] if isinstance(value, dict) else value)


# ---------------------------------------------------------------------------
# Requests


def _expect(kind: str, command: str, config: dict, **fields) -> dict:
    """A request for `config` with what it must return; exit 0 unless given."""
    return {"kind": kind, "command": command, "config": config, "exit": 0, **fields}


def _expect_model(command: str, config: dict) -> dict:
    """What a single-triple request on an abelian or generic model returns."""
    model, labels = config["model"], config["labels"]
    if model["kind"] == "generic":
        if command == "oracle-compare":
            return _expect("rejected", command, config, exit=2, error="ConfigError")
        # theta1 and theta2 have different degrees, so no cell matches
        return _expect(f"generic-{command}", command, config, ell=0)
    factors, sigma, p = _abelian(model)
    t1, t2, chi = (_coords(labels[r]) for r in ("theta1", "theta2", "chi"))
    full = pole_order(factors, sigma, p, t1, t2, chi)
    if isinstance(labels["theta1"], dict) and labels["theta1"].get("behavior") == "stays":
        if command == "oracle-compare":
            # the oracle still counts the full matching matrix; the calculus
            # declines because its precondition (theta1 induced) fails
            return _expect("oracle-compare-stays", command, config, multiplicity=full)
        return _expect(f"{command}-stays", command, config,
                       ell=stays_pole_order(factors, sigma, p, t1, t2, chi))
    return _expect(command, command, config, ell=full)


def _abelian_labels(rng: random.Random, factors, sigma, p) -> dict:
    noninv = _noninvariant(factors, sigma)
    t1, t2 = rng.choice(noninv), rng.choice(noninv)
    if rng.random() < 0.5:
        # aim chi at one matching cell so that poles are common in the stream
        j, k = rng.randrange(p), rng.randrange(p)
        s = _add(factors, _apply(sigma, factors, t2, j), _apply(sigma, factors, t1, k))
        chi = tuple((-x) % d for x, d in zip(s, factors))
    else:
        chi = rng.choice(_elements(factors))
    return {"theta1": list(t1), "theta2": list(t2), "chi": list(chi)}


def _variant(name: str, command: str, shipped: dict, rng: random.Random, digest: dict) -> dict:
    """The shipped config `name` with seeded labels, seed, modulus or target."""
    config = {k: v for k, v in shipped.items() if k != "version"}
    if name == "basechange_z7":
        factors, sigma, p = _abelian(config["model"])
        t2 = rng.choice(_noninvariant(factors, sigma))
        t1 = rng.choice(_fixed(factors, sigma))
        chi = rng.choice(_elements(factors))
        if rng.random() < 0.5:  # aim chi at the one possible pole
            s = _add(factors, t1, _apply(sigma, factors, t2, rng.randrange(p)))
            chi = tuple((-x) % d for x, d in zip(s, factors))
        config["labels"] = {"theta1": {"coords": list(t1), "behavior": "stays"},
                            "theta2": {"coords": list(t2), "behavior": "induced"},
                            "chi": list(chi)}
        return _expect_model(command, config)
    if config.get("model", {}).get("kind") == "abelian":
        config["labels"] = _abelian_labels(rng, *_abelian(config["model"]))
        return _expect_model(command, config)
    if config.get("model", {}).get("kind") == "generic":
        p = config["model"]["p"]
        config["labels"] = {role: {"shift": rng.randrange(p)} for role in ("theta1", "theta2", "chi")}
        return _expect_model(command, config)
    if command == "hecke-estimate":
        m = rng.choice(HECKE_MODULI)
        noninv = digest["hecke"][str(m)]["noninvariant"]
        config["model"] = {"kind": "gaussian", "modulus": [m, 0]}
        config["labels"] = {"theta1": rng.choice(noninv), "theta2": rng.choice(noninv),
                            "chi": rng.randrange(digest["hecke"][str(m)]["characters"])}
        return _expect("hecke-estimate", command, config)
    if command == "sweep":
        config["budget"] = {"strategy": "sample", "samples": SWEEP_SAMPLES,
                            "seed": rng.randrange(2**31)}
        return _expect("sweep-sampled", command, config, samples=SWEEP_SAMPLES)
    if name == "witness_p2_restricted":
        # the same catalogue with a target it holds: an early exit
        config["witness"] = {"target_ell": rng.choice([1, 2]), "require_noninvariant_chi": False}
        return _expect("witness-found", command, config, target=config["witness"]["target_ell"])
    if name == "witness_z7":
        (model,) = config["family"]["models"]
        factors, sigma, p = _abelian(model)
        noninv = _noninvariant(factors, sigma)
        held = sorted({pole_order(factors, sigma, p, a, b, c)
                       for a in noninv for b in noninv for c in _elements(factors)})
        config["witness"] = {"target_ell": rng.choice(held)}
        return _expect("witness-found", command, config, target=config["witness"]["target_ell"])
    raise ValueError(f"no variant for {name} {command}")


def _shipped(name: str, command: str, shipped: dict, digest: dict) -> dict:
    if "model" in shipped and shipped["model"]["kind"] != "gaussian":
        return _expect_model(command, shipped)
    if command == "hecke-estimate":
        return _expect("hecke-estimate", command, shipped)
    if command == "sweep":
        return _expect("sweep-exhaustive", command, shipped, digest=digest["sweep_small"])
    spec = shipped["witness"]
    if spec.get("require_noninvariant_chi"):
        # p = 2 rigidity: a double pole needs an invariant chi, so this
        # search walks every pair of the catalogue and finds nothing
        return _expect("witness-exhausted", command, shipped)
    return _expect("witness-found", command, shipped, target=spec["target_ell"])


def _bad_config(rng: random.Random, shipped: dict) -> tuple[dict, str | None]:
    """A shipped single-triple config broken so that loading it fails."""
    good = {k: v for k, v in shipped.items() if k != "version"}
    variant = rng.randrange(4)
    if variant == 0:
        return dict(good, version=2), None
    if variant == 1:
        return dict(good, colour="blue"), None
    if variant == 2:
        return good, json.dumps(dict(good, version=1))[:-7]
    return {"model": good["model"]}, None


def _bad_input(rng: random.Random, configs: dict) -> dict:
    """A well-formed config whose mathematics the package must refuse."""
    variant = rng.randrange(3)
    if variant == 0:
        # an invariant theta1 cannot be induced
        config = {k: v for k, v in configs["abelian_z7"].items() if k != "version"}
        factors, sigma, _ = _abelian(config["model"])
        config["labels"] = {"theta1": list(rng.choice(_fixed(factors, sigma))),
                            "theta2": list(rng.choice(_noninvariant(factors, sigma))),
                            "chi": list(rng.choice(_elements(factors)))}
        return _expect("bad-input", "pole-order", config, exit=3, error="PreconditionError")
    if variant == 1:
        # multiplication by 2 has order 3 mod 7, not 2
        config = {k: v for k, v in configs["abelian_z7"].items() if k != "version"}
        config["model"] = dict(config["model"], p=2)
        return _expect("bad-input", "factorize", config, exit=3, error="PreconditionError")
    config = {k: v for k, v in configs["gaussian_mod7"].items() if k != "version"}
    config["model"] = {"kind": "gaussian", "modulus": [2, 1]}
    config["labels"] = {"theta1": 1, "theta2": 1, "chi": 0}
    return _expect("bad-input", "hecke-estimate", config, exit=3, error="UnsupportedModulusError")


def make_stream(seed: int, digest: dict, root: Path, workdir: Path) -> list[dict]:
    """One pass of requests; writes the config files of the generated ones."""
    rng = random.Random(f"cli-mix/{seed}")
    configs = {name: json.loads((root / "configs" / f"{name}.json").read_text())
               for name in {name for name, _ in SHIPPED}}
    stream = []
    for name, command in SHIPPED:
        shipped = _shipped(name, command, configs[name], digest)
        shipped["path"] = f"configs/{name}.json"
        variant = _variant(name, command, configs[name], rng, digest)
        text = rng.random() < 0.5
        shipped["format"], variant["format"] = ("text", "json") if text else ("json", "text")
        shipped["source"] = variant["source"] = name
        stream += [shipped, variant]
    models = [name for name, command in SHIPPED if command == "pole-order"]
    for i in range(BAD_CONFIGS):
        name = rng.choice(models)
        config, text = _bad_config(rng, configs[name])
        stream.append(_expect("bad-config", "pole-order", config, exit=2, error="ConfigError",
                              text=text, source=name, format=rng.choice(["json", "text"])))
    for i in range(BAD_INPUTS):
        stream.append(dict(_bad_input(rng, configs), source="mutated",
                           format=rng.choice(["json", "text"])))
    rng.shuffle(stream)
    for index, req in enumerate(stream):
        text = req.pop("text", None)
        if "path" not in req:
            req["path"] = str(workdir / f"request-{index:03d}.json")
            Path(req["path"]).write_text(
                text if text is not None else json.dumps({"version": 1, **req["config"]})
            )
        req["argv"] = [req["command"], "--config", req["path"], "--format", req["format"]]
    return stream


# ---------------------------------------------------------------------------
# Checking a response


def _witness_ell(witness: dict, models: list) -> int:
    factors, sigma, p = _abelian(models[witness["model"]])
    return pole_order(factors, sigma, p, tuple(witness["theta1"]),
                      tuple(witness["theta2"]), tuple(witness["chi"]))


def check(req: dict, code: int, stdout: str, version: str) -> tuple[list[str], dict]:
    """Problems with one response (none when it is correct), and the work the
    program reported: triples whose pole order it returned and witnesses it
    found."""
    if code != req["exit"]:
        return [f"exit code {code}, expected {req['exit']}"], {}
    if req["format"] == "text":
        return _check_text(req, stdout, version)
    try:
        env = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"], {}
    problems = []
    if env.get("report_version") != 1 or env.get("command") != req["command"]:
        problems.append("envelope version or command is wrong")
    if env.get("tool", {}).get("version") != version:
        problems.append("tool version is wrong")
    if "error" in req:
        if env.get("error", {}).get("type") != req["error"]:
            problems.append(f"error {env.get('error')}, expected {req['error']}")
        return problems, {}
    result = env.get("result")
    if result is None:
        return problems + [f"no result: {env.get('error')}"], {}
    kind = req["kind"]
    work = {"triples": 1}
    if kind in ("pole-order", "pole-order-stays", "generic-pole-order"):
        if result["ell"] != req["ell"]:
            problems.append(f"ell {result['ell']}, expected {req['ell']}")
        if kind != "pole-order-stays" and len(result["matrix"]["true_cells"]) != req["ell"]:
            problems.append("matching matrix disagrees with ell")
    elif kind in ("factorize", "factorize-stays", "generic-factorize"):
        p = req["config"]["model"]["p"]
        cells = p if kind == "factorize-stays" else p * p
        if result["ell"] != req["ell"] or len(result["factors"]) != cells:
            problems.append(f"factorization {result['ell']} over {len(result['factors'])} cells")
    elif kind == "oracle-compare":
        if (result["ell"], result["multiplicity"], result["equal"]) != (req["ell"], req["ell"], True):
            problems.append(f"oracle comparison {result}, expected ell {req['ell']}")
    elif kind == "oracle-compare-stays":
        if (result["ell"], result["multiplicity"], result["equal"], result["precondition_violated"]) \
                != (None, req["multiplicity"], None, True):
            problems.append(f"oracle comparison {result}, expected multiplicity "
                            f"{req['multiplicity']} and a violated precondition")
    elif kind == "hecke-estimate":
        if not result["agree"] or result["ell_hat"] != result["ell_symbolic"] or len(result["cells"]) != 4:
            problems.append(f"numeric estimate disagrees: {result['ell_hat']} vs {result['ell_symbolic']}")
    elif kind == "sweep-sampled":
        work["triples"] = result["triples_examined"]
        if (result["triples_examined"] != req["samples"]
                or sum(result["histogram"].values()) != req["samples"]
                or result["violations"] or result["rigidity_breaches"]
                or result["rng"]["seed"] != req["config"]["budget"]["seed"]):
            problems.append("sampled sweep report is inconsistent")
    elif kind == "sweep-exhaustive":
        work["triples"] = result["triples_examined"]
        expected = req["digest"]
        if (not result["complete"] or result["triples_examined"] != expected["triples"]
                or result["histogram"] != expected["histogram"]
                or result["witnesses"] != expected["witnesses"]
                or result["violations"] or result["rigidity_breaches"]):
            problems.append("exhaustive sweep differs from the recorded digest")
    elif kind == "witness-found":
        w = result["witness"]
        work["witnesses"] = int(result["found"])
        if not result["found"] or w["ell"] != req["target"] or _witness_ell(w, result["models"]) != req["target"]:
            problems.append(f"witness {w} does not have pole order {req['target']}")
    elif kind == "witness-exhausted":
        work["triples"] = 0
        if result["found"] or result["witness"] is not None:
            problems.append("exhaustive witness search found a witness")
    return problems, work


def _check_text(req: dict, stdout: str, version: str) -> tuple[list[str], dict]:
    lines = stdout.splitlines()
    if not lines or lines[0] != f"{req['command']} (v{version})":
        return ["text report has the wrong header"], {}
    kind = req["kind"]
    work = {"triples": 1}
    if "error" in req:
        expected, work = [f"error {req['error']}:"], {}
    elif kind in ("sweep-sampled", "sweep-exhaustive"):
        triples = req["samples"] if kind == "sweep-sampled" else req["digest"]["triples"]
        expected = [f"{triples} triples examined", "violations: 0", "rigidity breaches: 0"]
        if kind == "sweep-exhaustive":
            expected += [f"  ell={ell}: {n}" for ell, n in req["digest"]["histogram"].items()]
        examined = [line.split()[0] for line in lines[1:] if line.endswith(")") and "triples examined" in line]
        work["triples"] = int(examined[0]) if examined and examined[0].isdigit() else 0
    elif kind == "witness-found":
        expected, work = ["witness in model"], {"triples": 1, "witnesses": 1}
    elif kind == "witness-exhausted":
        expected, work = ["no witness found (search exhausted)"], {"triples": 0}
    elif kind == "oracle-compare":
        expected = [f"calculus ell: {req['ell']}", "verdict: agree"]
    elif kind == "oracle-compare-stays":
        expected = [f"oracle multiplicity: {req['multiplicity']}",
                    "verdict: skipped (calculus precondition violated)"]
    elif kind == "hecke-estimate":
        expected = ["verdict: agree"]
    else:  # pole-order and factorize, on abelian and generic models
        expected = [f"pole order: {req['ell']}"]
    missing = [e for e in expected if not any(line.startswith(e) for line in lines)]
    if kind == "witness-found" and not any(f"ell={req['target']}" in line for line in lines):
        missing.append(f"ell={req['target']}")
    return [f"text report lacks {m!r}" for m in missing], (work if not missing else {})
