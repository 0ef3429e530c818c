"""One repetition of an in-process workload, or one timed set-up, in a fresh
interpreter, so the package's process-level caches start empty.

run.py starts it with ``src`` on PYTHONPATH:

    python3 perfbench/worker.py --workload hecke-numerics --seed 1 \
        --mode rep --trace 0 --workdir DIR --out FILE

and reads the JSON it writes to FILE: set-up time, wall time of the timed
phase, the latency of every public call by kind, exact work counts, output
problems and, untraced, the times of the reference loops sampled during the
set-up and the timed phase (reference.py) or, traced, the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import random
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import reference
from tracing import Tracer

HERE = Path(__file__).resolve().parent

ORACLE_MAX_ORDER = 27
# One model (group) in this many from every stratum; see _stratified.
ORACLE_SHARE = 6
# Strata of two are taken whole: the agreement sweeps of the two members of
# such a stratum can differ by a tenth, and several of them lie near the
# median call, which then moved by a quarter from one seed to the next.
ORACLE_WHOLE = 2
PROJECTION_SHARE = 6
HECKE_MODULI = (7, 9, 13, 15, 21)
HECKE_X = 10**7
HECKE_WORKERS = 2
# A job is the 240 estimates of one modulus: one estimate takes 0.7 to 2 ms,
# and its median follows whether the host is in a slow period at the time
# (the speed of a shared host can change by half for a second or two at a
# time) more than the code.  The per-call median is the per-layer
# gauss_sums.estimate_ms.
HECKE_ESTIMATES = 240  # numeric_triple_estimate calls per modulus
HECKE_EVALS = 40  # warm character_sum calls per modulus; divides HECKE_ESTIMATES


class Client:
    """Issues the workload's public calls one at a time (a closed loop with
    one client) and times each.  An exception is a failed operation: it is
    counted and reported, and the run goes on.

    An untraced repetition samples the reference loops while it runs
    (reference.Sampler); `clock` leaves out the time the samples took."""

    def __init__(self, rep: str, tracer: Tracer | None, sampler: reference.Sampler | None):
        self.rep = rep
        self.tracer = tracer
        self.sampler = sampler
        self.latency_ms: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []

    def clock(self) -> float:
        """Seconds of wall time, less those the reference samples took."""
        return time.perf_counter() - (self.sampler.spent if self.sampler else 0.0)

    @contextlib.contextmanager
    def unsampled(self):
        """No reference samples: for calls that run threads, which would
        slow the samples down."""
        if self.sampler:
            self.sampler.stop()
        try:
            yield
        finally:
            if self.sampler:
                self.sampler.start()

    def call(self, kind: str, key, fn, *args, **kwargs):
        self.attempted += 1
        start = self.clock()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            with self.tracer.span(f"bench.{kind}", "bench", job=f"{self.rep}/{kind}/{key}"):
                return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            self.failures.append(f"{kind} {key}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.latency_ms[kind].append((self.clock() - start) * 1e3)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)


# ---------------------------------------------------------------------------
# Set-up: import the package and build the workload's model objects


def setup(workload: str, workdir: Path, sampler: reference.Sampler | None):
    """Import the package and build the workload's model objects, with
    `sampler` running if given.  On catalogue-sweep the timed `cli.main
    sweep` builds its catalogue again through `build_family`, so catalogue
    construction counts in both `setup_s` and `wall_s` there; the set-up's
    family serves the traced tables probe.  Returns the objects, the CPU
    seconds and the wall seconds of the set-up less the sampler's, and the
    time of its parts."""
    if sampler:
        sampler.start()
    start = time.perf_counter()
    cpu_start = time.process_time()
    import triplepole

    parts = {}
    if workload in ("catalogue-sweep", "oracle-certify"):
        t = time.perf_counter()
        state = triplepole.shipped_catalogue()
        parts["models.catalogue_build_s"] = time.perf_counter() - t
    elif workload == "hecke-numerics":
        t = time.perf_counter()
        state = {}
        for m in HECKE_MODULI:
            model = triplepole.HeckeGaussianModel(triplepole.GaussianModulus((m, 0)))
            model.characters  # the character list is built lazily; build it now
            state[m] = model
        parts["gauss.model_build_ms"] = (time.perf_counter() - t) * 1e3
    else:  # cli-mix: the models of every well-formed request
        from triplepole import config

        stream = json.loads((workdir / "stream.json").read_text())
        state = []
        for req in stream:
            if req["exit"] != 0:
                continue
            body = {"version": 1, **req["config"]}
            if "model" in body:
                state.append(config.build_model(body["model"]))
            else:
                state.append(config.build_family(body, req["command"]))
    cpu, wall = time.process_time() - cpu_start, time.perf_counter() - start
    if sampler:
        sampler.stop()
        cpu, wall = cpu - sampler.spent, wall - sampler.spent
    return state, cpu, wall, parts


# ---------------------------------------------------------------------------
# Workloads


def catalogue_sweep(client: Client, family, seed: int, workdir: Path, digest: dict) -> dict:
    from triplepole import cli

    out = workdir / f"sweep-report-{client.rep}.json"
    argv = ["sweep", "--config", str(workdir / "catalogue-sweep.json"), "--output", str(out)]
    start = client.clock()
    code = client.call("sweep", "catalogue", cli.main, argv)
    wall = client.clock() - start

    expected = digest["catalogue_sweep"]
    if code != 0:
        client.failures.append(f"sweep exited with code {code}")
        return {"wall_s": wall, "triples": 0, "job_ms": [wall * 1e3], "request_ms": [wall * 1e3],
                "counts": {}}
    result = json.loads(out.read_text())["result"]
    client.expect(result["complete"] and result["strategy"] == "exhaustive", "sweep is not complete")
    client.expect(result["triples_examined"] == expected["triples"],
                  f"{result['triples_examined']} triples, expected {expected['triples']}")
    client.expect(result["histogram"] == expected["histogram"],
                  f"histogram {result['histogram']}, expected {expected['histogram']}")
    client.expect(result["witnesses"] == expected["witnesses"], "witnesses differ")
    client.expect(result["violations"] == [], f"{len(result['violations'])} violations")
    client.expect(result["rigidity_breaches"] == [],
                  f"{len(result['rigidity_breaches'])} rigidity breaches")
    client.expect(len(result["models"]) == expected["models"], "wrong number of models")
    return {
        "wall_s": wall,
        "triples": result["triples_examined"],
        "job_ms": client.latency_ms["sweep"],
        "request_ms": client.latency_ms["sweep"],
        "counts": {"models": len(result["models"]), "triples": result["triples_examined"]},
    }


def sweep_tables_probe(tracer: Tracer, family) -> None:
    """sweep() on each one-model family with limit=0 builds the model's
    lookup tables and stops at the first pair."""
    # the package re-exports the function `sweep` under the module's name
    sweep_module = importlib.import_module("triplepole.sweep")
    budget = sweep_module.SweepBudget(limit=0)
    with tracer.span("bench.tables", "bench", job="probe/tables/catalogue"):
        for model in family.models:
            sweep_module.sweep(sweep_module.SweepFamily((model,)), budget)


def _stratified(items, key, share: int, rng: random.Random, whole: int = 1) -> list[int]:
    """Indices of ceil(1/share) of every stratum, chosen by the seed, in
    catalogue order; strata of up to `whole` members are taken whole.
    Members of a stratum cost about the same, so every seed gets about the
    same amount of work, and strata of one (most cyclic shapes) are always
    in."""
    strata = defaultdict(list)
    for index, item in enumerate(items):
        strata[key(item)].append(index)
    chosen = []
    for members in strata.values():
        take = len(members) if len(members) <= whole else math.ceil(len(members) / share)
        chosen.extend(rng.sample(members, take))
    return sorted(chosen)


def oracle_certify(client: Client, family, seed: int, workdir: Path, digest: dict) -> dict:
    from triplepole import group_oracle

    def noninvariant(model):
        return sum(model.apply_sigma(a) != a for a in model.elements())

    rng = random.Random(f"oracle-certify/{seed}")
    catalogue = family.models
    small = [i for i, m in enumerate(catalogue) if m.order <= ORACLE_MAX_ORDER]
    models = [small[i] for i in _stratified(
        [catalogue[i] for i in small], lambda m: (m.p, m.factors, noninvariant(m)), ORACLE_SHARE, rng,
        whole=ORACLE_WHOLE,
    )]
    groups = _stratified(catalogue, lambda m: (m.p, m.factors), PROJECTION_SHARE, rng)
    # in seeded order, not catalogue order, where like models sit together:
    # the calls near the median then fall at times spread over the whole
    # phase, not into the same second of it
    rng.shuffle(models)
    rng.shuffle(groups)

    agreement_triples = 0
    projection_pairs = 0
    start = client.clock()
    for i in models:
        model = catalogue[i]
        rep = client.call("agreement", i, group_oracle.oracle_agreement_sweep, model)
        if rep is not None:
            agreement_triples += rep["triples"]
            client.expect(rep["mismatches"] == [], f"oracle mismatches on catalogue model {i}")
            client.expect(rep["triples"] == noninvariant(model) ** 2 * model.order,
                          f"agreement sweep skipped triples of catalogue model {i}")
    for i in groups:
        G = client.call("oracle_group", i, group_oracle.oracle_group, catalogue[i])
        if G is None:
            continue
        rep = client.call("projection", i, group_oracle.projection_formula_sweep, G)
        if rep is not None:
            projection_pairs += rep["checked"]
            client.expect(rep["failures"] == [], f"projection failures on catalogue group {i}")
            client.expect(rep["checked"] == G.base_order**2, f"projection sweep skipped pairs of group {i}")
    wall = client.clock() - start

    ps = sorted({catalogue[i].p for i in models})
    client.expect(ps == [2, 3, 5], f"subset lost a prime: {ps}")
    client.expect(any(catalogue[i].p == 5 and catalogue[i].order == 25 for i in models),
                  "subset lost the order-25 p = 5 models")
    lat = client.latency_ms
    return {
        "wall_s": wall,
        "triples": agreement_triples,
        # a request of the client is one model's certification, as a job:
        # the median of all calls fell in a sparse stretch of projection
        # sweeps of different groups and moved by a tenth from seed to seed
        "job_ms": lat["agreement"],
        "request_ms": lat["agreement"],
        "counts": {
            "agreement_models": len(models),
            "agreement_triples": agreement_triples,
            "projection_groups": len(groups),
            "projection_pairs": projection_pairs,
        },
    }


def hecke_numerics(client: Client, models: dict, seed: int, workdir: Path, digest: dict) -> dict:
    from triplepole import gauss_sums

    rng = random.Random(f"hecke-numerics/{seed}")
    plan = {}
    for m, model in models.items():
        noninv = digest["hecke"][str(m)]["noninvariant"]
        n = len(model.characters)
        estimates = [(rng.choice(noninv), rng.choice(noninv), rng.randrange(n))
                     for _ in range(HECKE_ESTIMATES)]
        evals = [rng.randrange(n) for _ in range(HECKE_EVALS)]
        plan[m] = (evals, estimates)

    verified = cells = 0
    spent = dict.fromkeys(models, 0.0)  # ms of all calls per modulus
    estimating = dict.fromkeys(models, 0.0)  # ms of estimates per modulus
    start = client.clock()
    # the first sum for a (modulus, X) walks the lattice for the band counts,
    # in HECKE_WORKERS threads
    for m, model in models.items():
        with client.unsampled():
            client.call("count", m, gauss_sums.character_sum, model.characters[0], HECKE_X,
                        workers=HECKE_WORKERS)
        spent[m] += client.latency_ms["count"][-1]
    # then the warm calls, the moduli taking turns, so that the estimates of
    # each modulus spread over the whole phase and their sum takes in the
    # host's slow and fast periods alike
    every = HECKE_ESTIMATES // HECKE_EVALS
    for step in range(HECKE_ESTIMATES):
        for m, model in models.items():
            evals, estimates = plan[m]
            if step % every == 0:
                i = evals[step // every]
                client.call("eval", f"{m}/{i}", gauss_sums.character_sum, model.characters[i],
                            HECKE_X, workers=HECKE_WORKERS)
                spent[m] += client.latency_ms["eval"][-1]
            i1, i2, ic = estimates[step]
            est = client.call(
                "estimate", f"{m}/{i1},{i2},{ic}", gauss_sums.numeric_triple_estimate,
                model.character_label(i1), model.character_label(i2), model.character_label(ic),
                X=HECKE_X, workers=HECKE_WORKERS,
            )
            spent[m] += client.latency_ms["estimate"][-1]
            estimating[m] += client.latency_ms["estimate"][-1]
            if est is not None:
                cells += len(est.cells)
                verified += est.agree
                client.expect(est.agree, f"modulus {m} triple {(i1, i2, ic)}: numeric "
                                         f"{est.ell_hat} vs symbolic {est.ell_symbolic}")
    ideals = client.call("ideal_count", HECKE_X, gauss_sums.ideal_count, HECKE_X)
    wall = client.clock() - start
    client.expect(ideals == digest["ideal_count_1e7"],
                  f"ideal_count(10**7) = {ideals}, recorded {digest['ideal_count_1e7']}")
    return {
        "wall_s": wall,
        "triples": verified,
        "job_ms": list(estimating.values()),
        "request_ms": list(spent.values()) + client.latency_ms["ideal_count"],
        "counts": {
            "estimates": sum(len(p[1]) for p in plan.values()),
            "cells_probed": cells,
            "ideal_count": ideals,
        },
    }


WORKLOADS = {
    "catalogue-sweep": catalogue_sweep,
    "oracle-certify": oracle_certify,
    "hecke-numerics": hecke_numerics,
}


def versions() -> dict:
    import triplepole

    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "triplepole": triplepole.__version__,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "cli-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("rep", "setup"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rep", default="r0", help="repetition id, the prefix of job ids")
    parser.add_argument("--parent", default=None, help="id of the span that started this process")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    # The set-up samples only the python loop: the numpy loop would import
    # numpy ahead of the package.
    setup_sampler = None if args.trace else reference.Sampler(["python"])
    state, setup_s, setup_wall_s, parts = setup(args.workload, args.workdir, setup_sampler)
    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "setup_parts": parts,
              "setup_reference": setup_sampler.times if setup_sampler else {},
              "versions": versions()}
    if args.mode == "rep":
        run = WORKLOADS[args.workload]
        tracer = sampler = None
        if args.trace:
            tracer = Tracer(parent=args.parent, job=args.rep)
            tracer.install()
        else:
            sampler = reference.Sampler(reference.LOOPS)
        client = Client(args.rep, tracer, sampler)
        digest = json.loads((HERE / "digest.json").read_text())
        if sampler:
            sampler.start()
        try:
            result.update(run(client, state, args.seed, args.workdir, digest))
        finally:
            if sampler:
                sampler.stop()
        if sampler:
            # run.py takes the repetition's times to the reference speed
            result["reference"] = sampler.times
        if tracer is not None and args.workload == "catalogue-sweep":
            sweep_tables_probe(tracer, state)
        result.update(
            attempted=client.attempted,
            failures=client.failures,
            mismatches=client.mismatches,
            spans=tracer.spans if tracer is not None else [],
            trace_cost=[tracer.cost()] if tracer is not None else [],
        )
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
