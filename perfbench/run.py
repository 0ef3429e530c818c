"""Benchmark of the triplepole package: run one workload with one seed.

    python3 perfbench/run.py --workload catalogue-sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it puts ``src`` on PYTHONPATH for the
processes it starts and writes only under ``.perfbench/`` there.  With
``--trace 0`` it prints every end-to-end metric, with ``--trace 1`` every
per-layer metric and the tracing overhead.  The last line of its output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  It
exits 1 when an output check fails.  perfbench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

import clistream
import reference
from tracing import UNREACHED, Tracer, seconds, self_times

HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalogue-sweep", "oracle-certify", "hecke-numerics", "cli-mix")
SETUP_SAMPLES = 12
SETUP_GROUPS = 4  # setup_s is the median of 4 means of 3 set-ups each
# Seconds of --seconds that one repetition stands for: a run makes
# round(--seconds / this) repetitions, so the work of a run, its counts and its
# latency percentiles depend on --seconds only, never on the machine's speed.
# On a 2-core Xeon a repetition takes 4.5-8 s (catalogue-sweep), 6-8 s
# (oracle-certify), 3-4.5 s (hecke-numerics) and 15-20 s (cli-mix); the sweep
# gets three repetitions in 15 s because it varies most from one to the next.
REPETITION_S = {
    "catalogue-sweep": 5.0,
    "oracle-certify": 7.0,
    "hecke-numerics": 5.0,
    "cli-mix": 15.0,
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "triples_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, grouped by the workload whose traced repetition measures
# them.  A traced run of any workload reports all of them: those its own
# workload does not measure come from one traced repetition of the owner.
PER_LAYER = {
    "catalogue-sweep": {
        "models.catalogue_build_s": "s",
        "sweep.tables_s": "s",
        "sweep.exhaustive_s": "s",
        "sweep.triples": "count",
    },
    "oracle-certify": {
        "group_oracle.oracle_group_ms": "ms",
        "group_oracle.agreement_s": "s",
        "group_oracle.agreement_triples": "count",
        "group_oracle.projection_s": "s",
        "group_oracle.projection_pairs": "count",
    },
    "hecke-numerics": {
        "gauss.model_build_ms": "ms",
        "gauss_sums.count_s": "s",
        "gauss_sums.eval_ms": "ms",
        "gauss_sums.estimate_ms": "ms",
        "gauss_sums.ideal_count": "count",
        "gauss_sums.cells_probed": "count",
    },
    "cli-mix": {
        "config.load_config_ms": "ms",
        "config.build_family_ms": "ms",
        "sweep.sampled_us_per_triple": "us",
        "sweep.find_witness_ms": "ms",
        "calculus.matching_matrix_us": "us",
        "calculus.triple_pole_order_us": "us",
        "calculus.factorize_us": "us",
        "group_oracle.trivial_multiplicity_ms": "ms",
        "cli.import_s": "s",
        "cli.self_ms": "ms",
    },
}
OVERHEAD = {"trace.overhead_s": "s"}

# The reference loops (reference.py) whose speed the times of each workload
# and of the set-ups go with, as exponents.  Set-ups and cli-mix requests
# sample only the python loop, from the start of their process: the numpy
# loop would import numpy ahead of the package.  Sampled inside the request
# process, the python loop took the variation of a cli-mix request's
# 10-sample medians over 110 s from 7 % to 2.8 %; timed in the parent
# between requests, it raised it to 16 %.
REFERENCE = {
    "catalogue-sweep": {"python": 1.0},
    # half its time is small calls that go with the python loop, half the
    # agreement sweeps of order-25 models that go with the numpy loop
    "oracle-certify": {"python": 0.5, "numpy": 0.5},
    "hecke-numerics": {"python": 1.0},
    "cli-mix": {"python": 1.0},
    "setup": {"python": 1.0},
}


# ---------------------------------------------------------------------------
# Statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples above it, and that
    percentile; with 10 samples or fewer, the largest sample (100)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# Child processes


class Runner:
    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        )
        self._n = 0

    def spawn(self, argv: list[str], env: dict | None = None) -> tuple[int, float, float, str]:
        """Run a child to completion: exit code, seconds, its peak RSS in MB,
        and its standard output.  Output goes through files, so a child never
        blocks on a full pipe."""
        self._n += 1
        out_path = self.workdir / f"child-{self._n}.out"
        err_path = self.workdir / f"child-{self._n}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=env or self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code not in (0, 2, 3):
            sys.stderr.write(err_path.read_text(errors="replace")[-4000:])
        return code, elapsed, usage.ru_maxrss / 1024, out_path.read_text()

    def worker(self, workload: str, seed: int, mode: str, trace: bool, rep: str,
               parent: str | None = None) -> dict:
        out = self.workdir / f"{workload}-{rep}.json"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--mode", mode, "--trace", str(int(trace)),
                "--rep", rep, "--workdir", str(self.workdir), "--out", str(out)]
        if parent:
            argv += ["--parent", parent]
        code, _, rss, _ = self.spawn(argv)
        if code != 0:
            raise RuntimeError(f"{workload} {mode} worker exited with code {code}")
        result = json.loads(out.read_text())
        result["rss_mb"] = rss
        return result


# ---------------------------------------------------------------------------
# Workload inputs


def prepare(workload: str, seed: int, root: Path, workdir: Path, digest: dict) -> list[dict] | None:
    """Write the workload's config files; for cli-mix, return the stream."""
    if workload == "catalogue-sweep":
        (workdir / "catalogue-sweep.json").write_text(json.dumps(
            {"version": 1, "catalogue": {}, "budget": {"strategy": "exhaustive"}}
        ))
    if workload == "cli-mix":
        stream = clistream.make_stream(seed, digest, root, workdir)
        (workdir / "stream.json").write_text(json.dumps(stream))
        return stream
    return None


def cli_pass(runner: Runner, stream: list[dict], rep: str, tracer: Tracer | None,
             version: str) -> dict:
    """One pass of the cli-mix stream: each request a fresh process that runs
    `python -m triplepole` (cli_request.py).  A request's latency is the
    life of its process less the time the reference samples took in it, and
    the pass's wall time is the sum of the latencies."""
    latency: list[float] = []
    samples: dict[str, list[float]] = {"python": []}
    failures, mismatches, spans, costs = [], [], [], []
    counts = {"requests": len(stream), "triples": 0, "witnesses": 0}
    peak = 0.0
    for index, req in enumerate(stream):
        job = f"{rep}/{req['kind']}/{index}"
        measured_file = runner.workdir / f"request-{rep}-{index}.json"
        env = dict(runner.env, PERFBENCH_OUT=str(measured_file))
        argv = [sys.executable, str(HERE / "cli_request.py"), *req["argv"]]
        if tracer is None:
            code, elapsed, rss, out = runner.spawn(argv, env)
            measured_out = json.loads(measured_file.read_text())
            samples["python"] += measured_out["reference"]["python"]
            elapsed -= measured_out["spent_s"]
        else:
            with tracer.span("bench.request", "bench", job=job) as span:
                env.update(PERFBENCH_PARENT=span["id"], PERFBENCH_JOB=job)
                code, elapsed, rss, out = runner.spawn(argv, env)
            traced_out = json.loads(measured_file.read_text())
            spans.extend(traced_out["spans"])
            costs.append(traced_out["cost"])
        latency.append(elapsed * 1e3)
        peak = max(peak, rss)
        counts[f"exit_{code}"] = counts.get(f"exit_{code}", 0) + 1
        problems, work = clistream.check(req, code, out, version)
        if problems and code != req["exit"]:
            failures.append(f"request {index} ({req['kind']}): {problems[0]}")
        elif problems:
            mismatches.append(f"request {index} ({req['kind']}): {'; '.join(problems)}")
        for name, value in work.items():
            counts[name] += value
    return {
        "wall_s": sum(latency) / 1e3,
        "reference": samples,
        "triples": counts["triples"],
        "counts": counts,
        "job_ms": latency,
        "request_ms": latency,
        "attempted": len(stream),
        "failures": failures,
        "mismatches": mismatches,
        "spans": spans,
        "trace_cost": costs,
        "rss_mb": peak,
    }


def repetition(runner: Runner, workload: str, seed: int, trace: bool, rep: str,
               stream, version: str, tracer: Tracer) -> dict:
    """One repetition, in fresh processes; a traced one links the spans of
    those processes to a span of this one."""
    if workload == "cli-mix":
        return cli_pass(runner, stream, rep, tracer if trace else None, version)
    if not trace:
        return runner.worker(workload, seed, "rep", False, rep)
    with tracer.span("bench.repetition", "bench", job=rep) as span:
        result = runner.worker(workload, seed, "rep", True, rep, parent=span["id"])
    return result


# ---------------------------------------------------------------------------
# Metrics


def measured(r: dict) -> dict:
    """The end-to-end metrics of one repetition as measured."""
    jobs, requests, wall = r["job_ms"], r["request_ms"], r["wall_s"]
    return {
        "wall_s": wall,
        "triples_per_s": r["triples"] / wall,
        "job_p50_ms": median(jobs),
        "job_tail_ms": tail(jobs)[0],
        "request_p50_ms": median(requests),
        "request_tail_ms": tail(requests)[0],
        "requests_per_s": len(requests) / wall,
    }


def at_reference_speed(name: str, value: float, k: float) -> float:
    """A metric measured at a speed that `k` takes to the reference speed."""
    return value / k if END_TO_END[name] == "1/s" else value * k


def end_to_end(workload: str, setups: list[dict], reps: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics, every time and rate at the reference speed
    (reference.py): a repetition's by the loops sampled during it, `setup_s`
    by those sampled during the run's set-ups."""
    scales = [reference.scale(r["reference"], REFERENCE[workload]) for r in reps]
    setup_scale = reference.scale(
        {"python": [t for s in setups for t in s["setup_reference"]["python"]]}, REFERENCE["setup"]
    )
    as_measured = [measured(r) for r in reps]
    per_rep = {name: [at_reference_speed(name, m[name], k) for m, k in zip(as_measured, scales)]
               for name in as_measured[0]}
    # The host's speed can switch between two levels for seconds at a time,
    # and a median of single set-ups jumps from one level to the other when
    # the share of slow time crosses one half.  The median of means of set-ups
    # taken at different points of the run moves smoothly with that share.
    groups = [setups[i::SETUP_GROUPS] for i in range(SETUP_GROUPS)]
    setup_s = median([mean([s["setup_s"] for s in g]) for g in groups])
    metrics = {"setup_s": setup_s * setup_scale}
    metrics.update({name: median(values) for name, values in per_rep.items()})
    metrics["peak_rss_mb"] = median(r["rss_mb"] for r in reps)
    jobs, requests = reps[0]["job_ms"], reps[0]["request_ms"]
    detail = {
        "job_samples": len(jobs),
        "job_tail_percentile": tail(jobs)[1],
        "request_samples": len(requests),
        "request_tail_percentile": tail(requests)[1],
        "repetitions": len(reps),
        "scale_per_repetition": scales,
        "measured_per_repetition": as_measured,
        # what each loop alone would give, to check the choice of REFERENCE
        "scale_per_loop": {name: [reference.scale(r["reference"], {name: 1.0}) for r in reps]
                           for name in reps[0]["reference"]},
        "reference_samples_per_repetition": [
            {name: len(times) for name, times in r["reference"].items()} for r in reps
        ],
        "setup_samples": len(setups),
        "measured_setup_s": setup_s,
        "setup_scale": setup_scale,
        "setup_wall_s": median([s["setup_wall_s"] for s in setups]),
    }
    return metrics, detail


def _spans(spans, name, kind=None):
    return [s for s in spans if s["name"] == name
            and (kind is None or s["job"].split("/")[1:2] == [kind])]


def _med(spans, scale):
    return median([seconds(s) * scale for s in spans])


def per_layer(workload: str, r: dict, stream) -> dict:
    """The per-layer metrics one traced repetition of `workload` measures."""
    spans, counts = r["spans"], r["counts"]
    if workload == "catalogue-sweep":
        return {
            "models.catalogue_build_s": r["setup_parts"]["models.catalogue_build_s"],
            "sweep.tables_s": sum(map(seconds, _spans(spans, "sweep.sweep", "tables"))),
            "sweep.exhaustive_s": sum(map(seconds, _spans(spans, "sweep.sweep", "sweep"))),
            "sweep.triples": counts["triples"],
        }
    if workload == "oracle-certify":
        return {
            "group_oracle.oracle_group_ms": _med(_spans(spans, "group_oracle.oracle_group", "oracle_group"), 1e3),
            "group_oracle.agreement_s": sum(map(seconds, _spans(spans, "group_oracle.oracle_agreement_sweep"))),
            "group_oracle.agreement_triples": counts["agreement_triples"],
            "group_oracle.projection_s": sum(map(seconds, _spans(spans, "group_oracle.projection_formula_sweep"))),
            "group_oracle.projection_pairs": counts["projection_pairs"],
        }
    if workload == "hecke-numerics":
        return {
            "gauss.model_build_ms": r["setup_parts"]["gauss.model_build_ms"],
            "gauss_sums.count_s": sum(map(seconds, _spans(spans, "gauss_sums.character_sum", "count"))),
            "gauss_sums.eval_ms": _med(_spans(spans, "gauss_sums.character_sum", "eval"), 1e3),
            "gauss_sums.estimate_ms": _med(_spans(spans, "gauss_sums.numeric_triple_estimate"), 1e3),
            "gauss_sums.ideal_count": counts["ideal_count"],
            "gauss_sums.cells_probed": counts["cells_probed"],
        }
    sampled = sum(map(seconds, _spans(spans, "sweep.sweep", "sweep-sampled")))
    n_sampled = sum(req["samples"] for req in stream if req["kind"] == "sweep-sampled")
    mains = _spans(spans, "cli.main")
    return {
        "config.load_config_ms": _med(_spans(spans, "config.load_config"), 1e3),
        "config.build_family_ms": _med(_spans(spans, "config.build_family"), 1e3),
        "sweep.sampled_us_per_triple": sampled / n_sampled * 1e6,
        "sweep.find_witness_ms": _med(_spans(spans, "sweep.find_witness"), 1e3),
        "calculus.matching_matrix_us": _med(_spans(spans, "calculus.matching_matrix"), 1e6),
        "calculus.triple_pole_order_us": _med(_spans(spans, "calculus.triple_pole_order"), 1e6),
        "calculus.factorize_us": _med(_spans(spans, "calculus.factorize"), 1e6),
        "group_oracle.trivial_multiplicity_ms": _med(_spans(spans, "group_oracle.trivial_multiplicity"), 1e3),
        "cli.import_s": _med(_spans(spans, "cli.import"), 1),
        "cli.self_ms": median([
            (seconds(m) - sum(seconds(s) for s in spans if s["parent"] == m["id"])) * 1e3
            for m in mains
        ]),
    }


# ---------------------------------------------------------------------------
# Run


def machine(root: Path, seed: int, versions: dict) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None  # an exported checkout has no history to name
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "commit": commit,
        "code_sha256": source_hash(root),
        **versions,
    }


def source_hash(root: Path) -> str:
    """Names the code under test and the benchmark's own code, also in a
    checkout without history."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one triplepole benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = bool(args.trace)

    root = Path.cwd()
    if not (root / "src" / "triplepole" / "__init__.py").is_file():
        print("perfbench: run this from the root of a triplepole checkout "
              "(src/triplepole is missing)", file=sys.stderr)
        return 2
    results_dir = root / ".perfbench"
    workdir = results_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, trace, root, results_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_layers(runner: Runner, args, stream, digest: dict, tracer: Tracer,
                  reps: list[dict]) -> tuple[dict, dict, list[dict]]:
    """Per-layer metrics of a traced run, its trace summary, and the probe
    repetitions of the other workloads that measured the rest."""
    own = [per_layer(args.workload, r, stream) for r in reps]
    layer = {name: median([values[name] for values in own]) for name in own[0]}
    sources = {name: args.workload for name in layer}
    probes = []
    for owner in WORKLOADS:
        if owner != args.workload:
            owner_stream = prepare(owner, args.seed, runner.root, runner.workdir, digest)
            r = repetition(runner, owner, args.seed, True, f"probe-{owner}", owner_stream,
                           digest["version"], tracer)
            for name, value in per_layer(owner, r, owner_stream).items():
                layer[name], sources[name] = value, owner
            probes.append(r)
    # What the wrappers cost each repetition: in every process that ran the
    # package, the time to install them plus the spans it recorded times the
    # cost of one span timed in that process (Tracer.cost).
    costs = [c for r in reps for c in r["trace_cost"]]
    overhead = median([sum(c["overhead_s"] for c in r["trace_cost"]) for r in reps])
    layer["trace.overhead_s"] = overhead
    own_spans = [s for r in reps for s in r["spans"]]
    own_spans += [s for s in tracer.spans if not s["job"].startswith("probe-")]
    summary = {
        "overhead_s": overhead,
        "traced_wall_s": median([r["wall_s"] for r in reps]),
        "spans_per_repetition": len(own_spans) / len(reps),
        "span_cost_us": median([c["span_s"] for c in costs]) * 1e6,
        "install_s": median([c["install_s"] for c in costs]),
        "self_s": self_times(own_spans),
        "unreached_layers": UNREACHED,
        "metric_source": sources,
    }
    return layer, summary, probes


def run(args, trace: bool, root: Path, results_dir: Path, workdir: Path) -> int:
    digest = json.loads((HERE / "digest.json").read_text())
    runner = Runner(root, workdir)
    stream = prepare(args.workload, args.seed, root, workdir, digest)
    tracer = Tracer(job="run")

    # A first untimed set-up compiles the package's bytecode in a new checkout.
    versions = runner.worker(args.workload, args.seed, "setup", False, "warmup")["versions"]

    # Repetitions, with the timed set-ups of an untraced run spread before,
    # between and after them so that both sample the whole run.  A traced run
    # traces every repetition and times no set-up.
    count = max(1, round(args.seconds / REPETITION_S[args.workload]))
    samples = 0 if trace else SETUP_SAMPLES
    setups: list[dict] = []
    reps: list[dict] = []
    for slot in range(count + 1):
        for _ in range(samples * (slot + 1) // (count + 1) - len(setups)):
            setups.append(runner.worker(args.workload, args.seed, "setup", False,
                                        f"setup{len(setups)}"))
        if slot < count:
            reps.append(repetition(runner, args.workload, args.seed, trace, f"r{slot}", stream,
                                   digest["version"], tracer))

    counts = [r["counts"] for r in reps]
    report: dict = {
        "workload": args.workload,
        "context": machine(root, args.seed, versions),
        "seconds": args.seconds,
        "trace": args.trace,
        "counts": counts[0],
    }
    if trace:
        layer, report["trace"], probes = traced_layers(runner, args, stream, digest, tracer, reps)
        trace_file = results_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"spans": tracer.spans + [s for r in reps + probes for s in r["spans"]]}
        ))
        report["trace"]["spans_file"] = str(trace_file.relative_to(root))
        units = {**OVERHEAD, **{k: v for group in PER_LAYER.values() for k, v in group.items()}}
        out_metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
    else:
        probes = []
        metrics, report["detail"] = end_to_end(args.workload, setups, reps)
        out_metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END.items()}

    done = reps + probes
    failures = [f for r in done for f in r["failures"]]
    mismatches = [m for r in done for m in r["mismatches"]]
    if any(c != counts[0] for c in counts):
        mismatches.append(f"work counts differ between repetitions: {counts}")
    result_file = results_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if result_file.exists():
        # an earlier run of the same code, seed and length must have done the same work
        earlier = json.loads(result_file.read_text())
        if (earlier["context"].get("code_sha256"), earlier["seconds"]) == \
                (report["context"]["code_sha256"], args.seconds) and earlier["counts"] != counts[0]:
            mismatches.append(f"work counts {counts[0]} differ from an earlier run of the same "
                              f"code and seed: {earlier['counts']}")
    attempted = sum(r["attempted"] for r in done)
    correct = not failures and not mismatches
    report.update(failures=failures, mismatches=mismatches, metrics=out_metrics, correct=correct)
    result_file.write_text(json.dumps(report, indent=1))

    for problem in failures + mismatches:
        print(f"perfbench: {problem}", file=sys.stderr)
    ctx = report["context"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(reps)} "
          f"{'traced' if trace else 'untraced'} repetitions, {attempted} operations, "
          f"counts {counts[0]}")
    print(f"context: nproc={ctx['nproc']} cpu={ctx['cpu']!r} python={ctx['python']} "
          f"numpy={ctx['numpy']} jsonschema={ctx['jsonschema']} commit={ctx['commit']}")
    if trace:
        t = report["trace"]
        print(f"tracing overhead {t['overhead_s']:.4f} s per repetition: "
              f"{t['spans_per_repetition']:.0f} spans at {t['span_cost_us']:.2f} us and "
              f"{t['install_s'] * 1e3:.2f} ms to install the wrappers, on a traced wall of "
              f"{t['traced_wall_s']:.4f} s")
        print("self time by layer (s): " + ", ".join(f"{k}={v:.4f}" for k, v in t["self_s"].items()))
        for layer_name, why in UNREACHED.items():
            print(f"layer {layer_name} not measured: {why}")
    else:
        detail = report["detail"]
        print(f"latency tails: job p{detail['job_tail_percentile']:.1f} of {detail['job_samples']}, "
              f"request p{detail['request_tail_percentile']:.1f} of {detail['request_samples']} samples")
        print("times at the reference speed; as measured: wall per repetition "
              + ", ".join(f"{m['wall_s']:.4f} s (x {k:.3f})" for m, k in
                          zip(detail["measured_per_repetition"], detail["scale_per_repetition"]))
              + f", set-up {detail['measured_setup_s']:.4f} s (x {detail['setup_scale']:.3f})")
    for name, m in out_metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": out_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
