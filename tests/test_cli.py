import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from triplepole import InvariantViolationError, __version__
from triplepole.cli import _exit_code, main
from triplepole.config import REPORT_VERSION

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def gaussian_config(tmp_path, theta1=1, theta2=1, chi=10, X=50000, tau=0.05, modulus=(7, 0)):
    return write_config(
        tmp_path,
        {
            "version": 1,
            "model": {"kind": "gaussian", "modulus": list(modulus)},
            "labels": {"theta1": theta1, "theta2": theta2, "chi": chi},
            "estimate": {"X": X, "tau": tau},
        },
    )


# ---------------------------------------------------------------------------
# Envelope


def test_envelope_fields(capsys):
    code, report = run_json(
        capsys, "pole-order", "--config", str(CONFIGS / "abelian_z7.json")
    )
    assert code == 0
    assert report["report_version"] == REPORT_VERSION
    assert report["tool"] == {"name": "triplepole", "version": __version__}
    assert report["command"] == "pole-order"
    assert report["seed"] is None and report["workers"] is None
    assert report["elapsed_seconds"] >= 0
    assert "result" in report and "error" not in report


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run_cli(
        capsys,
        "pole-order",
        "--config",
        str(CONFIGS / "abelian_z7.json"),
        "--output",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["result"]["ell"] == 3


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_file_matches_stdout(tmp_path, capsys, fmt, monkeypatch):
    monkeypatch.setattr("time.monotonic", lambda: 0.0)  # elapsed_seconds 0
    argv = ["sweep", "--config", str(CONFIGS / "sweep_small.json"), "--format", fmt]
    code, out = run_cli(capsys, *argv)
    out_path = tmp_path / "report"
    assert run_cli(capsys, *argv, "--output", str(out_path)) == (code, "")
    assert out_path.read_text() == out


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_output_reports_on_stdout(tmp_path, capsys, target):
    path = tmp_path / "no-such-dir" / "x.json" if target == "missing" else tmp_path
    code, out = run_cli(
        capsys, "pole-order", "--config", str(CONFIGS / "abelian_z7.json"), "--output", str(path)
    )
    assert code == 2
    report = json.loads(out)
    assert report["command"] == "pole-order" and "result" not in report
    expected = "FileNotFoundError" if target == "missing" else "IsADirectoryError"
    assert report["error"]["type"] == expected
    assert str(path) in report["error"]["message"]
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# pole-order / factorize


@pytest.mark.parametrize(
    "model, labels, expected",
    [
        (
            {"kind": "gaussian", "modulus": [7, 0]},
            {"theta1": [1, 2], "theta2": 1, "chi": 10},
            'expected a character index or {"index": i}',
        ),
        (
            {"kind": "abelian", "factors": [7], "sigma": [[2]], "p": 3},
            {"theta1": {"shift": 1}, "theta2": [3], "chi": [0]},
            'expected a coordinate array or {"coords": [...]}',
        ),
        (
            {"kind": "abelian", "factors": [7], "sigma": [[2]], "p": 3},
            {"theta1": 5, "theta2": [3], "chi": [0]},
            'expected a coordinate array or {"coords": [...]}',
        ),
    ],
)
def test_label_of_another_model_kind_exits_2(tmp_path, capsys, model, labels, expected):
    # The schema accepts every kind's label shape in every role.
    config = write_config(tmp_path, {"version": 1, "model": model, "labels": labels})
    code, report = run_json(capsys, "pole-order", "--config", config)
    assert code == 2
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["message"] == (
        f"label 'theta1' does not fit a {model['kind']} model: {expected}"
    )


def test_pole_order_sharp_triple(capsys):
    code, report = run_json(
        capsys, "pole-order", "--config", str(CONFIGS / "abelian_z7.json")
    )
    assert code == 0
    result = report["result"]
    assert result["ell"] == 3
    assert result["matrix"]["true_cells"] == [[0, 2], [1, 0], [2, 1]]
    assert result["model"]["kind"] == "abelian"


def test_pole_order_rank2_double(capsys):
    code, report = run_json(
        capsys, "pole-order", "--config", str(CONFIGS / "abelian_z3sq.json")
    )
    assert code == 0
    assert report["result"]["ell"] == 2
    assert report["result"]["matrix"]["true_cells"] == [[0, 0], [1, 1]]


def test_pole_order_degree_mismatch(capsys):
    code, report = run_json(
        capsys, "pole-order", "--config", str(CONFIGS / "generic_mismatch.json")
    )
    assert code == 0
    assert report["result"]["ell"] == 0
    assert report["result"]["matrix"]["true_cells"] == []


def test_unvalidated_relation_on_mismatched_degrees_has_no_pole(tmp_path, capsys):
    # a relation between atoms of degrees 1 and 2 cannot contract: both
    # subcommands must report ell = 0, and validation still rejects it
    config = json.loads((CONFIGS / "generic_mismatch.json").read_text())
    config["model"].update(relations=[[0, 0]], validate=False)
    path = write_config(tmp_path, config)
    code, report = run_json(capsys, "pole-order", "--config", path)
    assert (code, report["result"]["ell"]) == (0, 0)
    code, report = run_json(capsys, "factorize", "--config", path)
    assert (code, report["result"]["ell"]) == (0, 0)
    assert [f["pole_order"] for f in report["result"]["factors"]] == [0] * 9
    config["model"]["validate"] = True
    path = write_config(tmp_path, config)
    for command in ("pole-order", "factorize"):
        code, report = run_json(capsys, command, "--config", path)
        assert code == 3
        assert report["error"]["type"] == "RelationValidationError"


def test_pole_order_mixed_base_change(capsys):
    code, report = run_json(
        capsys, "pole-order", "--config", str(CONFIGS / "basechange_z7.json")
    )
    assert code == 0
    result = report["result"]
    assert result["ell"] == 1
    # One side stays cuspidal, so there is no matching matrix to report.
    assert result["matrix"] is None


def test_pole_order_text_format(capsys):
    code, out = run_cli(
        capsys,
        "pole-order",
        "--config",
        str(CONFIGS / "abelian_z7.json"),
        "--format",
        "text",
    )
    assert code == 0
    assert "pole order: 3" in out
    assert ". . #" in out and "# . ." in out and ". # ." in out


def test_factorize_mixed_base_change(capsys):
    code, report = run_json(
        capsys, "factorize", "--config", str(CONFIGS / "basechange_z7.json")
    )
    assert code == 0
    result = report["result"]
    assert result["ell"] == 1
    assert [f["pole_order"] for f in result["factors"]] == [1, 0, 0]
    assert result["factors"][0]["left"]["coords"] == [0]


def test_pole_order_gaussian_labels(capsys):
    code, report = run_json(
        capsys, "pole-order", "--config", str(CONFIGS / "gaussian_mod7.json")
    )
    assert code == 0
    result = report["result"]
    assert result["ell"] == 2
    assert result["theta1"] == {"degree": 1, "exponents": [4]}
    assert result["theta2"] == {"degree": 1, "exponents": [4]}
    assert result["chi"] == {"degree": 1, "exponents": [40]}
    assert result["matrix"]["true_cells"] == [[0, 0], [1, 1]]
    assert result["model"] == {
        "kind": "gaussian", "modulus": [7, 0], "norm": 49, "p": 2, "characters": 12
    }


def test_factorize_gaussian_labels(capsys):
    code, report = run_json(
        capsys, "factorize", "--config", str(CONFIGS / "gaussian_mod7.json")
    )
    assert code == 0
    factors = report["result"]["factors"]
    assert [(f["j"], f["k"], f["pole_order"]) for f in factors] == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)
    ]
    assert [f["left"]["exponents"] for f in factors] == [[4], [28], [4], [28]]
    assert [f["right"] for f in factors] == [
        {"degree": 1, "exponents": e} for e in ([44], [44], [20], [20])
    ]


def test_factorize_both_induced(capsys):
    code, report = run_json(
        capsys, "factorize", "--config", str(CONFIGS / "abelian_z7.json")
    )
    assert code == 0
    result = report["result"]
    assert result["ell"] == 3
    assert len(result["factors"]) == 9
    on = sorted(
        (f["j"], f["k"]) for f in result["factors"] if f["pole_order"] == 1
    )
    assert on == [(0, 2), (1, 0), (2, 1)]


# ---------------------------------------------------------------------------
# sweep / witness


def test_sweep_small_catalogue(capsys):
    code, report = run_json(
        capsys, "sweep", "--config", str(CONFIGS / "sweep_small.json")
    )
    assert code == 0
    result = report["result"]
    assert result["complete"] is True
    assert result["violations"] == [] and result["rigidity_breaches"] == []
    assert result["max_ell"] == 3
    assert sum(result["histogram"].values()) == result["triples_examined"]


def test_sweep_seed_flag_overrides_config(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "version": 1,
            "catalogue": {"p_values": [3], "max_group_order": 9},
            "budget": {"strategy": "sample", "samples": 200, "seed": 3},
        },
    )
    code, report = run_json(capsys, "sweep", "--config", config, "--seed", "42")
    assert code == 0
    assert report["seed"] == 42
    assert report["result"]["rng"] == {"name": "numpy-pcg64", "seed": 42}
    assert report["result"]["triples_examined"] == 200


@pytest.mark.parametrize("strategy", ["sample", "exhaustive"])
def test_sweep_negative_seed_flag_exits_3(tmp_path, capsys, strategy):
    config = write_config(
        tmp_path,
        {
            "version": 1,
            "catalogue": {"p_values": [3], "max_group_order": 9},
            "budget": {"strategy": strategy, "samples": 200},
        },
    )
    code, report = run_json(capsys, "sweep", "--config", config, "--seed", "-1")
    assert code == 3
    assert report["error"]["type"] == "PreconditionError"
    assert "seed must be >= 0" in report["error"]["message"]


def test_sweep_violations_exit_code(monkeypatch, tmp_path, capsys):
    # The calculus never produces a violation, so force one through the
    # report to pin the exit-code contract.  The handler imports `sweep`
    # from its module when it runs, so the module's name is patched.
    from triplepole.sweep import sweep as real_sweep

    def tainted(family, budget):
        report = real_sweep(family, budget)
        object.__setattr__(
            report, "violations", [{"model": 0, "ell": 99}]
        )
        return report

    monkeypatch.setattr("triplepole.sweep.sweep", tainted)
    config = write_config(
        tmp_path,
        {"version": 1, "catalogue": {"p_values": [2], "max_group_order": 5}},
    )
    code, report = run_json(capsys, "sweep", "--config", config)
    assert code == 4
    assert report["result"]["violations"] == [{"model": 0, "ell": 99}]


def test_witness_sharp(capsys):
    code, report = run_json(
        capsys, "witness", "--config", str(CONFIGS / "witness_z7.json")
    )
    assert code == 0
    result = report["result"]
    assert result["found"] is True
    assert result["witness"] == {
        "model": 0,
        "theta1": [1],
        "theta2": [3],
        "chi": [0],
        "ell": 3,
    }


def test_witness_exhausted_is_success(capsys):
    code, report = run_json(
        capsys, "witness", "--config", str(CONFIGS / "witness_p2_restricted.json")
    )
    assert code == 0
    result = report["result"]
    assert result["found"] is False and result["witness"] is None
    assert result["require_noninvariant_chi"] is True


def test_witness_text_format(capsys):
    code, out = run_cli(
        capsys,
        "witness",
        "--config",
        str(CONFIGS / "witness_p2_restricted.json"),
        "--format",
        "text",
    )
    assert code == 0
    assert "no witness found" in out


# ---------------------------------------------------------------------------
# oracle-compare


def test_oracle_compare_agrees(capsys):
    code, report = run_json(
        capsys, "oracle-compare", "--config", str(CONFIGS / "abelian_z7.json")
    )
    assert code == 0
    result = report["result"]
    assert result["ell"] == 3 and result["multiplicity"] == 3
    assert result["equal"] is True
    assert result["precondition_violated"] is False


def test_oracle_compare_invariant_inducer_marked(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "version": 1,
            "model": {"kind": "abelian", "factors": [7], "sigma": [[2]], "p": 3},
            "labels": {"theta1": [0], "theta2": [3], "chi": [0]},
        },
    )
    code, report = run_json(capsys, "oracle-compare", "--config", config)
    assert code == 0
    result = report["result"]
    assert result["precondition_violated"] is True
    assert result["ell"] is None and result["equal"] is None


def test_oracle_compare_disagreement_exit_code(monkeypatch, capsys):
    import triplepole.group_oracle as group_oracle

    real_compare = group_oracle.oracle_compare

    def tainted(model, theta1, theta2, chi):
        comparison = real_compare(model, theta1, theta2, chi)
        object.__setattr__(comparison, "equal", False)
        return comparison

    monkeypatch.setattr(group_oracle, "oracle_compare", tainted)
    code, report = run_json(
        capsys, "oracle-compare", "--config", str(CONFIGS / "abelian_z7.json")
    )
    assert code == 4
    assert report["result"]["equal"] is False


def test_oracle_compare_needs_abelian_model(capsys):
    code, report = run_json(
        capsys, "oracle-compare", "--config", str(CONFIGS / "generic_mismatch.json")
    )
    assert code == 2
    assert "abelian" in report["error"]["message"]


def test_oracle_compare_gaussian(capsys):
    code, report = run_json(
        capsys, "oracle-compare", "--config", str(CONFIGS / "gaussian_mod7.json")
    )
    assert code == 0
    result = report["result"]
    assert result["ell"] == result["multiplicity"] == 2
    assert result["equal"] is True
    assert result["group_order"] == 96


def abelian_config(tmp_path, factors, sigma, p):
    return write_config(
        tmp_path,
        {
            "version": 1,
            "model": {"kind": "abelian", "factors": factors, "sigma": sigma, "p": p},
            "labels": {"theta1": [1], "theta2": [1], "chi": [0]},
        },
    )


@pytest.mark.parametrize(
    "factors, sigma",
    [([30030], [[30029]]), ([100042], [[100041]]), ([300007], [[300006]])],
    ids=["phi-30030", "phi-100042", "base-600014"],
)
def test_oracle_compare_over_the_ceiling_exits_3(tmp_path, capsys, monkeypatch, factors, sigma):
    # the estimate alone rejects the group: no table of it is built
    import triplepole.group_oracle as group_oracle

    def no_tables(*args):
        raise AssertionError("a rejected oracle group built its tables")

    monkeypatch.setattr(group_oracle, "sigma_powers", no_tables)
    config = abelian_config(tmp_path, factors, sigma, 2)
    start = time.monotonic()
    code, report = run_json(capsys, "oracle-compare", "--config", config)
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert report["error"]["type"] == "PreconditionError"
    assert "over the ceiling" in report["error"]["message"]


@pytest.mark.parametrize("factors, sigma", [([10009], [[1044]]), ([100003], [[7120]])])
def test_oracle_compare_on_a_large_prime_base(tmp_path, capsys, factors, sigma):
    # one remainder row for a prime exponent; the multiplicity counts the
    # matching cells of theta1 = theta2 = 1 against chi = 0: none
    code, report = run_json(capsys, "oracle-compare", "--config", abelian_config(tmp_path, factors, sigma, 3))
    assert code == 0
    assert report["result"]["multiplicity"] == report["result"]["ell"] == 0


# ---------------------------------------------------------------------------
# hecke-estimate


def test_hecke_estimate_demo_triple(tmp_path, capsys):
    config = gaussian_config(tmp_path)
    code, report = run_json(
        capsys, "hecke-estimate", "--config", config, "--workers", "2"
    )
    assert code == 0
    result = report["result"]
    assert result["ell_hat"] == 2 and result["ell_symbolic"] == 2
    assert result["agree"] is True
    verdicts = {(c["j"], c["k"]): c["verdict"] for c in result["cells"]}
    assert verdicts == {
        (0, 0): "pole",
        (0, 1): "no-pole",
        (1, 0): "no-pole",
        (1, 1): "pole",
    }
    assert report["workers"] == 2


def test_hecke_estimate_indeterminate_exit(tmp_path, capsys):
    config = gaussian_config(tmp_path, X=2000, tau=0.9)
    code, report = run_json(capsys, "hecke-estimate", "--config", config)
    assert code == 5
    error = report["error"]
    assert error["type"] == "IndeterminatePoleError"
    assert error["pair"] == [0, 0]
    assert 0.01 < error["ratio"] <= 0.9


def test_hecke_estimate_disagreement_exit_code(monkeypatch, tmp_path, capsys):
    import triplepole.gauss_sums as gauss_sums

    real_estimate = gauss_sums.numeric_triple_estimate

    def tainted(*args, **kwargs):
        estimate = real_estimate(*args, **kwargs)
        object.__setattr__(estimate, "agree", False)
        return estimate

    monkeypatch.setattr(gauss_sums, "numeric_triple_estimate", tainted)
    config = gaussian_config(tmp_path, X=5000)
    code, report = run_json(capsys, "hecke-estimate", "--config", config)
    assert code == 4
    assert report["result"]["agree"] is False


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_hecke_estimate_non_rational_modulus_exits_3(tmp_path, capsys, fmt):
    config = gaussian_config(tmp_path, modulus=(2, 1))
    code, out = run_cli(capsys, "hecke-estimate", "--config", config, "--format", fmt)
    assert code == 3
    if fmt == "json":
        assert json.loads(out)["error"]["type"] == "UnsupportedModulusError"
    else:
        assert "error UnsupportedModulusError: " in out


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("modulus", [(0, 7), (-7, 0)], ids=str)
def test_hecke_estimate_associate_moduli_report_alike(tmp_path, capsys, monkeypatch, modulus, fmt):
    monkeypatch.setattr("time.monotonic", lambda: 0.0)  # elapsed_seconds 0
    reports = []
    for gen in [(7, 0), modulus]:
        config = gaussian_config(tmp_path, modulus=gen)
        reports.append(run_cli(capsys, "hecke-estimate", "--config", config, "--format", fmt))
    assert reports[0][0] == 0
    assert reports[1] == reports[0]


def test_hecke_estimate_needs_gaussian_model(capsys):
    code, report = run_json(
        capsys, "hecke-estimate", "--config", str(CONFIGS / "abelian_z7.json")
    )
    assert code == 2
    assert "gaussian" in report["error"]["message"]


# ---------------------------------------------------------------------------
# Error mapping


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, report = run_json(capsys, "pole-order", "--config", str(path))
    assert code == 2
    assert report["error"]["type"] == "ConfigError"


def test_missing_section_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {"version": 1})
    code, report = run_json(capsys, "pole-order", "--config", config)
    assert code == 2


def test_schema_violation_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {"version": 1, "surprise": True})
    code, report = run_json(capsys, "sweep", "--config", config)
    assert code == 2


def test_invariant_inducer_exits_3(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "version": 1,
            "model": {"kind": "abelian", "factors": [7], "sigma": [[2]], "p": 3},
            "labels": {"theta1": [0], "theta2": [3], "chi": [0]},
        },
    )
    code, report = run_json(capsys, "pole-order", "--config", config)
    assert code == 3
    assert report["error"]["type"] == "PreconditionError"


def test_unit_ideal_modulus_exits_3(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "version": 1,
            "model": {"kind": "gaussian", "modulus": [1, 0]},
            "labels": {"theta1": 0, "theta2": 0, "chi": 0},
        },
    )
    code, report = run_json(capsys, "pole-order", "--config", config)
    assert code == 3
    assert report["error"]["type"] == "UnsupportedModulusError"


def test_invariant_failures_map_to_4():
    assert _exit_code(InvariantViolationError("boom")) == 4


def test_unexpected_exception_maps_to_6():
    assert _exit_code(ValueError("not ours")) == 6
    assert _exit_code(MemoryError()) == 6


def test_internal_error_gets_envelope(monkeypatch, capsys):
    import triplepole.cli as cli_module

    def broken(config, args):
        raise RuntimeError("kernel bug")

    monkeypatch.setitem(cli_module._HANDLERS, "sweep", broken)
    code = main(["sweep", "--config", str(CONFIGS / "sweep_small.json")])
    captured = capsys.readouterr()
    assert code == 6
    assert "RuntimeError: kernel bug" in captured.err
    envelope = json.loads(captured.out)
    assert envelope["report_version"] == REPORT_VERSION
    assert envelope["command"] == "sweep"
    assert "result" not in envelope
    assert envelope["error"] == {"type": "RuntimeError", "message": "kernel bug"}


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Entry points


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "triplepole",
            "pole-order",
            "--config",
            str(CONFIGS / "abelian_z7.json"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["ell"] == 3


# What pip writes for a `[project.scripts]` entry "module:attr".
CONSOLE_WRAPPER = """\
import sys
from {module} import {attr}
sys.argv[0] = "triplepole"
sys.exit({attr}())
"""


def declared_console_script(name):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, attr = scripts[name].partition(":")
    return module, attr


def test_console_script_entry_point():
    # Run the declared target the way an installed wrapper does, so the
    # declaration is checked without installing; an installed script on
    # PATH is checked too.
    module, attr = declared_console_script("triplepole")
    wrapper = CONSOLE_WRAPPER.format(module=module, attr=attr)
    commands = [[sys.executable, "-c", wrapper, "--version"]]
    installed = shutil.which("triplepole")
    if installed:
        commands.append([installed, "--version"])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == __version__
