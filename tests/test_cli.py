"""End-to-end tests of the command line (via ``main(argv)``)."""

from __future__ import annotations

import json
import subprocess
import sys

from fractions import Fraction

import pytest

from bntune.bn import instantiate
from bntune.cli import main, render_json
from bntune.formats import parse_constraint, parse_network, parse_param_spec
from bntune.oracle import infer

from conftest import (
    COVID_CONSTRAINT_TEXT,
    COVID_NET_TEXT,
    COVID_PARAMS_TEXT,
    covid_posterior,
)

TOY_NET_TEXT = "var T { values: yes, no; }\ncpt T { (): 0.4, 0.6; }\n"
TOY_PARAMS_TEXT = "param x { entry: T(): yes; interval: 0.2, 0.6; }\n"


@pytest.fixture
def covid_files(tmp_path):
    net = tmp_path / "screening.net"
    params = tmp_path / "screening.params"
    net.write_text(COVID_NET_TEXT)
    params.write_text(COVID_PARAMS_TEXT)
    return net, params


@pytest.fixture
def toy_files(tmp_path):
    net = tmp_path / "toy.net"
    params = tmp_path / "toy.params"
    net.write_text(TOY_NET_TEXT)
    params.write_text(TOY_PARAMS_TEXT)
    return net, params


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------


def test_infer_reports_posterior(capsys, covid_files):
    net, _ = covid_files
    code, payload = run_cli(capsys, "infer", net, "-c", COVID_CONSTRAINT_TEXT)
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["probability"] == pytest.approx(0.011089709916535379, abs=1e-12)
    assert payload["direction"] == "<="
    assert payload["threshold"] == 0.009
    assert payload["satisfied"] is False
    assert isinstance(payload["timings_ms"], float)


def test_infer_requires_constraint(capsys, covid_files):
    net, _ = covid_files
    code, payload = run_cli(capsys, "infer", net)
    assert code == 1
    assert payload["status"] == "error"
    assert "-c/--constraint" in payload["error"]


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_tailored_chain(capsys, covid_files, tmp_path):
    net, params = covid_files
    dot_file = tmp_path / "chain.dot"
    code, payload = run_cli(
        capsys,
        "compile",
        net,
        "-p",
        params,
        "-c",
        COVID_CONSTRAINT_TEXT,
        "--emit-dot",
        dot_file,
    )
    assert code == 0
    assert payload["states"] == 11
    assert payload["targets"] == [10]
    assert payload["parameters"] == ["p", "q"]
    assert payload["sensitivity"]["numerator"] == "361"
    assert payload["sensitivity"]["denominator"] == "34900*p*q + 8758*q + 361"
    dot = dot_file.read_text()
    assert dot.startswith("digraph")
    assert "doublecircle" in dot


def test_compile_plain_chain(capsys, covid_files):
    net, params = covid_files
    code, payload = run_cli(capsys, "compile", net, "-p", params)
    assert code == 0
    assert payload["states"] == 13
    assert payload["targets"] == []
    assert payload["sensitivity"] is None


def test_compile_without_params(capsys, covid_files):
    net, _ = covid_files
    code, payload = run_cli(capsys, "compile", net)
    assert code == 0
    assert payload["states"] == 13
    assert payload["parameters"] == []


def test_compile_with_order(capsys, covid_files):
    net, params = covid_files
    code, payload = run_cli(
        capsys,
        "compile",
        net,
        "-p",
        params,
        "--order",
        "COVID-19,PCR,Symptoms,Antigen",
    )
    assert code == 0
    assert payload["states"] == 13


def test_compile_with_bad_order(capsys, covid_files):
    net, _ = covid_files
    code, payload = run_cli(capsys, "compile", net, "--order", "PCR,COVID-19")
    assert code == 1
    assert payload["status"] == "error"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_accepting(capsys, toy_files):
    net, params = toy_files
    code, payload = run_cli(
        capsys, "verify", net, "-p", params, "-c", "P(T=yes) <= 0.7"
    )
    assert code == 0
    assert payload["verdict"] == "accepting"
    lo, hi = payload["bounds"]["low"], payload["bounds"]["high"]
    assert lo == pytest.approx(0.2, abs=1e-9)
    assert hi == pytest.approx(0.6, abs=1e-9)
    assert lo <= 0.2 and hi >= 0.6


def test_verify_rejecting(capsys, toy_files):
    net, params = toy_files
    code, payload = run_cli(
        capsys, "verify", net, "-p", params, "-c", "P(T=yes) >= 0.7"
    )
    assert code == 2
    assert payload["verdict"] == "rejecting"


def test_verify_inconclusive(capsys, toy_files):
    net, params = toy_files
    code, payload = run_cli(
        capsys, "verify", net, "-p", params, "-c", "P(T=yes) <= 0.4"
    )
    assert code == 3
    assert payload["verdict"] == "inconclusive"


def test_verify_requires_params(capsys, covid_files):
    net, _ = covid_files
    code, payload = run_cli(capsys, "verify", net, "-c", COVID_CONSTRAINT_TEXT)
    assert code == 1
    assert "-p/--params" in payload["error"]


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def test_partition_emits_boxes(capsys, toy_files, tmp_path):
    net, params = toy_files
    csv_file = tmp_path / "boxes.csv"
    code, payload = run_cli(
        capsys,
        "partition",
        net,
        "-p",
        params,
        "-c",
        "P(T=yes) <= 0.5",
        "--eta",
        "0.9",
        "--emit-boxes",
        csv_file,
    )
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["coverage"] >= 0.9
    counts = payload["boxes"]
    assert counts["accepting"] >= 1 and counts["rejecting"] >= 1
    assert (
        payload["verifications"]
        >= counts["accepting"] + counts["rejecting"] + counts["unknown"]
    )
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "verdict,x_low,x_high"
    assert len(lines) == 1 + sum(counts.values())


def test_partition_conclusive_region(capsys, toy_files):
    net, params = toy_files
    code, payload = run_cli(
        capsys, "partition", net, "-p", params, "-c", "P(T=yes) <= 0.7", "--eta", "1"
    )
    assert code == 0
    assert payload["coverage"] == 1.0
    assert payload["boxes"] == {"accepting": 1, "rejecting": 0, "unknown": 0}
    assert payload["verifications"] == 1


def test_partition_bad_eta(capsys, toy_files):
    net, params = toy_files
    for eta in ("abc", "1.5"):
        code, payload = run_cli(
            capsys, "partition", net, "-p", params, "-c", "P(T=yes) <= 0.5", "--eta", eta
        )
        assert code == 1
        assert payload["status"] == "error"


def test_partition_covid_files(capsys, covid_files):
    net, params = covid_files
    code, payload = run_cli(
        capsys,
        "partition",
        net,
        "-p",
        params,
        "-c",
        COVID_CONSTRAINT_TEXT,
        "--eta",
        "0.5",
    )
    assert code == 0
    assert payload["coverage"] >= 0.5


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------


def test_tune_full_run(capsys, covid_files):
    net, params = covid_files
    code, payload = run_cli(
        capsys, "tune", net, "-p", params, "-c", COVID_CONSTRAINT_TEXT
    )
    assert code == 0
    assert payload["status"] == "tuned"
    assert payload["distance"]["measure"] == "ec"
    assert payload["distance"]["squared"] == pytest.approx(
        0.03393790957125098, rel=1e-9
    )
    assert payload["probability"] <= 0.009
    # The JSON instantiation must satisfy the constraint per the closed form.
    p, q = payload["instantiation"]["p"], payload["instantiation"]["q"]
    assert covid_posterior(p, q) <= 0.009
    assert len(payload["iterations"]) == 4
    last = payload["iterations"][-1]
    assert payload["coverage"] == last["coverage"] >= 0.99
    assert payload["boxes"] == {
        "accepting": last["accepting"],
        "rejecting": last["rejecting"],
        "unknown": last["unknown"],
    }
    assert payload["epsilon_final"] > 0
    assert payload["d0"] == pytest.approx(2**0.5, abs=1e-12)


def test_tune_satisfied_immediately(capsys, covid_files):
    net, params = covid_files
    code, payload = run_cli(
        capsys,
        "tune",
        net,
        "-p",
        params,
        "-c",
        "P(COVID-19=no | Antigen=pos & PCR=pos) <= 0.012",
    )
    assert code == 0
    assert payload["status"] == "satisfied"
    assert payload["instantiation"] == {"p": 0.72, "q": 0.95}
    assert payload["distance"]["value"] == 0.0
    assert payload["epsilon_final"] is None
    assert payload["iterations"] == []
    assert payload["coverage"] is None


def test_tune_infeasible(capsys, covid_files):
    net, params = covid_files
    code, payload = run_cli(
        capsys,
        "tune",
        net,
        "-p",
        params,
        "-c",
        "P(COVID-19=no | Antigen=pos & PCR=pos) <= 0",
        "--eta",
        "1",
    )
    assert code == 2
    assert payload["status"] == "infeasible"
    assert payload["instantiation"] is None
    assert payload["distance"] is None


def test_tune_deterministic_output(capsys, toy_files):
    net, params = toy_files
    argv = ["tune", str(net), "-p", str(params), "-c", "P(T=yes) <= 0.3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out

    def strip_timings(text):
        return [line for line in text.splitlines() if "timings_ms" not in line]

    assert strip_timings(first) == strip_timings(second)
    assert first.endswith("\n")


def test_tune_bad_hyper(capsys, toy_files):
    net, params = toy_files
    code, payload = run_cli(
        capsys, "tune", net, "-p", params, "-c", "P(T=yes) <= 0.3", "--eta", "1.5"
    )
    assert code == 1
    assert payload["status"] == "error"


@pytest.mark.parametrize("flag", ["--gamma", "--max-iters"])
def test_tune_schedule_flags_are_gone(capsys, toy_files, flag):
    net, params = toy_files
    argv = ["tune", str(net), "-p", str(params), "-c", "P(T=yes) <= 0.3", flag, "1"]
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_output_flag_writes_file(capsys, covid_files, tmp_path):
    net, _ = covid_files
    out_file = tmp_path / "result.json"
    code = main(
        ["infer", str(net), "-c", COVID_CONSTRAINT_TEXT, "-o", str(out_file)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out_file.read_text())
    assert payload["status"] == "ok"


def test_missing_network_file(capsys, tmp_path):
    code, payload = run_cli(
        capsys, "infer", tmp_path / "nope.net", "-c", "P(A=a) <= 0.5"
    )
    assert code == 1
    assert payload["status"] == "error"


def test_bad_constraint_text(capsys, covid_files):
    net, _ = covid_files
    code, payload = run_cli(capsys, "infer", net, "-c", "probability is small")
    assert code == 1
    assert payload["status"] == "error"


def test_renormalize_flag(capsys, tmp_path):
    # A row that misses one by 1e-10 is read as written; there is no flag.
    net = tmp_path / "offbyabit.net"
    net.write_text("var A { values: a, b; } cpt A { (): 0.3333333333, 0.6666666666; }")
    code, payload = run_cli(capsys, "infer", net, "-c", "P(A=a) <= 0.5")
    assert code == 0
    assert payload["probability"] == pytest.approx(1 / 3, abs=1e-12)
    assert payload["satisfied"] is True
    code, payload = run_cli(
        capsys, "infer", net, "--renormalize", "-c", "P(A=a) <= 0.5"
    )
    assert (code, payload) == (1, None)


def test_tune_on_near_unit_rows(capsys, tmp_path):
    # Both tuned rows miss one by at most 5e-10; each parametrizes to an exact
    # unit sum, and the answer is the one for the exact rows.
    text = COVID_NET_TEXT.replace("(yes, yes): 0.72, 0.28;", "(yes, yes): 0.72, 0.2799999995;")
    text = text.replace("(yes): 0.95, 0.05;", "(yes): 0.95, 0.0499999999;")
    assert "0.2799999995" in text and "0.0499999999" in text
    net, params = tmp_path / "near.net", tmp_path / "near.params"
    net.write_text(text)
    params.write_text(COVID_PARAMS_TEXT)
    code, payload = run_cli(capsys, "tune", net, "-p", params, "-c", COVID_CONSTRAINT_TEXT)
    assert (code, payload["status"]) == (0, "tuned")
    assert payload["distance"]["value"] == pytest.approx(0.18422244589422587, rel=1e-12)
    pbn = parse_param_spec(COVID_PARAMS_TEXT, parse_network(text))
    answer = {name: Fraction(value) for name, value in payload["instantiation"].items()}
    constraint = parse_constraint(COVID_CONSTRAINT_TEXT, pbn)
    posterior = infer(instantiate(pbn, answer), constraint.hypothesis, constraint.evidence)
    assert constraint.satisfied_by(posterior)


def test_huge_delta_exponent_is_an_input_error(capsys, covid_files):
    net, params = covid_files
    code, payload = run_cli(
        capsys, "verify", net, "-p", params, "--delta", "1e-3000000", "-c", COVID_CONSTRAINT_TEXT
    )
    assert code == 1
    assert payload["status"] == "error"
    assert "exponent" in payload["error"]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "infer" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_render_json_shape():
    text = render_json(
        {"a": 0.5, "b": None, "c": [1, 2], "d": {"x": True}, "e": "s"}
    )
    assert json.loads(text) == {
        "a": 0.5,
        "b": None,
        "c": [1, 2],
        "d": {"x": True},
        "e": "s",
    }
    assert text.endswith("\n")


def test_module_entry_point(covid_files, tmp_path):
    net, _ = covid_files
    proc = subprocess.run(
        [sys.executable, "-m", "bntune.cli", "infer", str(net), "-c", COVID_CONSTRAINT_TEXT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["probability"] == pytest.approx(0.011089709916535379, abs=1e-12)
