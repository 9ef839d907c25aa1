"""CLI surface: commands, formats, exit codes, byte-level reproducibility."""

import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from mdhv import cli
from mdhv.cli import build_parser, main, parse_direction, parse_product_state
from mdhv.models import MODEL_REGISTRY
from test_analysis import chi2_band


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def model_choices(*command: str) -> list[str]:
    """The model choices that the parser of `command` (e.g. "audit", "pi") declares."""
    p = build_parser()
    for name in command:
        sub = next(a for a in p._actions if isinstance(a, argparse._SubParsersAction))
        p = sub.choices[name]
    return sorted(next(a for a in p._actions if a.dest == "model").choices)


STATE_MODELS = ["bellmermin", "gbrans", "interval", "ks1", "ks2"]
COMMAND_MODELS = {
    "verify": ["bellmermin", "brans", "gbrans", "hall", "interval", "ks1", "ks2"],
    "scan": ["brans", "hall"],
    "audit marginal": ["brans", "hall"],
    "audit epistemicity": STATE_MODELS,
    "audit randomness": STATE_MODELS,
    "audit reciprocity": STATE_MODELS,
    "audit pi": ["gbrans"],
    "audit compat": ["gbrans"],
}


@pytest.mark.parametrize("command", COMMAND_MODELS, ids=lambda command: command.replace(" ", "-"))
def test_each_command_takes_the_models_it_names(command):
    assert model_choices(*command.split()) == COMMAND_MODELS[command]


class TestParsing:
    def test_polar_direction(self):
        v = parse_direction("90,0")
        assert v.x == pytest.approx(1.0, abs=1e-9)

    def test_cartesian_direction_normalized(self):
        v = parse_direction("0,0,5")
        assert v.z == 1.0

    def test_bad_direction(self):
        with pytest.raises(Exception):
            parse_direction("1")

    def test_unit_cartesian_direction_taken_as_given(self):
        # the echo writes x,y,z; every polar input must re-parse to the same bits
        for theta in range(0, 181, 5):
            for phi in range(0, 360, 15):
                v = parse_direction(f"{theta},{phi}")
                w = parse_direction(",".join(repr(float(c)) for c in (v.x, v.y, v.z)))
                assert (w.x, w.y, w.z) == (v.x, v.y, v.z), (theta, phi)

    @pytest.mark.parametrize("alice", ["1e200,1e200,1e200", "1e-200,0,1e-200"])
    def test_huge_and_tiny_components_normalize(self, alice, capsys):
        # their sum of squares overflows resp. underflows; the echoed unit vector re-parses to its bits
        argv = ["channel", f"--alice={alice}", "--accepted", "10", "--seed", "1", "--format", "json"]
        code, out = run_cli(argv, capsys)
        assert code == 0
        echoed = json.loads(out)["config"]["alice"]
        w = parse_direction(",".join(map(repr, echoed)))
        assert [w.x, w.y, w.z] == echoed

    def test_product_state(self):
        factors = parse_product_state("+,0")
        assert factors[0].overlap_sq(factors[0]) == pytest.approx(1.0)
        assert len(factors) == 2


class TestVerify:
    def test_gbrans_passes(self, capsys):
        code, out = run_cli(
            ["verify", "gbrans", "--shots", "20000", "--trials", "5", "--seed", "7"], capsys
        )
        assert code == 0
        assert '"seed": 7' in out

    def test_unknown_model_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "unknown-model"])
        assert exc.value.code == 2

    def test_json_format(self, capsys):
        code, out = run_cli(
            ["verify", "ks2", "--shots", "20000", "--trials", "3", "--seed", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["command"] == "verify"
        assert doc["all_within_5_stderr"] is True


class TestScan:
    def test_exact_anticorrelation_row(self, capsys):
        code, out = run_cli(
            [
                "scan",
                "brans",
                "--angles",
                "0,60,90",
                "--shots",
                "20000",
                "--seed",
                "11",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config:")
        row0 = lines[2].split(",")
        assert float(row0[1]) == -1.0

    def test_hall_a_thousandth_of_a_degree_from_parallel_passes(self, capsys):
        # P(A = B) = (1 - cos theta)/2 = 7.6e-11 per shot there, not the
        # uniform-sphere theta/pi = 5.6e-6 of the aligned-axes limit
        code, out = run_cli(["scan", "hall", "--angles", "0.001", "--shots", "1000000", "--seed", "1"], capsys)
        assert code == 0, out

    def test_non_bipartite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "gbrans", "--seed", "1"])
        assert exc.value.code == 2

    def test_reproducible_bytes(self, capsys):
        argv = ["scan", "hall", "--angles", "30,120", "--shots", "10000", "--seed", "5", "--format", "csv"]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert out1 == out2

    def test_output_does_not_depend_on_the_worker_count(self, capsys, monkeypatch):
        # 150,000 shots per angle are three chunks, which two or three workers share
        argv = ["scan", "hall", "--angles", "30,120", "--shots", "150000", "--seed", "5"]
        outs, asked = set(), []
        for count in (1, 2, 3):

            def forced(count=count):
                asked.append(count)
                return count

            monkeypatch.setattr(cli, "workers", forced)
            outs.add(run_cli(argv, capsys)[1])
        assert len(outs) == 1
        assert sorted(set(asked)) == [1, 2, 3]


def emitted_rows(argv, capsys, monkeypatch) -> tuple[list, list[str]]:
    """The rows that `argv` hands to the report writer, and its stdout lines."""
    emitted = []
    emit = cli._emit

    def spy(args, payload, rows=()):
        emitted.append(rows)
        emit(args, payload, rows)

    monkeypatch.setattr(cli, "_emit", spy)
    code, out = run_cli(argv, capsys)
    assert code == 0, out
    (rows,) = emitted
    return list(rows), out.splitlines()


ROW_COMMANDS = {
    "verify-brans": "verify brans --shots 500 --trials 3 --seed 3",
    "verify-ks1": "verify ks1 --shots 500 --trials 3 --seed 3",
    # gbrans draws a POVM in some trials and a basis in others, with other labels
    "verify-gbrans-dim3": "verify gbrans --dim 3 --shots 500 --trials 8 --seed 3",
    "scan-hall": "scan hall --angles 0,45,90 --shots 500 --seed 3",
}


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("key", ROW_COMMANDS)
def test_every_printed_row_has_the_header_keys_in_order(key, fmt, capsys, monkeypatch):
    # the writer joins each row's values in order under the first row's keys
    argv = shlex.split(ROW_COMMANDS[key]) + ["--format", fmt]
    rows, lines = emitted_rows(argv, capsys, monkeypatch)
    header = list(rows[0])
    assert [list(row) for row in rows] == [header] * len(rows)
    sep = "," if fmt == "csv" else "  "
    printed = lines[-len(rows) - 1 :]
    assert printed[0].split(sep) == header
    assert [dict(zip(header, line.split(sep))) for line in printed[1:]] == [
        {k: str(v) for k, v in row.items()} for row in rows
    ]


@pytest.mark.parametrize(
    "argv",
    [
        "audit epistemicity ks1 --seed 3",
        "audit randomness gbrans --dim 3 --seed 3",
        "audit reciprocity ks1 --seed 3",
        "audit pi gbrans --seed 3",
        "audit compat gbrans --seed 3",
        "audit marginal hall --samples 2000 --seed 3",
    ],
    ids=lambda argv: "-".join(argv.split()[1:3]),
)
def test_audits_print_a_report_and_no_rows(argv, capsys, monkeypatch):
    rows, lines = emitted_rows(shlex.split(argv), capsys, monkeypatch)
    assert rows == []
    assert all(": " in line for line in lines)


class TestPrintedErrorBarCoverage:
    """verify's per-row sigma (gate_5se/5) and scan's stderr match the spread
    they claim: over R rows, z = (estimate - exact)/sigma has var(z) inside
    the two-sided chi-square(R - 1) band at 1e-6, so a sigma scaled by 0.5
    or by 2 fails."""

    @staticmethod
    def assert_covered(z):
        dof = len(z) - 1
        lo, hi = chi2_band(dof, 1e-6)
        var = float(np.var(z, ddof=1))
        assert lo / dof <= var <= hi / dof, var

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_verify_sigma(self, name, capsys):
        argv = ["verify", name, "--trials", "400", "--shots", "2000", "--seed", "3", "--format", "json"]
        z = {}
        for row in json.loads(run_cli(argv, capsys)[1])["rows"]:
            born = float(row["born"])
            if 0.1 <= born <= 0.9:  # the trial's first such row
                z.setdefault(row["trial"], (float(row["estimate"]) - born) / (float(row["gate_5se"]) / 5.0))
        assert len(z) >= 300
        self.assert_covered(list(z.values()))

    @pytest.mark.parametrize("name", model_choices("scan"))
    def test_scan_stderr(self, name, capsys):
        angles = ",".join(repr(a) for a in np.linspace(15.0, 165.0, 400).tolist())
        argv = ["scan", name, "--angles", angles, "--shots", "2000", "--seed", "3", "--format", "json"]
        rows = json.loads(run_cli(argv, capsys)[1])["rows"]
        assert len(rows) == 400
        self.assert_covered(
            [(float(r["estimate"]) - float(r["expected_minus_cos"])) / float(r["stderr"]) for r in rows]
        )


class TestChannel:
    def test_json_reproducible(self, capsys):
        argv = [
            "channel",
            "--alice",
            "0,0",
            "--bob",
            "60,0",
            "--accepted",
            "5000",
            "--seed",
            "3",
            "--format",
            "json",
        ]
        code, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert code == 0 and out1 == out2
        doc = json.loads(out1)
        assert doc["nominal_cost_bits"] == 2.0
        assert abs(doc["acceptance_rate"] - 0.5) < 0.05

    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "rounds.csv"
        code, _ = run_cli(
            ["channel", "--accepted", "200", "--seed", "5", "--trace", str(trace)], capsys
        )
        assert code == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "round_id,lambda_x,lambda_y,lambda_z,accepted,outcome"

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _ = run_cli(
            [
                "channel",
                "--accepted",
                "100",
                "--seed",
                "9",
                "--format",
                "json",
                "--output",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out_path.read_text())["config"]["seed"] == 9


class TestAudit:
    def test_marginal_brans_zero(self, capsys):
        code, out = run_cli(["audit", "marginal", "brans", "--seed", "3", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["marginal"]["tv_distance"] == 0.0

    def test_compat_pbr(self, capsys):
        code, out = run_cli(
            [
                "audit",
                "compat",
                "gbrans",
                "--states",
                "0,+",
                "--basis",
                "pbr",
                "--seed",
                "5",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["compat"]["common_support"] == []

    def test_randomness_zero(self, capsys):
        code, out = run_cli(
            ["audit", "randomness", "gbrans", "--seed", "6", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert all(v == 0.0 for v in json.loads(out)["randomness"].values())

    def test_randomness_ks2_uses_its_own_labels(self, capsys):
        code, out = run_cli(
            ["audit", "randomness", "ks2", "--seed", "7", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["randomness"] == {"+b": 0.0, "-b": 0.0}

    @pytest.mark.parametrize("model", model_choices("audit", "epistemicity"))
    def test_epistemicity_is_closed_form_for_every_model_it_accepts(self, model, capsys):
        """The command reads no --samples, so a model it accepts must have an
        exact support mass at the contexts the command builds."""
        dims = (2, 3, 4) if MODEL_REGISTRY[model].any_dimension else (2,)
        for dim in dims:
            for seed in range(4):
                argv = ["audit", "epistemicity", model, "--dim", str(dim), "--seed", str(seed)]
                code, out = run_cli(argv + ["--format", "json"], capsys)
                report = json.loads(out)["epistemicity"]
                assert code == 0
                assert report["method"] == "analytic" and report["mass_stderr"] == 0.0

    @pytest.mark.parametrize("check", ["randomness", "reciprocity"])
    def test_response_audits_are_exact_for_every_model_they_accept(self, check, capsys):
        """The commands read no --samples: each is an exact sum over the model's
        cells, which for every model they accept gives literal zeros."""
        for model in model_choices("audit", check):
            dims = (2, 3, 4) if MODEL_REGISTRY[model].any_dimension else (2,)
            for dim in dims:
                for seed in range(4):
                    argv = ["audit", check, model, "--dim", str(dim), "--seed", str(seed)]
                    code, out = run_cli(argv + ["--format", "json"], capsys)
                    doc = json.loads(out)
                    assert code == 0
                    assert "samples" not in doc["config"]
                    values = doc[check].values() if check == "randomness" else [doc[check]["violation_mass"]]
                    assert all(v == 0.0 for v in values)

    def test_reciprocity(self, capsys):
        code, out = run_cli(
            ["audit", "reciprocity", "ks2", "--seed", "7", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["reciprocity"]["violation_mass"] == 0.0


class TestBadInput:
    """Bad input exits 2 with a one-line message, never a traceback with exit 1
    (exit 1 means a statistical gate failed)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "gbrans", "--shots", "0"],
            ["verify", "gbrans", "--trials", "0"],
            ["verify", "gbrans", "--seed", "-1"],
            ["verify", "gbrans", "--dim", "1"],
            ["channel", "--accepted", "0"],
            ["audit", "marginal", "hall", "--samples", "0"],
        ],
        ids=["shots", "trials", "seed", "dim", "accepted", "samples"],
    )
    def test_out_of_range_option_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert "must be >=" in err

    def test_marginal_audit_of_non_singlet_model(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "marginal", "gbrans", "--seed", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "marginal", "hall", "--state", "+,0"],
            ["audit", "epistemicity", "brans"],
            ["audit", "epistemicity", "hall"],
            ["audit", "randomness", "hall"],
            ["audit", "reciprocity", "brans"],
            ["audit", "pi", "ks1"],
            ["audit", "compat", "ks1"],
            ["audit", "pi", "gbrans", "--state", "x"],
            ["audit", "pi", "gbrans", "--state", "0,0,0"],
            ["audit", "pi", "gbrans", "--basis", "foo"],
            ["audit", "compat", "gbrans", "--states", "0"],
            ["audit", "pi", "gbrans", "--samples", "10"],
            ["audit", "epistemicity", "ks1", "--dim", "3"],
            ["audit", "epistemicity", "ks2", "--dim", "3"],
            # every model epistemicity accepts has an exact support mass, so it reads no --samples
            ["audit", "epistemicity", "ks1", "--samples", "10"],
            # randomness and reciprocity are exact sums over cells too
            ["audit", "randomness", "gbrans", "--samples", "10"],
            ["audit", "marginal", "gbrans"],
            ["audit"],
            ["verify"],
            ["verify", "gbrans", "--threads", "-3"],
            ["verify", "ks1", "--dim", "3"],
            ["verify", "brans", "--dim", "3"],
            ["scan", "hall", "--angles", ""],
            ["scan", "gbrans"],
            ["info", "--resolution", "0"],
            ["channel", "--bob", "0,0,0"],
            ["channel", "--bob", "nan,0", "--accepted", "100"],
            ["audit", "marginal", "hall", "--bob", "nan,0"],
            ["scan", "hall", "--angles", "inf"],
            ["scan", "brans", "--angles", "nan"],
            # csv carries rows only, and only verify and scan print rows
            ["channel", "--accepted", "10", "--format", "csv"],
            ["info", "--format", "csv"],
            ["audit", "epistemicity", "gbrans", "--format", "csv"],
            ["audit", "randomness", "gbrans", "--format", "csv"],
            ["audit", "reciprocity", "gbrans", "--format", "csv"],
            ["audit", "pi", "gbrans", "--format", "csv"],
            ["audit", "compat", "gbrans", "--format", "csv"],
            ["audit", "marginal", "brans", "--format", "csv"],
        ],
        ids=" ".join,
    )
    def test_usage_error_is_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        assert re.match(r"mdhv( [a-z]+)*: error: ", captured.err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "--output", "{tmp}/missing/x.json"],
            ["channel", "--trace", "{tmp}/missing/t.csv"],
            ["info", "--output", "{tmp}"],
        ],
        ids=["output-in-missing-dir", "trace-in-missing-dir", "output-is-a-dir"],
    )
    def test_unwritable_path_is_a_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(tmp=tmp_path) for arg in argv] + ["--seed", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert re.match(r"mdhv [a-z]+: error: argument --(output|trace): can't open ", captured.err)

    def test_unwritable_output_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        calls = []

        def run_experiment(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the run started before --output was opened")

        monkeypatch.setattr("mdhv.cli.run_experiment", run_experiment)
        argv = ["verify", "ks2", "--shots", "200000", "--trials", "20", "--seed", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(tmp_path / "missing" / "x.txt")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "argument --output: can't open" in captured.err
        assert calls == []

    def test_dim_above_2_only_for_models_that_declare_it(self, capsys):
        for name, cls in MODEL_REGISTRY.items():
            argv = ["verify", name, "--dim", "3", "--shots", "200", "--trials", "1", "--seed", "1"]
            if cls.any_dimension:
                assert main(argv) == 0
                assert '"dim": 3' in capsys.readouterr().out
            else:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
        assert {n for n, c in MODEL_REGISTRY.items() if c.any_dimension} == {"gbrans", "interval"}


def argv_from_config(config: dict) -> list[str]:
    """Rebuild a command line from an echoed config; values go as --opt=VALUE."""
    config = dict(config)
    argv = [config.pop("command")]
    argv += [config.pop(key) for key in ("check", "model") if key in config]
    for key, value in config.items():
        if isinstance(value, list):
            value = ",".join(repr(float(v)) for v in value)
        if value is not None:
            argv.append(f"--{key}={value}")
    return argv


ECHO_RUNS = {
    "verify": "verify interval --dim 3 --shots 3000 --trials 2 --threads 2",
    "scan": "scan hall --angles 30,125.5 --shots 3000",
    "channel": "channel --alice 140,285 --bob 0.6,0,0.8 --accepted 300 --trace t.csv",
    "info": "info",
    "epistemicity": "audit epistemicity gbrans --dim 3",
    "randomness": "audit randomness ks2",
    "reciprocity": "audit reciprocity ks1",
    "pi": "audit pi gbrans --state=-,1 --basis bell",
    "compat": "audit compat gbrans --states 1,+ --basis pbr",
    "marginal": "audit marginal hall --particle 2 --bob 140,285 --samples 4000",
}


@pytest.mark.parametrize("key", sorted(ECHO_RUNS))
def test_echo_round_trip(key, tmp_path, monkeypatch, capsys):
    """Re-running the echoed configuration reproduces stdout byte for byte."""
    monkeypatch.chdir(tmp_path)
    argv = ECHO_RUNS[key].split() + ["--seed", "13"]
    main(argv)
    out = capsys.readouterr().out
    config = json.loads(out.splitlines()[0].removeprefix("config: "))
    assert list(config)[:2] == ["command", "seed"]
    rebuilt = argv_from_config(config)
    assert rebuilt != argv
    main(rebuilt)
    assert capsys.readouterr().out == out


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split(" #")[0] for line in block.splitlines() if line.startswith("mdhv ")]
    assert len(lines) >= 8
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
