"""CLI surface: commands, formats, exit codes, byte-level reproducibility."""

import json

import pytest

from mdhv.cli import main, parse_direction, parse_product_state


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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

    def test_model_flag_alternative(self, capsys):
        code, _ = run_cli(
            ["verify", "--model", "gbrans", "--shots", "5000", "--trials", "2", "--seed", "3"],
            capsys,
        )
        assert code == 0


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

    def test_non_bipartite_rejected(self, capsys):
        code, _ = run_cli(["scan", "gbrans", "--seed", "1"], capsys)
        assert code == 2

    def test_reproducible_bytes(self, capsys):
        argv = ["scan", "hall", "--angles", "30,120", "--shots", "10000", "--seed", "5", "--format", "csv"]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert out1 == out2


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


class TestInfo:
    def test_values(self, capsys):
        code, out = run_cli(["info", "--seed", "1", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["info"]["mutual_information"] - 0.6931471805599453) < 1e-3


class TestAudit:
    def test_epistemicity_gbrans_dim4(self, capsys):
        code, out = run_cli(
            ["audit", "epistemicity", "gbrans", "--dim", "4", "--seed", "2", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["epistemicity"]["omega"] == 1.0

    def test_marginal_brans_zero(self, capsys):
        code, out = run_cli(["audit", "marginal", "brans", "--seed", "3", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["marginal"]["tv_distance"] == 0.0

    def test_pi_residual(self, capsys):
        code, out = run_cli(
            [
                "audit",
                "pi",
                "gbrans",
                "--state",
                "+,0",
                "--basis",
                "mixed-psi-plus",
                "--seed",
                "4",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        assert abs(json.loads(out)["pi"]["max_residual"] - 0.125) < 1e-12

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
            ["audit", "randomness", "gbrans", "--samples", "2000", "--seed", "6", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert all(v == 0.0 for v in json.loads(out)["randomness"].values())

    def test_reciprocity(self, capsys):
        code, out = run_cli(
            ["audit", "reciprocity", "ks2", "--samples", "2000", "--seed", "7", "--format", "json"],
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
            ["audit", "randomness", "gbrans", "--samples", "0"],
        ],
        ids=["shots", "trials", "seed", "dim", "accepted", "samples"],
    )
    def test_out_of_range_option_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "must be >=" in err.strip().splitlines()[-1]

    def test_marginal_audit_of_non_singlet_model(self, capsys):
        code = main(["audit", "marginal", "gbrans", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
