import json
import os

import numpy as np
import pytest

from gmud.cli import CSV_HEADER, main
from gmud.feedback import SCHEMES

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_geometric_mean_case(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "decompose", "--matrix", "2 0 0 0 0 0 1 0",
            "--r", "1.4142135", "--theta1", "0", "--theta2", "0",
        )
        assert code == 0
        doc = json.loads(out)
        diag = [doc["r_matrix"][0][0], doc["r_matrix"][1][1]]
        assert diag == pytest.approx([1.41421, 1.41421], abs=1e-4)
        assert doc["residual"] < 1e-10
        assert doc["singular_values"] == pytest.approx([2.0, 1.0], rel=1e-12)

    def test_out_of_range_names_interval(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--matrix", "2 0 0 0 0 0 1 0", "--r", "5")
        assert code == 2
        assert "[1, 2]" in err

    def test_svd_boundary_beam(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--matrix", "2 0 0 0 0 0 1 0", "--r", "2")
        assert code == 0
        doc = json.loads(out)
        q = np.array([[complex(re, im) for re, im in row] for row in doc["q"]])
        first = q[:, 0]
        assert abs(abs(first[0]) - 1.0) < 1e-10 and abs(first[1]) < 1e-10
        assert doc["cone_angle"] == pytest.approx(0.0, abs=1e-8)

    def test_matrix_from_file(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("2 0 0 0 0 0 1 0\n")
        code, out, _ = run_cli(capsys, "decompose", "--file", str(path), "--r", "1.5")
        assert code == 0
        assert json.loads(out)["r"] == 1.5

    def test_bad_matrix(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--matrix", "1 2 3", "--r", "1")
        assert code == 2
        assert "8" in err


class TestQuantize:
    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantize", "--matrix", "2 0 0 0 0 0 1 0", "--scheme", "gmud", "--n", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total_bits"] == 48
        assert len(doc["bits"]) == 48
        assert doc["decoded"]["lambda1"] >= doc["decoded"]["lambda2"]

    def test_selection_alias(self, capsys):
        matrix = ("--matrix", "2 0 0.5 0 0 1 1 0")
        code, out, _ = run_cli(capsys, "quantize", *matrix, "--scheme", "reg-inv-selection")
        assert code == 0
        doc = json.loads(out)
        assert doc["scheme"] == "reg-inv-sel"
        _, canonical, _ = run_cli(capsys, "quantize", *matrix, "--scheme", "reg-inv-sel")
        assert out == canonical

    @pytest.mark.parametrize("scheme, field", [("reg-inv-sel", "row0_re0"), ("reg-inv", "row_re0")])
    def test_nan_matrix_names_field(self, capsys, scheme, field):
        code, out, err = run_cli(
            capsys, "quantize", "--matrix", "nan 0 1 0 0 0 1 0", "--scheme", scheme
        )
        assert code == 2
        assert out == ""
        assert f"{field} is not finite" in err


def read_csv(path):
    with open(path) as fh:
        return fh.read()


class TestSweep:
    def test_single_point_and_header(self, capsys, tmp_path):
        out = str(tmp_path / "run")
        code, _, _ = run_cli(
            capsys, "sweep", "--scheme", "gmud", "--mod", "qpsk",
            "--snr", "10:0:10", "--feedback", "perfect",
            "--realizations", "4", "--symbols", "10", "--seed", "7",
            "--grid", "3,4,3", "--out", out,
        )
        assert code == 0
        text = read_csv(out + ".csv")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("gmud,qpsk,perfect,10.0,")
        assert os.path.exists(out + ".svg")
        manifest = json.loads(read_csv(out + ".manifest.json"))
        assert manifest["seed"] == 7
        assert manifest["command"] == "sweep"
        assert manifest["outputs"]["csv"] == out + ".csv"

    def test_deterministic_bytes(self, capsys, tmp_path):
        args = [
            "sweep", "--scheme", "reg-inv-sel", "--mod", "16qam",
            "--snr", "6:6:18", "--feedback", "2",
            "--realizations", "6", "--symbols", "12", "--seed", "3",
        ]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        capsys.readouterr()
        assert read_csv(a + ".csv") == read_csv(b + ".csv")
        assert read_csv(a + ".svg") == read_csv(b + ".svg")

    def test_selection_alias(self, capsys, tmp_path):
        out = str(tmp_path / "alias")
        code, _, _ = run_cli(
            capsys, "sweep", "--scheme", "reg-inv-selection", "--snr", "5:0:5",
            "--realizations", "2", "--symbols", "4", "--seed", "1", "--out", out,
        )
        assert code == 0
        assert read_csv(out + ".csv").split("\n")[1].startswith("reg-inv-sel,")
        assert json.loads(read_csv(out + ".manifest.json"))["schemes"] == ["reg-inv-sel"]

    def test_dat_output(self, capsys, tmp_path):
        out = str(tmp_path / "run")
        code, _, _ = run_cli(
            capsys, "sweep", "--scheme", "reg-inv", "--snr", "0:10:10",
            "--realizations", "3", "--symbols", "8", "--seed", "1",
            "--dat", "--out", out,
        )
        assert code == 0
        dat = read_csv(out + ".dat")
        assert dat.startswith("# reg-inv qpsk feedback=perfect")

    def test_bad_snr_flag(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--scheme", "gmud", "--snr", "10:-2:0",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "snr" in err.lower()
        assert not os.path.exists(str(tmp_path / "x") + ".csv")

    @pytest.mark.parametrize("snr", ["0:1:inf", "nan:0:nan", "-inf:0:-inf", "inf:0:inf", "0:nan:10"])
    def test_non_finite_snr_flag(self, capsys, tmp_path, snr):
        code, out, err = run_cli(capsys, "sweep", "--scheme", "reg-inv", f"--snr={snr}", "--out", str(tmp_path / "x"))
        assert code == 2
        assert out == ""
        assert err == f"gmud: error: bad --snr {snr!r}; start, step and stop must be finite\n"
        assert os.listdir(tmp_path) == []

    def test_all_zero_ber_sweep_is_a_result(self, capsys, tmp_path):
        # every point's BER is 0 here: the chart has axes and a legend but no curve
        out = str(tmp_path / "z")
        code, _, err = run_cli(
            capsys, "sweep", "--scheme", "reg-inv", "--snr", "40:0:40", "--realizations", "2", "--symbols", "4",
            "--out", out,
        )
        assert (code, err) == (0, "")
        assert read_csv(out + ".csv").split("\n")[1] == "reg-inv,qpsk,perfect,40.0,0.0,32,0"
        svg = read_csv(out + ".svg")
        assert "<polyline" not in svg and ">reg-inv (perfect)</text>" in svg
        assert json.loads(read_csv(out + ".manifest.json"))["outputs"] == {"csv": out + ".csv", "svg": out + ".svg"}

    def test_failed_output_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # every output's text is built before the first file is written
        def refuse(*args, **kwargs):
            raise ValueError("nothing to plot")

        monkeypatch.setattr("gmud.cli.line_chart", refuse)
        code, _, err = run_cli(
            capsys, "sweep", "--scheme", "reg-inv", "--snr", "5:0:5", "--realizations", "2", "--symbols", "4",
            "--dat", "--out", str(tmp_path / "x"),
        )
        assert (code, err) == (2, "gmud: error: nothing to plot\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", [("sweep", "--scheme", "reg-inv"), ("compare",)])
    def test_bad_grid_writes_nothing(self, capsys, tmp_path, command):
        # the grid is checked when it is parsed, before any curve is computed,
        # also for a scheme that never searches it
        code, out, err = run_cli(
            capsys, *command, "--snr", "5:0:5", "--realizations", "2", "--symbols", "4",
            "--grid", "0,4,3", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert out == ""
        assert "grid sizes must be >= 1" in err
        assert os.listdir(tmp_path) == []

    def test_env_seed_default_and_flag_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GMUD_SEED", "99")
        out = str(tmp_path / "env")
        run_cli(
            capsys, "sweep", "--scheme", "reg-inv", "--snr", "5:0:5",
            "--realizations", "2", "--symbols", "4", "--out", out,
        )
        assert json.loads(read_csv(out + ".manifest.json"))["seed"] == 99
        out2 = str(tmp_path / "flag")
        run_cli(
            capsys, "sweep", "--scheme", "reg-inv", "--snr", "5:0:5",
            "--realizations", "2", "--symbols", "4", "--seed", "123", "--out", out2,
        )
        assert json.loads(read_csv(out2 + ".manifest.json"))["seed"] == 123


class TestCompare:
    def test_curve_cardinality(self, capsys, tmp_path):
        out = str(tmp_path / "cmp")
        code, _, _ = run_cli(
            capsys, "compare", "--mod", "16qam", "--snr", "10:10:20",
            "--feedback", "4", "--feedback", "perfect",
            "--realizations", "3", "--symbols", "8", "--seed", "2",
            "--grid", "2,4,3", "--out", out,
        )
        assert code == 0
        lines = read_csv(out + ".csv").strip().split("\n")[1:]
        pairs = {tuple(line.split(",")[:3]) for line in lines}
        assert len(pairs) == 6  # 3 schemes x 2 feedback modes
        assert len(lines) == 12  # 2 SNR points each
        assert json.loads(read_csv(out + ".manifest.json"))["schemes"] == list(SCHEMES)

    def test_manifest_standard_errors(self, capsys, tmp_path):
        from gmud import GridSpec, SimConfig, run_ber

        out = str(tmp_path / "se")
        code, _, _ = run_cli(
            capsys, "compare", "--mod", "qpsk", "--snr", "0:10:10", "--feedback", "perfect",
            "--feedback", "2", "--realizations", "5", "--symbols", "8", "--seed", "6",
            "--grid", "2,2,2", "--out", out,
        )
        assert code == 0
        se = json.loads(read_csv(out + ".manifest.json"))["se"]
        assert [(c["scheme"], c["feedback"]) for c in se] == [(s, f) for s in SCHEMES for f in ("perfect", 2)]
        cfg = SimConfig(scheme="reg-inv-sel", modulation="qpsk", snr_db=(0.0, 10.0), feedback=2,
                        realizations=5, symbols=8, seed=6, grid=GridSpec(2, 2, 2))
        assert se[3]["se"] == [p.se for p in run_ber(cfg).points]
        assert all(len(c["se"]) == 2 and min(c["se"]) > 0.0 for c in se)

    def test_coarse_feedback_completes(self, capsys, tmp_path):
        # 16QAM at N=1 and 2 gives rank-one G with symbol pairs in its null space
        out = str(tmp_path / "coarse")
        code, _, err = run_cli(
            capsys, "compare", "--mod", "16qam", "--snr", "0:10:30", "--feedback", "1",
            "--feedback", "2", "--grid", "2,2,2", "--out", out,
        )
        assert code == 0, err
        assert len(read_csv(out + ".csv").strip().split("\n")) == 1 + 3 * 2 * 4

    def test_snr_grid_inclusive(self, capsys, tmp_path):
        out = str(tmp_path / "cmp2")
        code, _, _ = run_cli(
            capsys, "compare", "--snr", "0:5:10", "--realizations", "2",
            "--symbols", "4", "--seed", "4", "--grid", "2,2,2", "--out", out,
        )
        assert code == 0
        lines = read_csv(out + ".csv").strip().split("\n")[1:]
        snrs = sorted({float(line.split(",")[3]) for line in lines})
        assert snrs == [0.0, 5.0, 10.0]


class TestGoldenCompare:
    @pytest.mark.parametrize("mod", ["16qam", "qpsk"])
    def test_csv_bytes_unchanged(self, capsys, tmp_path, mod):
        # captured from `gmud compare` with these flags; any refactor must keep every byte
        out = str(tmp_path / "golden")
        code, _, _ = run_cli(
            capsys, "compare", "--mod", mod, "--snr", "0:10:30",
            "--feedback", "perfect", "--feedback", "4",
            "--realizations", "40", "--seed", "12345", "--out", out,
        )
        assert code == 0
        with open(out + ".csv", "rb") as fh, open(os.path.join(DATA_DIR, f"golden_compare_{mod}.csv"), "rb") as golden:
            assert fh.read() == golden.read()
