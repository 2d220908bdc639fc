import json
import math
import os

import numpy as np
import pytest

from freecontract.cli import main


@pytest.fixture
def bernoulli_measure_path(tmp_path):
    path = tmp_path / "bernoulli.json"
    path.write_text(json.dumps(
        {"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]}))
    return str(path)


@pytest.fixture
def bernoulli_spec_path(tmp_path):
    path = tmp_path / "bernoulli_spec.json"
    path.write_text(json.dumps(
        {"k": 2, "eigs": [{"xi": -1.0, "d": 1}, {"xi": 1.0, "d": 1}]}))
    return str(path)


class TestTnormCommand:
    def test_json_report(self, bernoulli_spec_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(["tnorm", "--spec", bernoulli_spec_path, "--t", "0.25",
                     "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["exact"] == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
        assert obj["meta"]["seed"] == 0

    def test_csv_format(self, bernoulli_spec_path, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["tnorm", "--spec", bernoulli_spec_path, "--t", "0.25",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,exact,upper,lower,kargin,asymptote,atom_dominated"
        assert len(lines) == 2

    def test_a_wide_spectrum_writes_its_moment_bound(self, tmp_path):
        # ||a - mean||^3 = 1e309 is past the float range; the moment bound
        # sqrt(2)*1e103 + 2.5e103, formed on the scaled spectrum, is not
        spec = tmp_path / "wide.json"
        spec.write_text(json.dumps(
            {"k": 2, "eigs": [{"xi": -1e103, "d": 1}, {"xi": 1e103, "d": 1}]}))
        out = tmp_path / "report.json"
        assert main(["tnorm", "--spec", str(spec), "--t", "0.5", "--all-bounds",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["kargin"] == pytest.approx(math.sqrt(2.0) * 1e103 + 2.5e103,
                                              rel=1e-12, abs=0.0)
        assert obj["exact"] == pytest.approx(1e103, rel=1e-12)
        assert obj["exact"] <= obj["upper"] < math.inf

    def test_a_wide_spectrum_writes_a_finite_norm(self, tmp_path):
        # var*(T - 1) overflows inside the hull at t = 0.1; the norm is
        # t*2*sqrt(T - 1)*a = 3e153, written as valid JSON
        spec = tmp_path / "wide.json"
        spec.write_text(json.dumps(
            {"k": 2, "eigs": [{"xi": -5e153, "d": 1}, {"xi": 5e153, "d": 1}]}))
        out = tmp_path / "report.json"
        assert main(["tnorm", "--spec", str(spec), "--t", "0.1", "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"{name} in the output")

        obj = json.loads(out.read_text(), parse_constant=refuse)
        assert obj["exact"] == pytest.approx(3e153, rel=1e-12, abs=0.0)

    def test_a_spectrum_whose_variance_overflows_has_a_norm(self, tmp_path):
        # (1e155)^2 is past the float range, but the mean, sigma, the norm
        # and every estimate are not
        spec = tmp_path / "wide.json"
        spec.write_text(json.dumps(
            {"k": 2, "eigs": [{"xi": -1e155, "d": 1}, {"xi": 1e155, "d": 1}]}))
        out = tmp_path / "report.json"
        assert main(["tnorm", "--spec", str(spec), "--t", "0.5", "--all-bounds",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["exact"] == pytest.approx(1e155, rel=1e-12, abs=0.0)
        assert obj["kargin"] == pytest.approx(math.sqrt(2.0) * 1e155 + 2.5e155,
                                              rel=1e-12, abs=0.0)
        assert obj["asymptote"] == pytest.approx(math.sqrt(2.0) * 1e155, rel=1e-12)
        assert obj["exact"] <= obj["upper"] < math.inf

    def test_domain_error_exit_2_and_no_output(self, bernoulli_spec_path, tmp_path):
        out = tmp_path / "never.json"
        code = main(["tnorm", "--spec", bernoulli_spec_path, "--t", "2.0",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()


class TestPowerCommand:
    def test_identity_power_returns_input(self, bernoulli_measure_path, tmp_path):
        out = tmp_path / "power.json"
        code = main(["power", "--measure", bernoulli_measure_path, "--T", "1",
                     "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["atoms"] == [{"x": -1.0, "mass": 0.5}, {"x": 1.0, "mass": 0.5}]
        assert obj["support_components"] == []

    def test_power_with_density_table(self, bernoulli_measure_path, tmp_path):
        out = tmp_path / "power4.json"
        code = main(["power", "--measure", bernoulli_measure_path, "--T", "4",
                     "--density-grid", "50", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        (lo, hi), = obj["support_components"]
        assert lo == pytest.approx(-2 * math.sqrt(3), abs=1e-9)
        assert hi == pytest.approx(2 * math.sqrt(3), abs=1e-9)
        assert len(obj["density_table"]["x"]) == 50

    def test_nan_power_exit_2_with_domain_error(self, bernoulli_measure_path, tmp_path,
                                                capsys):
        out = tmp_path / "never.json"
        code = main(["power", "--measure", bernoulli_measure_path, "--T", "nan",
                     "--out", str(out)])
        assert code == 2
        assert "finite T >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestLostMass:
    # a power whose components miss the unit mass by more than 1e-6 is
    # refused, and nothing is written; the norm needs no mass.  Offset
    # spectra are computed about their mean, so {c, c + 1} keeps its mass.

    def test_power_refuses_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        from freecontract import freepower

        exact = freepower._PowerKernel.masses.func

        def lossy(self):
            return exact(self) * (1.0 - 1e-5)

        monkeypatch.setattr(freepower._PowerKernel.masses, "func", lossy)
        measure = tmp_path / "offset.json"
        measure.write_text(json.dumps(
            {"atoms": [{"x": 1e8, "w": 0.5}, {"x": 1e8 + 1.0, "w": 0.5}]}))
        out = tmp_path / "p.json"
        code = main(["power", "--measure", str(measure), "--T", "2",
                     "--out", str(out)])
        assert code == 2
        assert "mass conservation violated" in capsys.readouterr().err
        assert not out.exists()

    def test_power_at_offset_1e8_conserves_mass(self, tmp_path):
        measure = tmp_path / "offset.json"
        measure.write_text(json.dumps(
            {"atoms": [{"x": 1e8, "w": 0.5}, {"x": 1e8 + 1.0, "w": 0.5}]}))
        out = tmp_path / "p.json"
        code = main(["power", "--measure", str(measure), "--T", "2",
                     "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert abs(sum(obj["ac_masses"]) - 1.0) <= 1e-9
        (lo, hi), = obj["support_components"]
        assert (lo, hi) == (2e8, 2e8 + 2.0)

    def test_power_at_offset_1e6_conserves_mass(self, tmp_path):
        measure = tmp_path / "offset.json"
        measure.write_text(json.dumps(
            {"atoms": [{"x": 1e6, "w": 0.5}, {"x": 1e6 + 1.0, "w": 0.5}]}))
        out = tmp_path / "p.json"
        code = main(["power", "--measure", str(measure), "--T", "2",
                     "--out", str(out)])
        assert code == 0
        assert abs(sum(json.loads(out.read_text())["ac_masses"]) - 1.0) <= 1e-6

    def test_norm_of_the_same_power_succeeds(self, tmp_path):
        spec = tmp_path / "offset_spec.json"
        spec.write_text(json.dumps(
            {"k": 2, "eigs": [{"xi": 1e6, "d": 1}, {"xi": 1e6 + 1.0, "d": 1}]}))
        out = tmp_path / "report.json"
        code = main(["tnorm", "--spec", str(spec), "--t", "0.5", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["exact"] == 1000001.0


class TestMalformedInputs:
    # a wrong input exits 2 with one error line and writes nothing

    @pytest.mark.parametrize("argv, text", [
        (["tnorm", "--t", "0.5", "--spec"],
         {"k": 2, "eigs": [{"xi": 0.0, "d": 1.7}, {"xi": 1.0, "d": 1.2}]}),
        (["tnorm", "--t", "0.5", "--spec"],
         {"k": 2.9, "eigs": [{"xi": 0.0, "d": 1}, {"xi": 1.0, "d": 1}]}),
        (["tnorm", "--t", "0.5", "--spec"], {"k": 1, "eigs": [{"xi": "abc", "d": 1}]}),
        (["power", "--T", "2", "--measure"], {"atoms": [{"x": "abc", "w": 1.0}]}),
        (["tnorm", "--t", "0.5", "--spec"], {"k": 1, "eigs": [{"xi": 0.0, "d": 10**20}]}),
        # the variance of {-1e155, 1e155} overflows
        (["measure", "rho", "--measure"],
         {"atoms": [{"x": -1e155, "w": 0.5}, {"x": 1e155, "w": 0.5}]}),
        # 1e308 from the mean is past 2^1023: the hull end is not scaled back
        (["tnorm", "--t", "0.25", "--spec"],
         {"k": 2, "eigs": [{"xi": -1e308, "d": 1}, {"xi": 1e308, "d": 1}]}),
        # the norms are 1.7e308; mean + 2*sigma = 2.55e308 and L + mean = 3.4e308
        # are past the float range
        (["tnorm", "--t", "1", "--all-bounds", "--spec"],
         {"k": 2, "eigs": [{"xi": 0.0, "d": 1}, {"xi": 1.7e308, "d": 1}]}),
        (["tnorm", "--t", "1", "--all-bounds", "--spec"],
         {"k": 1, "eigs": [{"xi": 1.7e308, "d": 1}]}),
    ], ids=["fractional d", "fractional k", "non-numeric xi", "non-numeric x", "huge d",
            "overflowing measure variance", "spec past 2**1023",
            "asymptote past the float range", "lower bound past the float range"])
    def test_exit_2_with_an_error_line(self, argv, text, tmp_path, capsys):
        path, out = tmp_path / "input.json", tmp_path / "never.json"
        path.write_text(json.dumps(text))
        assert main(argv + [str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("freecontract: error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["power", "--measure", "MEASURE", "--T", "2", "--density-grid", "-5"],
        ["violation", "scan", "--kmin", "1e4", "--kmax", "1e5", "--rstep", "nan"],
        ["violation", "scan", "--kmin", "1e4", "--kmax", "inf", "--kpoints", "3"],
        ["violation", "scan", "--kmin", "1e4", "--kmax", "1e30", "--kpoints", "3",
         "--rstep", "0.1"],
        ["tnorm", "--spec", "SPEC", "--t", "0.5", "--all-bounds", "--L", "nan"],
        ["tnorm", "--spec", "SPEC", "--t", "0.5", "--all-bounds", "--L", "inf"],
        # L is checked whether or not the lower bound is computed
        ["tnorm", "--spec", "SPEC", "--t", "0.5", "--L", "nan"],
        ["tnorm", "--spec", "SPEC", "--t", "0.5", "--L", "0.5"],
        ["tnorm", "--spec", "SIGNED", "--t", "0.5", "--L", "nan"],
    ], ids=["negative density grid", "nan rstep", "infinite kmax", "kmax past 2**53",
            "nan L", "infinite L", "nan L without all-bounds",
            "L below the top eigenvalue without all-bounds", "nan L on a signed spec"])
    def test_bad_flag_exits_2(self, argv, bernoulli_measure_path, bernoulli_spec_path,
                              tmp_path, capsys):
        spec = tmp_path / "nonneg_spec.json"
        spec.write_text(json.dumps({"k": 2, "eigs": [{"xi": 0.0, "d": 1}, {"xi": 2.0, "d": 1}]}))
        out = tmp_path / "never.out"
        argv = [{"MEASURE": bernoulli_measure_path, "SPEC": str(spec),
                 "SIGNED": bernoulli_spec_path}.get(a, a) for a in argv]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("freecontract: error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_truncated_json(self, tmp_path, capsys):
        path, out = tmp_path / "truncated.json", tmp_path / "never.json"
        path.write_text('{"k": 2,')
        assert main(["tnorm", "--spec", str(path), "--t", "0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("freecontract: error: malformed JSON input: ")
        assert err.count("\n") == 1 and not out.exists()

    def test_out_naming_a_directory(self, bernoulli_spec_path, tmp_path, capsys):
        out = tmp_path / "a_directory"
        out.mkdir()
        assert main(["tnorm", "--spec", bernoulli_spec_path, "--t", "0.5",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("freecontract: error: ") and err.count("\n") == 1
        assert list(out.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory",
                                                              "bernoulli_spec.json"]


class TestAllOrNothingOutput:
    # every output path is opened before any is written: a run that fails
    # on one of them creates and changes no file

    SCAN = ["violation", "scan", "--kmin", "25000", "--kmax", "40000", "--kpoints", "12",
            "--rmin", "1.36", "--rmax", "1.41", "--rstep", "0.005"]

    @staticmethod
    def _fails_with_one_error_line(argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("freecontract: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--summary", "--svg"])
    def test_scan_with_a_directory_output_creates_no_csv(self, flag, tmp_path, capsys):
        out, bad = tmp_path / "scan.csv", tmp_path / "a_directory"
        bad.mkdir()
        self._fails_with_one_error_line(self.SCAN + ["--out", str(out), flag, str(bad)],
                                        capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory"]
        assert list(bad.iterdir()) == []

    def test_rmt_with_a_directory_sidecar_creates_no_csv(self, bernoulli_spec_path,
                                                          tmp_path, capsys):
        out = tmp_path / "x.csv"
        (tmp_path / "x.csv.meta.json").mkdir()
        self._fails_with_one_error_line(["rmt", "--spec", bernoulli_spec_path, "--t", "0.25",
                                         "--N", "200", "--out", str(out)], capsys)
        assert not out.exists()

    def test_existing_out_file_is_left_as_it_was(self, bernoulli_spec_path, tmp_path,
                                                 capsys):
        out = tmp_path / "x.csv"
        out.write_text("old")
        stamp = out.stat().st_mtime_ns
        (tmp_path / "x.csv.meta.json").mkdir()
        self._fails_with_one_error_line(["rmt", "--spec", bernoulli_spec_path, "--t", "0.25",
                                         "--N", "200", "--out", str(out)], capsys)
        self._fails_with_one_error_line(self.SCAN + ["--out", str(out), "--summary",
                                                     str(tmp_path)], capsys)
        assert out.read_text() == "old" and out.stat().st_mtime_ns == stamp

    def test_two_outputs_on_one_path(self, tmp_path, capsys):
        path = tmp_path / "p"
        self._fails_with_one_error_line(self.SCAN + ["--out", str(path), "--summary",
                                                     os.path.join(tmp_path, ".", "p")], capsys)
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces_an_existing_file(self, bernoulli_spec_path, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("x" * 100000)
        assert main(["tnorm", "--spec", bernoulli_spec_path, "--t", "0.25",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["t"] == 0.25

    def test_out_to_a_device(self, bernoulli_spec_path):
        assert main(["tnorm", "--spec", bernoulli_spec_path, "--t", "0.25",
                     "--out", os.devnull]) == 0

    @pytest.mark.parametrize("linked", [("--out", "--summary"), ("--summary", "--svg"),
                                        ("--out", "--svg")])
    def test_two_hard_links_of_one_file(self, linked, tmp_path, capsys):
        # the third output is created, then removed when the links are found
        first, second = tmp_path / "a", tmp_path / "b"
        first.write_text("old")
        os.link(first, second)
        new, = {"--out", "--summary", "--svg"} - set(linked)
        self._fails_with_one_error_line(self.SCAN + [linked[0], str(first), linked[1],
                                                     str(second), new, str(tmp_path / "c")],
                                        capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]
        assert first.read_text() == "old"

    def test_a_device_named_twice(self, capsys):
        self._fails_with_one_error_line(self.SCAN + ["--out", os.devnull,
                                                     "--summary", os.devnull], capsys)


class TestOutputInPlace:
    # an existing output is overwritten from its start and cut to the new
    # length: the bytes are those of a run to stdout, whatever was there

    SCAN = TestAllOrNothingOutput.SCAN
    OLD = {"longer": "x" * 100000, "shorter": "x"}

    @pytest.mark.parametrize("old", OLD)
    def test_tnorm_over_an_existing_file(self, old, bernoulli_spec_path, tmp_path,
                                         capsys):
        argv = ["tnorm", "--spec", bernoulli_spec_path, "--t", "0.25", "--all-bounds"]
        assert main(argv) == 0
        want = capsys.readouterr().out.encode()
        out = tmp_path / "report.json"
        out.write_text(self.OLD[old])
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == want

    @pytest.mark.parametrize("old", OLD)
    def test_scan_over_existing_files(self, old, tmp_path, capsys):
        fresh = tmp_path / "fresh.svg"
        assert main(self.SCAN + ["--svg", str(fresh)]) == 0
        captured = capsys.readouterr()
        want = {"scan.csv": captured.out.encode(), "summary.json": captured.err.encode(),
                "contour.svg": fresh.read_bytes()}
        for name in want:
            (tmp_path / name).write_text(self.OLD[old])
        assert main(self.SCAN + ["--out", str(tmp_path / "scan.csv"),
                                 "--summary", str(tmp_path / "summary.json"),
                                 "--svg", str(tmp_path / "contour.svg")]) == 0
        assert {name: (tmp_path / name).read_bytes() for name in want} == want

    def test_the_file_keeps_its_inode_links_and_permissions(self, bernoulli_spec_path,
                                                            tmp_path):
        out, link = tmp_path / "report.json", tmp_path / "link.json"
        out.write_text("x" * 100000)
        os.chmod(out, 0o640)
        os.link(out, link)
        before = out.stat()
        assert main(["tnorm", "--spec", bernoulli_spec_path, "--t", "0.25",
                     "--out", str(out)]) == 0
        after = out.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert json.loads(link.read_text())["t"] == 0.25


class TestMeasureCommand:
    def test_rho_of_bernoulli(self, bernoulli_measure_path, tmp_path):
        out = tmp_path / "rho.json"
        code = main(["measure", "rho", "--measure", bernoulli_measure_path,
                     "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert len(obj["atoms"]) == 1
        assert obj["atoms"][0]["x"] == pytest.approx(0.0, abs=1e-12)
        assert obj["total_mass"] == pytest.approx(1.0, abs=1e-10)


class TestRmtCommand:
    def test_csv_and_sidecar(self, bernoulli_spec_path, tmp_path):
        out = tmp_path / "eigs.csv"
        code = main(["rmt", "--spec", bernoulli_spec_path, "--t", "0.25",
                     "--N", "200", "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,t,seed,eigenvalue"
        assert len(lines) == 51   # floor(0.25*200) eigenvalues
        meta = json.loads((tmp_path / "eigs.csv.meta.json").read_text())
        assert meta["generator"].startswith("philox")
        assert "spec_sha256" in meta

    def test_rerun_byte_identical(self, bernoulli_spec_path, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["rmt", "--spec", bernoulli_spec_path, "--t", "0.25",
                         "--N", "200", "--seed", "9", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_failed_cholesky_exits_2(self, bernoulli_spec_path, tmp_path,
                                     monkeypatch, capsys):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        out = tmp_path / "eigs.csv"
        assert main(["rmt", "--spec", bernoulli_spec_path, "--t", "0.25",
                     "--N", "200", "--seed", "7", "--out", str(out)]) == 2
        assert "random-matrix oracle" in capsys.readouterr().err
        assert not out.exists()


class TestChannelCommands:
    def test_bell(self, tmp_path):
        out = tmp_path / "bell.json"
        code = main(["channel", "bell", "--k", "3", "--n", "8", "--t", "0.25",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["lambda_max"] >= obj["t_effective"] - 1e-10
        assert obj["entropy"] <= obj["product_bound"] + 1e-9

    def test_sample_csv(self, tmp_path):
        out = tmp_path / "spectra.csv"
        code = main(["channel", "sample", "--k", "3", "--n", "8", "--t", "0.25",
                     "--count", "10", "--seed", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "seed,sample,lambda_1,lambda_2,lambda_3"
        assert len(lines) == 11
        row = lines[1].split(",")
        lam = [float(v) for v in row[2:]]
        assert sum(lam) == pytest.approx(1.0, abs=1e-9)

    def test_concentration(self, tmp_path):
        out = tmp_path / "conc.json"
        code = main(["channel", "concentration", "--k", "4", "--n", "50",
                     "--t", "0.1", "--count", "200", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["max_l2"] <= obj["bound"] * 1.2

    def test_hmin(self, tmp_path):
        out = tmp_path / "hmin.json"
        code = main(["channel", "hmin", "--k", "2", "--n", "6", "--t", "0.5",
                     "--restarts", "2", "--seed", "5", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert 0.0 <= obj["hmin_estimate"] <= math.log(2) + 1e-9


class TestViolationCommands:
    def test_eval_headline(self, tmp_path):
        out = tmp_path / "head.json"
        code = main(["violation", "eval", "--k", "31114", "--r", "1.387",
                     "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["violated"] is True
        assert obj["g"] == pytest.approx(-6.71108e-12, abs=1e-12)

    def test_scan_with_summary_and_svg(self, tmp_path):
        out = tmp_path / "scan.csv"
        summary = tmp_path / "summary.json"
        svg = tmp_path / "contour.svg"
        code = main(["violation", "scan", "--kmin", "25000", "--kmax", "40000",
                     "--kpoints", "12", "--rmin", "1.36", "--rmax", "1.41",
                     "--rstep", "0.005", "--out", str(out),
                     "--summary", str(summary), "--svg", str(svg)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,r,t,g"
        obj = json.loads(summary.read_text())
        assert obj["min_k"] is not None
        assert svg.read_text().startswith("<svg")

    def test_usage_error_exit_1(self):
        assert main(["violation", "eval", "--k", "100"]) == 1
        assert main(["unknown-command"]) == 1
        assert main(["tnorm"]) == 1

    def test_bad_tol_usage_error(self, tmp_path):
        assert main(["violation", "eval", "--k", "100", "--r", "1.5",
                     "--tol", "-1"]) == 1


class TestStdoutPath:
    def test_eval_to_stdout(self, capsys):
        assert main(["violation", "eval", "--k", "31114", "--r", "1.387"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["violated"] is True

    def test_rmt_stdout_with_meta_on_stderr(self, bernoulli_spec_path, capsys):
        assert main(["rmt", "--spec", bernoulli_spec_path, "--t", "0.5",
                     "--N", "120", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("N,t,seed,eigenvalue")
        meta = json.loads(captured.err)
        assert meta["d"] == 60


class TestParserReuse:
    # the parser is built once per process; consecutive calls must not see
    # each other's arguments or defaults

    def test_consecutive_calls_leak_nothing(self, bernoulli_spec_path,
                                            bernoulli_measure_path, tmp_path):
        from freecontract.cli import build_parser

        assert build_parser() is build_parser()
        csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
        assert main(["tnorm", "--spec", bernoulli_spec_path, "--t", "0.25",
                     "--format", "csv", "--L", "5", "--seed", "7",
                     "--out", str(csv_out)]) == 0
        assert main(["measure", "rho", "--measure", bernoulli_measure_path,
                     "--out", str(tmp_path / "rho.json")]) == 0
        assert main(["tnorm", "--spec", bernoulli_spec_path, "--t", "0.25",
                     "--out", str(json_out)]) == 0
        assert csv_out.read_text().startswith("t,exact")
        obj = json.loads(json_out.read_text())
        assert obj["meta"]["seed"] == 0

        argvs = [
            ["tnorm", "--spec", "a.json", "--t", "0.5", "--all-bounds", "--L", "3"],
            ["power", "--measure", "m.json", "--T", "2", "--density-grid", "9"],
            ["tnorm", "--spec", "a.json", "--t", "0.5"],
            ["channel", "hmin", "--k", "2", "--n", "3", "--t", "0.5"],
            ["violation", "scan", "--kmin", "1", "--kmax", "2", "--svg", "c.svg"],
            ["violation", "eval", "--k", "3", "--r", "1.5"],
        ]
        for argv in argvs:
            assert vars(build_parser().parse_args(argv)) == \
                vars(build_parser.__wrapped__().parse_args(argv))
