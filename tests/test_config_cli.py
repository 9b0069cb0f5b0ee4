import json
import math

import pytest

from cetlab import PowerLawExp, ValidationError
from cetlab.cli import main
from cetlab.config import parse_config_text

GOOD = """
# run configuration
[density]
family = powerlaw
alpha = 1.0
beta = 1.0
lambda = 1.0

[quadrature]
n_nodes = 8
tol = 1e-10

[solver]
n_r = 128
cfl = 0.5
t_final = 4.0
epsilon = 0.01
a_null = 1.0
c_grad = 1.0
d_quad = 0.25
r_c = 5.0
sigma = 1.0
velocity_mode = time-symmetric
delta0 = 0.2
cadence = 5
snapshot_times = 2.0, 4.0

[output]
directory = {out}
formats = csv, json
"""


class TestConfigParser:
    def test_good_config_builds_model(self, tmp_path):
        rc = parse_config_text(GOOD.format(out=tmp_path))
        assert isinstance(rc.density, PowerLawExp)
        cfg, grid, cadence, snaps = rc.build_model()
        assert grid.n_r == 128
        assert cadence == 5
        assert snaps == (2.0, 4.0)
        assert cfg.epsilon == 0.01
        # r_max auto-padded: support + t_final + 2
        assert grid.r_max == pytest.approx(15.0)

    def test_unknown_key_reports_line(self):
        bad = "[solver]\nepsilon = 0.01\nwavelets = 3\n"
        with pytest.raises(ValidationError, match=r"<config>:3"):
            parse_config_text(bad)

    def test_unknown_section_reports_line(self):
        with pytest.raises(ValidationError, match=r"<config>:1"):
            parse_config_text("[turbo]\nx = 1\n")

    def test_bad_number_reports_line(self):
        bad = "[solver]\nepsilon = fast\n"
        with pytest.raises(ValidationError, match=r"<config>:2"):
            parse_config_text(bad)

    def test_invariant_violation_attributed_to_file(self):
        bad = ("[solver]\nepsilon = 0.01\ncfl = 5.0\n")
        with pytest.raises(ValidationError, match="cfl"):
            parse_config_text(bad)

    def test_atoms_grammar(self):
        text = ("[density]\nfamily = diraccomb\n"
                "atoms = 0.5 1.0; 0.25 4.0\n")
        rc = parse_config_text(text)
        assert rc.density.atoms == ((0.5, 1.0), (0.25, 4.0))


class TestCli:
    def test_kernel_constants(self, capsys):
        rc = main(["kernel", "--family", "powerlaw", "--alpha", "1",
                   "--beta", "1", "--lambda", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["constants"]["l1"] == pytest.approx(1.0)
        assert out["constants"]["c_m1"] == pytest.approx(1.0)
        assert out["constants"]["c_p1"] == pytest.approx(2.0)
        assert out["constants"]["c_prime"] == pytest.approx(2 / math.e)
        assert all(out["conditions"][f"s{i}"] for i in range(1, 6))

    def test_kernel_validation_error_exit_2(self, capsys):
        rc = main(["kernel", "--family", "powerlaw", "--alpha", "1"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation-error"

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["kernel", "--bogus"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "validation-error"

    def test_quad_csv_roundtrip(self, tmp_path, capsys):
        csv_path = tmp_path / "nodes.csv"
        rc = main(["quad", "--family", "diraccomb",
                   "--atoms", "0.5 1.0; 0.25 4.0",
                   "--out-csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# cetlab")
        assert lines[1] == "mu,weight"
        assert [float(x) for x in lines[2].split(",")] == [1.0, 0.5]

    def test_bad_atom_number_exit_2(self, capsys):
        rc = main(["dispersion", "--family", "diraccomb", "--atoms", "a b"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation-error"
        assert "bad atom entry 'a b'" in err["message"]

    @pytest.mark.parametrize("good, bad", [
        ("n_nodes = 8", "n_nodes = abc"), ("n_nodes = 8", "n_nodes = 2.5"),
        ("n_r = 128", "n_r = inf"), ("cadence = 5", "cadence = 1e400")])
    def test_non_integer_count_exit_2(self, tmp_path, capsys, good, bad):
        text = GOOD.format(out=tmp_path / "out").replace(good, bad)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert main(["evolve", "--config", str(cfgfile)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation-error"
        assert "must be an integer" in err["message"]

    @pytest.mark.parametrize("good, bad", [
        ("t_final = 4.0", "t_final = inf"), ("sigma = 1.0", "sigma = nan"),
        ("epsilon = 0.01", "epsilon = nan"), ("tol = 1e-10", "tol = nan")])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, good, bad):
        text = GOOD.format(out=tmp_path / "out").replace(good, bad)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert main(["evolve", "--config", str(cfgfile)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation-error"
        assert "must be finite" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["memory-test", "--dt", "0"], ["memory-test", "--dt", "nan"],
        ["memory-test", "--xi", "nan"], ["memory-test", "--t-final", "inf"],
        ["memory-test", "--t-final", "1e9"],
        ["dispersion", "--k-grid", "a"], ["kernel", "--beta", "nan"],
        ["quad", "--tol", "nan"], ["kernel", "--beta", "1e6"],
        ["quad", "--beta", "300"]])
    def test_malformed_density_command_exit_2(self, capsys, argv):
        density = ["--family", "powerlaw", "--alpha", "1", "--beta", "1",
                   "--lambda", "1"]
        assert main(argv[:1] + density + argv[1:]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation-error"

    @pytest.mark.parametrize("argv", [
        ["scatter", "--config", "run.cfg", "--residual-times", "a"],
        ["selftest", "--only", "a"], ["selftest", "--only", ","],
        ["pheno", "--d-mpc", "nan", "--omega-hz", "1", "--alpha", "1",
         "--mstar", "1"]])
    def test_malformed_flag_exit_2(self, capsys, argv):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation-error"
        assert "argument --" in err["message"]

    def test_evolve_missing_config_exit_2(self, capsys):
        assert main(["evolve", "--config", "does-not-exist.cfg"]) == 2

    def test_evolve_and_determinism(self, tmp_path, capsys):
        outputs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            cfgfile = tmp_path / f"{sub}.cfg"
            cfgfile.write_text(GOOD.format(out=d))
            rc = main(["evolve", "--config", str(cfgfile)])
            assert rc == 0
            capsys.readouterr()
            outputs.append({
                "diag": (d / "diagnostics.csv").read_bytes(),
                "snap": (d / "snapshot_t4.csv").read_bytes(),
            })
        # identical physics content; headers differ only via the config
        # digest, which covers the output path, so strip header lines
        for key in ("diag", "snap"):
            a = outputs[0][key].split(b"\n", 1)[1]
            b = outputs[1][key].split(b"\n", 1)[1]
            assert a == b

    def test_evolve_same_file_byte_identical(self, tmp_path, capsys):
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(GOOD.format(out=d))
        blobs = []
        for _ in range(2):
            assert main(["evolve", "--config", str(cfgfile)]) == 0
            capsys.readouterr()
            blobs.append((d / "diagnostics.csv").read_bytes()
                         + (d / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_memory_test_verdicts(self, capsys):
        rc = main(["memory-test", "--family", "powerlaw", "--alpha", "1",
                   "--beta", "1", "--lambda", "1", "--n-nodes", "16",
                   "--t-final", "15"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["causal_before_source"] is True
        assert out["uniform_bound_holds"] is True

    def test_dispersion_json(self, capsys):
        rc = main(["dispersion", "--family", "diraccomb",
                   "--atoms", "1.0 1.0", "--k-grid", "1.0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_im"] <= 1e-8
        assert out["branch"][0]["omega"] == pytest.approx(1.272020, abs=1e-5)

    def test_pheno_json(self, capsys):
        rc = main(["pheno", "--d-mpc", "400", "--omega-hz", "100",
                   "--alpha", "1e-20", "--mstar", "1e-3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["memory_excess_ratio"] == pytest.approx(1e-26)

    def test_selftest_subset(self, capsys):
        rc = main(["selftest", "--only", "1,2,10"])
        captured = capsys.readouterr().out
        assert rc == 0
        assert captured.count("[PASS]") == 3
