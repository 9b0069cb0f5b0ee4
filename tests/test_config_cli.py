import json
import math

import numpy as np
import pytest

from cetlab import PowerLawExp, ValidationError, config
from cetlab.cli import _density_from_args, _dumps, build_parser, main, \
    write_json
from cetlab.config import FAMILIES, parse_config_text


def strict_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"nonstandard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)

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

    def test_density_without_family_reports_header_line(self):
        bad = "# densities\n\n[density]\nalpha = 1.0\nbeta = 1.0\n"
        with pytest.raises(ValidationError,
                           match=r"^<config>:3: \[density\] needs family$"):
            parse_config_text(bad)

    def test_solver_without_epsilon_reports_header_line(self):
        with pytest.raises(ValidationError,
                           match=r"^<config>:2: \[solver\] needs epsilon$"):
            parse_config_text("\n[solver]\ncfl = 0.5\n")

    def test_density_invariant_reports_family_line(self):
        bad = "[density]\nfamily = powerlaw\nalpha = 1\nbeta = -1\nlambda = 1\n"
        with pytest.raises(ValidationError, match=r"^<config>:2: .*beta >= 0"):
            parse_config_text(bad)

    def test_foreign_nonfinite_value_reports_line(self):
        bad = "[density]\nfamily = diraccomb\natoms = 1 1\nalpha = nan\n"
        with pytest.raises(ValidationError,
                           match=r"^<config>:4: alpha must be finite$"):
            parse_config_text(bad)

    def test_atoms_grammar(self):
        text = ("[density]\nfamily = diraccomb\n"
                "atoms = 0.5 1.0; 0.25 4.0\n")
        rc = parse_config_text(text)
        assert rc.density.atoms == ((0.5, 1.0), (0.25, 4.0))


# one density per family, as command-line flags and as [density] keys
FAMILY_VALUES = {
    "powerlaw": {"alpha": "0.5", "beta": "1.5", "lambda": "2"},
    "breitwigner": {"alpha": "1", "gamma": "0.1", "mu0": "1e0"},
    "diraccomb": {"atoms": "0.5 1; 0.25 4"},
}
# a parameter of another family, with a value that family would accept
FOREIGN = {"powerlaw": ("atoms", "garbage"), "breitwigner": ("beta", "1"),
           "diraccomb": ("alpha", "1")}


class TestGrammarParity:
    @staticmethod
    def from_flags(family, values):
        argv = ["kernel", "--family", family]
        for name, text in values.items():
            argv += [f"--{name}", text]
        return _density_from_args(build_parser().parse_args(argv))

    @staticmethod
    def from_config(family, values):
        text = "[density]\nfamily = " + family + "\n" + "".join(
            f"{name} = {v}\n" for name, v in values.items())
        return parse_config_text(text).density

    @pytest.mark.parametrize("family", sorted(FAMILY_VALUES))
    def test_flags_and_keys_build_equal_densities(self, family):
        assert set(FAMILY_VALUES[family]) == set(FAMILIES[family].params)
        values = FAMILY_VALUES[family]
        rho = self.from_flags(family, values)
        assert isinstance(rho, FAMILIES[family])
        assert rho == self.from_config(family, values)

    @pytest.mark.parametrize("family", sorted(FAMILY_VALUES))
    def test_missing_parameters_named_alike(self, family):
        names = FAMILIES[family].params
        # every parameter missing, then each one alone
        cases = [{}] + [{k: v for k, v in FAMILY_VALUES[family].items()
                         if k != name} for name in names]
        for values in cases:
            missing = [n for n in names if n not in values]
            with pytest.raises(ValidationError) as flag_err:
                self.from_flags(family, values)
            with pytest.raises(ValidationError) as key_err:
                self.from_config(family, values)
            message = f"{family} needs " + ", ".join(missing)
            assert str(flag_err.value) == message
            assert str(key_err.value) == "<config>:2: " + message

    @pytest.mark.parametrize("family", sorted(FOREIGN))
    def test_foreign_parameter_rejected_alike(self, family):
        name, text = FOREIGN[family]
        values = {name: text, **FAMILY_VALUES[family]}
        with pytest.raises(ValidationError) as flag_err:
            self.from_flags(family, values)
        with pytest.raises(ValidationError) as key_err:
            self.from_config(family, values)
        message = f"{family} does not take {name}"
        assert str(flag_err.value) == message
        # the foreign key is written first, on line 3
        assert str(key_err.value) == "<config>:3: " + message


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

    def test_evolve_without_solver_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(GOOD.format(out=tmp_path).split("[solver]")[0])
        assert main(["evolve", "--config", str(cfgfile)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"].endswith("[solver] section is required")

    def test_evolve_builds_quadrature_once(self, tmp_path, capsys,
                                           monkeypatch):
        calls = []
        build = config.build_quadrature
        monkeypatch.setattr(config, "build_quadrature",
                            lambda *args: calls.append(args) or build(*args))
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(GOOD.format(out=tmp_path / "out"))
        assert main(["evolve", "--config", str(cfgfile)]) == 0
        assert len(calls) == 1

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

    def test_evolve_summary_run_facts(self, tmp_path, capsys):
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(GOOD.format(out=d))
        assert main(["evolve", "--config", str(cfgfile)]) == 0
        printed = strict_loads(capsys.readouterr().out)
        summary = strict_loads((d / "summary.json").read_text())
        assert printed == {k: v for k, v in summary.items() if k != "_tool"}
        assert summary["n_modes"] == 8
        assert summary["dropped_nodes"] == 0
        assert summary["n_steps"] * summary["dt"] == pytest.approx(4.0)
        assert 0.0 < summary["stiffness_guard"] <= 2.5

    @pytest.mark.parametrize("n_r", [128, 512])
    def test_evolve_summary_column_steps(self, tmp_path, capsys, n_r):
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(GOOD.format(out=d).replace("n_r = 128",
                                                      f"n_r = {n_r}"))
        assert main(["evolve", "--config", str(cfgfile)]) == 0
        capsys.readouterr()
        summary = strict_loads((d / "summary.json").read_text())
        full = summary["n_steps"] * (n_r + 1)
        # the data reach r = 9 of r_max = 15: at n_r = 128 the window's
        # 64-column margin covers the grid, at 512 it starts narrower
        if n_r == 128:
            assert summary["column_steps"] == full
        else:
            assert 0 < summary["column_steps"] < full

    def test_evolve_writes_timings_apart(self, tmp_path, capsys):
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(GOOD.format(out=d))
        assert main(["evolve", "--config", str(cfgfile)]) == 0
        printed = strict_loads(capsys.readouterr().out)
        summary = strict_loads((d / "summary.json").read_text())
        timings = strict_loads((d / "timings.json").read_text())
        assert set(timings) == {"march_s", "diagnose_s", "rhs_evals",
                                "ns_per_value_step", "_tool"}
        assert not set(timings) & (set(summary) | set(printed)) - {"_tool"}
        assert timings["rhs_evals"] == 4 * summary["n_steps"]
        assert timings["march_s"] > 0.0 and timings["diagnose_s"] > 0.0
        value_steps = summary["column_steps"] * (summary["n_modes"] + 2)
        assert timings["ns_per_value_step"] == pytest.approx(
            1e9 * timings["march_s"] / value_steps, rel=1e-12)

    def test_evolve_summary_counts_dropped_nodes(self, tmp_path, capsys):
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(GOOD.format(out=d).replace("n_nodes = 8",
                                                      "n_nodes = 32"))
        blobs = []
        for _ in range(2):
            assert main(["evolve", "--config", str(cfgfile)]) == 0
            capsys.readouterr()
            blobs.append((d / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]
        summary = strict_loads(blobs[0].decode())
        assert (summary["n_modes"], summary["dropped_nodes"]) == (21, 11)

    def test_nonfinite_error_detail_is_strict_json(self, capsys):
        rc = main(["dispersion", "--family", "powerlaw", "--alpha", "1",
                   "--beta", "1", "--lambda", "1", "--k-grid", "1e300"])
        assert rc == 3
        err = strict_loads(capsys.readouterr().err)
        assert err["detail"]["achieved_error"] == "nan"

    def test_write_json_names_nonfinite_numbers(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(str(path), {"a": math.inf, "b": [-math.inf, np.nan],
                               "c": np.float64(np.inf), "d": 0.5}, "src")
        obj = strict_loads(path.read_text())
        assert (obj["a"], obj["b"], obj["c"], obj["d"]) == \
            ("inf", ["-inf", "nan"], "inf", 0.5)

    def test_finite_json_unchanged(self):
        def numpy_default(x):
            if isinstance(x, (np.floating, np.integer)):
                return x.item()
            if isinstance(x, np.ndarray):
                return x.tolist()
            raise TypeError(type(x))

        obj = {"f": np.float64(0.1), "g": 1 / 3, "i": np.int64(7),
               "t": (1, 2.5e-300), "a": np.linspace(0.0, 1.0, 7),
               "m": np.eye(2), "n": {"b": True, "s": "x", "z": None},
               "f32": np.float32(0.1), "e": []}
        for kw in ({}, {"sort_keys": True, "indent": 1}):
            assert _dumps(obj, **kw) == json.dumps(obj, default=numpy_default,
                                                   **kw)

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
