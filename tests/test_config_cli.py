import dataclasses
import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest

from cetlab import PowerLawExp, ValidationError, cli, config, evolve, radial
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

# a run of one memory mode that only F drives; the tests fill in the
# solver values they vary
ONE_ATOM_RUN = """
[density]
family = diraccomb
atoms = 0.1 1.0

[solver]
r_max = {r_max}
n_r = 256
cfl = {cfl}
t_final = {t_final}
epsilon = {epsilon}
a_null = 0
b_bad = {b_bad}
c_grad = 0
d_quad = 0

[output]
directory = {out}
formats = csv, json
"""

# powerlaw 1 1 1 on 10^12 + 1 columns: a run past any host's memory
HUGE_RUN = """
[density]
family = powerlaw
alpha = 1
beta = 1
lambda = 1

[solver]
epsilon = 0.01
t_final = 10
n_r = 1000000000000

[output]
directory = {out}
"""

# a Breit-Wigner line too narrow for its rule's nodes to stay apart
NARROW_LINE_RUN = """
[density]
family = breitwigner
alpha = 1
gamma = 1e-300
mu0 = 1

[solver]
epsilon = 0.01
t_final = 10

[output]
directory = {out}
"""
# a quadrature tol outside (0, 1e-4]
WIDE_TOL_RUN = """
[density]
family = breitwigner
alpha = 1
gamma = 1
mu0 = 2

[quadrature]
tol = 10

[solver]
epsilon = 0.01
t_final = 10

[output]
directory = {out}
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

    def test_cadence_defaults_to_evolve_own(self, monkeypatch):
        # the run file's default is read from evolve's signature, not kept
        # as a second literal
        rc = parse_config_text("[solver]\nepsilon = 0.01\n")
        assert rc.model[2] == 10
        monkeypatch.setattr(evolve, "__defaults__", (7, ()))
        assert parse_config_text("[solver]\nepsilon = 0.01\n").model[2] == 7

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


PL_111 = ("--family", "powerlaw", "--alpha", "1", "--beta", "1",
          "--lambda", "1")
TWO_ATOMS = ("--family", "diraccomb", "--atoms", "0.5 1.0; 0.25 4.0")


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

    def test_avg_decay_csv_bytes_pinned(self, tmp_path, capsys):
        # the file as the row-by-row loop wrote it, t-major, byte for byte
        csv_path = tmp_path / "decay.csv"
        rc = main(["avg-decay", "--family", "powerlaw", "--alpha", "1",
                   "--beta", "1", "--lambda", "1", "--out-csv", str(csv_path)])
        assert rc == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "03664a0aee07fb175af6cd8ed88c0f91a603300bfabd4e2dc1a8d8505083459d")

    @pytest.mark.filterwarnings("ignore:beta = 0")
    @pytest.mark.parametrize("argv, digest", [
        (["kernel", *PL_111],
         "e28ac3190f6d639961762f4199f59355426aa12f5f28e8b4f4030ce22c8d0be3"),
        (["kernel", "--family", "powerlaw", "--alpha", "1", "--beta", "0",
          "--lambda", "1"],
         "f62579a96c9e976ff2a035312a5814d9431fb2bc17e3c6e44e7ac8a6349d7603"),
        (["kernel", "--family", "breitwigner", "--alpha", "1", "--gamma",
          "0.1", "--mu0", "1"],
         "0b7a7376770cb6850816a4bbd32195af71a60c34b0cb6260d081e2da39607781"),
        (["kernel", *TWO_ATOMS],
         "5dd28b83bd5455a68e78a6421ec845cfae18a926c2bd28ca10a908a4ce982cbf"),
        (["pheno", "--d-mpc", "400", "--omega-hz", "100", "--alpha", "1",
          "--mstar", "1"],
         "a1bb0e367e8dabf2c143fb40ba9c3c2e1a7e2c4c9d1a9acd4efa170b021535d4"),
        (["avg-decay", *PL_111],
         "144456d90a4f4d29d985932e71c9bb075c035765ee0d9238f00509252871940e"),
        (["dispersion", *TWO_ATOMS],
         "756c0ecacd9805967c11774ccc611d0b633ff80b1c2d257be62a7329876b0df0"),
    ])
    def test_stdout_bytes_pinned(self, capsys, argv, digest):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, flag, digest", [
        (["dispersion", *TWO_ATOMS], "--out-csv",
         "72d036ef4376c38db72f0c8436223088ee9ad12c7dd7fd416d5bdbe11d14b867"),
        (["quad", *PL_111], "--out-json",
         "f3a31db66aef35c4c1e0cc900e2197c5919c482ba588ef2544de44af095f7ca9"),
    ])
    def test_written_bytes_pinned(self, tmp_path, capsys, argv, flag,
                                  digest):
        path = tmp_path / "out"
        assert main([*argv, flag, str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

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
        assert set(timings) == {"init_s", "march_s", "diagnose_s",
                                "rhs_evals", "ns_per_value_step",
                                "us_per_step", "output_s", "_tool"}
        assert not set(timings) & (set(summary) | set(printed)) - {"_tool"}
        assert timings["rhs_evals"] == 4 * summary["n_steps"]
        assert timings["us_per_step"] > 0.0
        assert timings["us_per_step"] == pytest.approx(
            1e6 * timings["march_s"] / summary["n_steps"], rel=1e-12)
        assert timings["march_s"] > 0.0 and timings["diagnose_s"] > 0.0
        assert timings["init_s"] > 0.0 and timings["output_s"] > 0.0
        value_steps = summary["column_steps"] * (summary["n_modes"] + 2)
        assert timings["ns_per_value_step"] == pytest.approx(
            1e9 * timings["march_s"] / value_steps, rel=1e-12)

    def test_free_run_timings_count_its_one_row(self, tmp_path, capsys,
                                                monkeypatch):
        # a run file always names a density, so the run drops its rule
        # and couplings here: a stack without memory modes marches the V
        # row alone, and ns_per_value_step divides by that one row
        runs = []

        def free_evolve(cfg, grid, **kw):
            cfg = dataclasses.replace(cfg, quad=None, a_null=0.0,
                                      c_grad=0.0, d_quad=0.0)
            runs.append(evolve(cfg, grid, **kw))
            return runs[-1]

        monkeypatch.setattr(cli, "evolve", free_evolve)
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(GOOD.format(out=d))
        assert main(["evolve", "--config", str(cfgfile)]) == 0
        capsys.readouterr()
        summary = strict_loads((d / "summary.json").read_text())
        timings = strict_loads((d / "timings.json").read_text())
        (out,) = runs
        assert out.rows == 1 and out.column_steps == summary["column_steps"]
        assert timings["ns_per_value_step"] == pytest.approx(
            1e9 * timings["march_s"] / summary["column_steps"], rel=1e-12)

    def test_scatter_writes_timings_apart(self, tmp_path, capsys):
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(GOOD.format(out=d)
                           .replace("cadence = 5", "cadence = 1")
                           .replace("= 2.0, 4.0", "= 1.0, 2.0, 4.0"))
        assert main(["scatter", "--config", str(cfgfile),
                     "--residual-times", "1,2", "--fit-lo", "1"]) == 0
        printed = strict_loads(capsys.readouterr().out)
        result = strict_loads((d / "scatter.json").read_text())
        timings = strict_loads((d / "timings.json").read_text())
        assert "scattering_residual_fit" in printed
        # the M_inf average spans the records of the final tenth
        window = result["m_inf_window"]
        assert window == printed["m_inf_window"]
        assert 0.9 * window["t_last"] <= window["t_first"] < window["t_last"]
        assert window["t_last"] == pytest.approx(4.0, abs=1e-9)
        assert window["n_profiles"] >= 2
        assert set(timings) == {"init_s", "march_s", "diagnose_s",
                                "rhs_evals", "ns_per_value_step",
                                "us_per_step", "analysis_s", "output_s",
                                "_tool"}
        assert not set(timings) & (set(result) | set(printed)) - {"_tool"}
        assert min(timings[k] for k in ("init_s", "march_s", "diagnose_s",
                                        "ns_per_value_step", "us_per_step",
                                        "analysis_s", "output_s")) > 0.0
        assert timings["rhs_evals"] % 4 == 0 and timings["rhs_evals"] > 0

    @pytest.mark.parametrize("times", ["2", "2,2", "2,3", "3"])
    def test_scatter_one_base_time_exit_2(self, tmp_path, capsys, times):
        # snapshots at 2 and 4: base times given on the command line
        # with fewer than two usable ones make no fit
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(GOOD.format(out=d).replace("cadence = 5",
                                                      "cadence = 1"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scatter", "--config", str(cfgfile),
                         "--residual-times", times, "--fit-lo", "1"]) == 2
        captured = capsys.readouterr()
        err = strict_loads(captured.err)
        assert err["error"] == "insufficient-samples"
        assert "Warning" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("times", ["2", "2,3", "3,6"])
    def test_scatter_bad_base_times_exit_before_the_march(
            self, tmp_path, capsys, monkeypatch, times):
        # the usable base times follow from the snapshot times and dt, so
        # a fit that cannot be made is refused before any step
        def no_march(*args, **kwargs):
            raise AssertionError("evolve ran before the base-time check")

        monkeypatch.setattr("cetlab.cli.evolve", no_march)
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(GOOD.format(out=d))
        assert main(["scatter", "--config", str(cfgfile),
                     "--residual-times", times]) == 2
        captured = capsys.readouterr()
        assert strict_loads(captured.err)["error"] == "insufficient-samples"
        assert captured.out == "" and not d.exists()

    @pytest.mark.parametrize("snaps, fitted", [
        ("100.0", False), ("50.0, 100.0", False),
        ("25.0, 50.0, 100.0", True)])
    def test_scatter_default_times_fit_only_with_two(self, tmp_path, capsys,
                                                     snaps, fitted):
        # the default base times 25, 50, 100 give the fit only where the
        # run holds t and 2t for two of them; otherwise it is left out
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(GOOD.format(out=d)
                           .replace("n_r = 128", "n_r = 512")
                           .replace("t_final = 4.0", "t_final = 100.0")
                           .replace("= 2.0, 4.0", "= " + snaps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scatter", "--config", str(cfgfile)]) == 0
        captured = capsys.readouterr()
        printed = strict_loads(captured.out)
        result = strict_loads((d / "scatter.json").read_text())
        assert ("scattering_residual_fit" in printed) == fitted
        assert ("scattering_residual_fit" in result) == fitted
        assert captured.err == ""

    @pytest.mark.parametrize("cfl, code, command", [
        ("0.8", 0, "evolve"), ("0.9", 2, "evolve"), ("0.9", 2, "scatter")],
        ids=["0.8-0", "0.9-2", "0.9-2-scatter"])
    def test_stiffness_guard_checked_at_the_run_dt(self, tmp_path, capsys,
                                                   cfl, code, command):
        # dr = 21/256: a step of cfl*dr would have the guard 2.51 at cfl
        # 0.8, but the run steps 16 times by 0.0625 (guard 2.39); at cfl
        # 0.9 it steps 14 times by 1/14, and that guard is over 2.5
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(ONE_ATOM_RUN.format(
            out=d, cfl=cfl, epsilon="0.01", b_bad="0", r_max="21",
            t_final="1"))
        assert main([command, "--config", str(cfgfile)]) == code
        captured = capsys.readouterr()
        if code == 0:
            summary = strict_loads(captured.out)
            assert (summary["n_steps"], summary["dt"]) == (16, 0.0625)
            assert summary["stiffness_guard"] == pytest.approx(2.3944,
                                                               abs=1e-4)
        else:
            cfg, grid, _, _ = config.parse_config(str(cfgfile)).model
            guard = cfg.stiffness_guard(grid, 1.0 / 14)
            err = strict_loads(captured.err)
            assert err["error"] == "stiffness-guard-violated"
            assert err["message"] == (f"{cfgfile}: stiffness-guard-violated: "
                                      "dt*sqrt(mu_max + (pi/dr)^2) = "
                                      f"{guard!r} > 2.5")

    @pytest.mark.parametrize("command", ["evolve", "scatter"])
    def test_padding_violation_names_the_run_file(self, tmp_path, capsys,
                                                  command):
        # padded_r_max = r_c + 4 sigma + t_final + 2 = 31 > r_max = 21;
        # both commands check it after the parse, and the error names
        # the file
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(ONE_ATOM_RUN.format(
            out=tmp_path / "out", cfl="0.5", epsilon="0.01", b_bad="0",
            r_max="21", t_final="20"))
        assert main([command, "--config", str(cfgfile)]) == 2
        err = strict_loads(capsys.readouterr().err)
        assert err["error"] == "padding-violated"
        assert err["message"] == (f"{cfgfile}: padding-violated: "
                                  "need r_max >= 31, got 21")

    @pytest.mark.parametrize("command", ["evolve", "scatter"])
    def test_padding_checked_before_the_step_count(self, tmp_path, capsys,
                                                   command):
        # t_final/(2 cfl dr) = 1e311 overflows a float, but the padding
        # fails first: a coded error, not a traceback
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(ONE_ATOM_RUN.format(
            out=d, cfl="0.5", epsilon="0.01", b_bad="0", r_max="1",
            t_final="1e305").replace("n_r = 256", "n_r = 1000000"))
        assert main([command, "--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        err = strict_loads(captured.err)
        assert err["error"] == "padding-violated"
        assert err["message"] == (f"{cfgfile}: padding-violated: "
                                  "need r_max >= 1e+305, got 1")
        assert captured.out == "" and not d.exists()

    @pytest.mark.parametrize("cfl, n_r, steps", [
        ("1e-300", 10 ** 12, "inf"),        # t_final/(2 cfl dr) overflows
        ("1e-200", 2 * 10 ** 125, "inf"),   # 2 cfl dr underflows to 0
    ], ids=["overflow", "underflow"])
    @pytest.mark.parametrize("command", ["evolve", "scatter"])
    def test_step_count_checked_before_the_march(self, tmp_path, capsys,
                                                 command, cfl, n_r, steps):
        # padded runs whose step count is no finite number: a coded
        # error naming the file, before any stack is allocated
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(ONE_ATOM_RUN.format(
            out=d, cfl=cfl, epsilon="0.01", b_bad="0", r_max="21",
            t_final="10").replace("n_r = 256", f"n_r = {n_r}"))
        assert main([command, "--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        err = strict_loads(captured.err)
        assert err["error"] == "validation-error"
        assert err["message"] == (f"{cfgfile}: t_final/(2*cfl*dr) = {steps} "
                                  "is no finite step count")
        assert captured.out == "" and not d.exists()

    @pytest.mark.parametrize("command", ["evolve", "scatter"])
    def test_run_larger_than_the_host_refused(self, tmp_path, capsys,
                                              command):
        # n_r = 10^12 plans 952380952382 steps and 8 TB a stack: refused
        # with the bytes it needs and the host's, before any array
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(HUGE_RUN.format(out=d))
        assert main([command, "--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        err = strict_loads(captured.err)
        assert err["error"] == "validation-error"
        cfg, grid, cadence, _ = config.parse_config(str(cfgfile)).model
        n_steps = radial.march_schedule(cfg, grid)[0]
        records = n_steps // cadence + 1 + (n_steps % cadence > 0)
        rows = 8 * radial.stack_rows(cfg) + 10 + 3 + records
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert n_steps == 952380952382
        assert err["message"] == (
            f"{cfgfile}: {n_steps} steps on {10 ** 12 + 1} columns need "
            f"{8 * rows * (10 ** 12 + 1)} bytes up front; the host has "
            f"{have}")
        assert captured.out == "" and not d.exists()

    @pytest.mark.parametrize("command", ["evolve", "scatter"])
    def test_numerical_error_at_the_parse_names_the_run_file(
            self, tmp_path, capsys, command):
        # gamma = 1e-300 squeezes the Breit-Wigner rule's nodes onto mu0:
        # the rule's own error, exit 3, naming the file
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(NARROW_LINE_RUN.format(out=d))
        assert main([command, "--config", str(cfgfile)]) == 3
        captured = capsys.readouterr()
        err = strict_loads(captured.err)
        assert err["error"] == "quadrature-construction-failed"
        assert err["message"] == (f"{cfgfile}: quadrature-construction-"
                                  "failed: nodes not positive ascending")
        assert captured.out == "" and not d.exists()

    @pytest.mark.parametrize("command", ["evolve", "scatter"])
    def test_quadrature_tol_out_of_range_refused(self, tmp_path, capsys,
                                                 command):
        # tol = 10 lies outside (0, 1e-4]: refused before the rule is
        # built, not clamped into range
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(WIDE_TOL_RUN.format(out=d))
        assert main([command, "--config", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        err = strict_loads(captured.err)
        assert err["error"] == "validation-error"
        assert err["message"] == f"{cfgfile}: tol must lie in (0, 1e-4]"
        assert captured.out == "" and not d.exists()

    @pytest.mark.parametrize("command", ["evolve", "scatter"])
    def test_grid_spacing_refused_at_the_parse(self, tmp_path, capsys,
                                               command):
        # r_max/n_r with n_r = 10^400 is no double: the parse refuses
        # it, before any schedule
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(ONE_ATOM_RUN.format(
            out=tmp_path / "out", cfl="0.5", epsilon="0.01", b_bad="0",
            r_max="100", t_final="10").replace("n_r = 256",
                                               "n_r = 1" + "0" * 400))
        assert main([command, "--config", str(cfgfile)]) == 2
        err = strict_loads(capsys.readouterr().err)
        assert err["error"] == "validation-error"
        assert err["message"] == (f"{cfgfile}: r_max/n_r must be a positive "
                                  "finite grid spacing")

    @pytest.mark.parametrize("command", ["evolve", "scatter"])
    def test_blow_up_exit_3(self, tmp_path, capsys, command):
        # F = 8 u_t^2 at unit amplitude blows up before t_final; evolve
        # writes the partial run and prints its summary, scatter makes
        # no analysis; both end in exit 3 with the summary as detail
        d = tmp_path / "out"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(ONE_ATOM_RUN.format(
            out=d, cfl="0.5", epsilon="1", b_bad="8", r_max="23",
            t_final="12"))
        assert main([command, "--config", str(cfgfile)]) == 3
        captured = capsys.readouterr()
        err = strict_loads(captured.err)
        assert err["error"] == "blow-up-detected"
        assert err["message"].startswith("blow-up-detected: ")
        detail = err["detail"]
        assert detail["completed"] is False
        assert 0.0 < detail["blow_up_time"] < 12.0
        assert "blow_up_radius" in detail
        assert (d / "timings.json").exists()
        assert not (d / "scatter.json").exists()
        assert not (d / "m_inf_profile.csv").exists()
        if command == "evolve":
            assert strict_loads(captured.out) == detail
            summary = strict_loads((d / "summary.json").read_text())
            assert {k: v for k, v in summary.items() if k != "_tool"} \
                == detail
        else:
            assert captured.out == ""
            assert not (d / "summary.json").exists()

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

    def test_memory_test_bound_below_unit_frequency(self, capsys):
        # omega = sqrt(0.01 + 0.25) < 1: the mode's Duhamel bound
        # ||f||_1 / omega lies above l1 * ||f||_1, which the sup exceeds
        rc = main(["memory-test", "--family", "diraccomb", "--atoms",
                   "1 0.01", "--xi", "0.5", "--dt", "0.05", "--t-final",
                   "1000", "--t-on", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        l1_f = math.sqrt(math.pi)       # the unit Gaussian bump, to 2e-5
        assert out["uniform_bound"] == pytest.approx(l1_f / math.sqrt(0.26),
                                                     rel=1e-4)
        assert l1_f < out["sup_kf"] < out["uniform_bound"]
        assert out["uniform_bound_holds"] is True

    def test_memory_test_bound_of_zero_source(self, capsys):
        # w / omega = 1e308 / 0.1 overflows, but a zero source's bound is
        # 0, not inf * 0
        rc = main(["memory-test", "--family", "diraccomb", "--atoms",
                   "1e308 0.01", "--xi", "0", "--t-on", "5", "--t-final",
                   "3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sup_kf"] == 0.0 and out["uniform_bound"] == 0.0
        assert out["uniform_bound_holds"] is True

    def test_dispersion_json(self, capsys):
        rc = main(["dispersion", "--family", "diraccomb",
                   "--atoms", "1.0 1.0", "--k-grid", "1.0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_im"] <= 1e-8
        assert out["branch"][0]["omega"] == pytest.approx(1.272020, abs=1e-5)
        # the scan's tally per k: both real branches, the two printed
        # continuation artifacts, no failed seed
        assert out["scan_counts"] == [{"k": 1.0, "roots": 2, "rejected": 2,
                                       "unconverged": 0}]

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

    def test_selftest_json(self, capsys):
        rc = main(["selftest", "--only", "3", "--json"])
        captured = capsys.readouterr()
        assert rc == 0
        doc = strict_loads(captured.out)
        assert (doc["passed"], doc["total"]) == (1, 1)
        [res] = doc["criteria"]
        assert set(res) == {"cid", "title", "passed", "runtime_s", "details"}
        assert res["cid"] == 3 and res["passed"] is True
        assert res["runtime_s"] > 0.0 and res["details"]
        assert "[PASS] criterion  3" in captured.err
