"""Property test of the exit-code contract over malformed input.

`cli.main` must end every invocation with exit 0, 2 or 3, and every
nonzero exit must print a JSON object with an `error` code on stderr.
Values come from a fixed token set of small numbers, one huge finite
number, signs, non-finite words, garbage and empty strings, so no
generated command is heavy; run files also take the finite extremes
(+-1e300, +-1e-300, 5e-324, +-0.0).  `cetlab evolve` runs every
generated run file whose march is planned small (the plan is checked
first), and the scatter and selftest commands are left out.  A nonzero
exit must not come with a numpy `RuntimeWarning`, which a real process
would print on stderr (ahead of the JSON object on a nonzero exit), and
no error message may run to hundreds of characters.  A message that
starts with an error code and ": " must come with that code in the
`error` field, and `test_message_codes_match_their_class` checks the
same of every `raise` in the source.
"""

import ast
import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cetlab
from cetlab import errors
from cetlab.cli import main
from cetlab.config import parse_config_text
from cetlab.errors import CetlabError
from cetlab.radial import march_schedule

# every error class of the library by name, and every code they carry
ERROR_CLASSES = {name: cls for name, cls in vars(errors).items()
                 if isinstance(cls, type) and issubclass(cls, CetlabError)}
CODES = {cls.code for cls in ERROR_CLASSES.values()}

TOKENS = ("1", "0.5", "2", "3", "1e-6", "1e200", "0", "-1", "nan", "inf",
          "-inf", "abc", "", "1,2", "2,,0.5", "1 1", "0.5 1; 2 3", "1;")
DROP = None
DENSITIES = (
    {"--family": "powerlaw", "--alpha": "1", "--beta": "1", "--lambda": "1"},
    {"--family": "breitwigner", "--alpha": "1", "--gamma": "0.5",
     "--mu0": "1"},
    {"--family": "diraccomb", "--atoms": "0.5 1; 2 3"},
)
DENSITY_FLAGS = ("--family", "--alpha", "--beta", "--lambda", "--gamma",
                 "--mu0", "--atoms")
# a well-formed call per command; the tests replace or drop a few flags
COMMANDS = {
    "kernel": ({"--tol": "1e-8"}, DENSITY_FLAGS),
    "quad": ({"--n-nodes": "4", "--tol": "1e-8"}, DENSITY_FLAGS),
    "memory-test": ({"--n-nodes": "4", "--dt": "0.05", "--t-final": "3",
                     "--t-on": "1", "--xi": "0.5"}, DENSITY_FLAGS),
    "dispersion": ({"--k-grid": "0.5,1", "--tol": "1e-8"}, DENSITY_FLAGS),
    "pheno": ({"--d-mpc": "400", "--omega-hz": "100", "--alpha": "1e-20",
               "--mstar": "1e-3", "--l1": "1"}, ()),
}
CONFIG = {
    ("density", "family"): "powerlaw", ("density", "alpha"): "1",
    ("density", "beta"): "1", ("density", "lambda"): "1",
    ("quadrature", "n_nodes"): "4", ("quadrature", "tol"): "1e-10",
    ("solver", "n_r"): "64", ("solver", "cfl"): "0.5",
    ("solver", "t_final"): "2", ("solver", "epsilon"): "0.01",
    ("solver", "cadence"): "5", ("solver", "snapshot_times"): "1, 2",
    ("output", "directory"): "out", ("output", "formats"): "csv, json",
}
CONFIG_KEYS = tuple(sorted(CONFIG)) + (
    ("density", "gamma"), ("density", "mu0"), ("density", "atoms"),
    ("solver", "r_max"), ("solver", "a_null"), ("solver", "b_bad"),
    ("solver", "c_grad"), ("solver", "d_quad"), ("solver", "r_c"),
    ("solver", "sigma"), ("solver", "velocity_mode"), ("solver", "delta0"),
    ("solver", "bogus"))
# run-file values add the finite extremes: the largest and smallest
# magnitudes, the least subnormal and both zeros
CONFIG_WORDS = TOKENS + ("powerlaw", "breitwigner", "diraccomb",
                         "ingoing", "csv", "64", "1e300", "-1e300", "1e-300",
                         "-1e-300", "5e-324", "0.0", "-0.0")


def _call(cmd, density=0, **changed):
    """The well-formed call of `cmd` with some flags replaced."""
    base, density_flags = COMMANDS[cmd]
    flags = dict(base, **(DENSITIES[density] if density_flags else {}))
    flags.update({"--" + k.replace("_", "-"): v for k, v in changed.items()})
    return [cmd] + [x for item in flags.items() for x in item]


PROFILE = settings(max_examples=150, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])


def _mutations(keys, words):
    return st.dictionaries(st.sampled_from(keys),
                           st.sampled_from((DROP,) + words), max_size=3)


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(COMMANDS)))
    base, density_flags = COMMANDS[cmd]
    flags = dict(base)
    if density_flags:
        flags.update(draw(st.sampled_from(DENSITIES)))
    flags.update(draw(_mutations(tuple(base) + density_flags, TOKENS)))
    argv = [cmd]
    for flag, value in flags.items():
        if value is not DROP:
            argv += [flag, value]
    if draw(st.integers(0, 9)) == 9:
        argv.append(draw(st.sampled_from(("--bogus", "-x", "stray"))))
    return argv


def _lines(changed):
    """The run file's lines: CONFIG with `changed` (section, key) values
    replaced or, where DROP, left out."""
    lines, section = [], None
    for (sec, key), value in sorted({**CONFIG, **changed}.items()):
        if value is DROP:
            continue
        if sec != section:
            lines.append(f"[{sec}]")
            section = sec
        lines.append(f"{key} = {value}")
    return lines


@st.composite
def config_texts(draw):
    lines = _lines(draw(_mutations(CONFIG_KEYS, CONFIG_WORDS)))
    if draw(st.integers(0, 9)) == 9:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(("[turbo]", "junk", "x = 1", "["))))
    return "\n".join(lines) + "\n"


@PROFILE
@given(argv=argvs())
# finite inputs whose squares overflow double precision
@example(argv=_call("pheno", mstar="1e200"))
@example(argv=_call("memory-test", xi="1e200"))
# huge weights: the memory operator's FFT products must not overflow
# before its output does
@example(argv=_call("memory-test", alpha="1e200"))
@example(argv=_call("memory-test", density=2, atoms="1e306 0.01",
                    t_final="1000"))
@example(argv=_call("memory-test", dt="1e200", t_final="1e200"))
@example(argv=_call("dispersion", k_grid="1e300"))
@example(argv=_call("dispersion", density=1, mu0="1e200"))
# exit 0 with a symbol or density that overflows inside the computation
@example(argv=_call("dispersion", k_grid="1e154"))
@example(argv=_call("dispersion", alpha="1e200"))
@example(argv=_call("kernel", density=1, mu0="1e150"))
def test_cli_exit_codes_total(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        error = json.loads(err.getvalue())
        assert isinstance(error["error"], str)
        assert len(error["message"]) < 200
        prefix, sep, _ = error["message"].partition(": ")
        if sep and prefix in CODES:
            assert error["error"] == prefix
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.filterwarnings("ignore:beta = 0")
@settings(PROFILE, max_examples=400)
@given(text=config_texts())
# a [density] section without family, and a float key holding an integer
# too large for a float
@example(text="[density]\nalpha = 1\n")
@example(text="[solver]\ncfl = 0.5\n[density]\nbeta = 1\nlambda = 1\n")
@example(text="[solver]\nepsilon = 1" + "0" * 400 + "\n")
# an n_r past the double range: the grid spacing is no finite double
@example(text="[solver]\nepsilon = 0.01\nr_max = 100\nt_final = 10\n"
              "n_r = 1" + "0" * 400 + "\n")
# a grid past any host's memory: the parse allocates none of it (evolve
# refuses it with a coded error, tests/test_config_cli.py)
@example(text="[density]\nfamily = powerlaw\nalpha = 1\nbeta = 1\n"
              "lambda = 1\n[solver]\nepsilon = 0.01\nt_final = 10\n"
              "n_r = 1000000000000\n")
def test_config_errors_are_coded(text):
    try:
        rc = parse_config_text(text)
    except CetlabError as exc:
        assert exc.code
        assert ":0:" not in str(exc)   # no error is placed on a line 0
        return
    numbers = [rc.quad_tol, *rc.solver.get("snapshot_times", ())]
    numbers += [v for v in rc.solver.values() if isinstance(v, (int, float))]
    assert all(math.isfinite(v) for v in numbers)


# the largest march `test_config_runs_end_in_coded_exits` makes
MAX_STEPS, MAX_COLUMNS = 2000, 1025


def _config_text(**changed):
    """The well-formed run file with some solver or output values
    replaced."""
    return "\n".join(_lines({
        ("output" if key == "directory" else "solver", key): value
        for key, value in changed.items()})) + "\n"


@pytest.mark.filterwarnings("ignore:beta = 0")
@settings(PROFILE, max_examples=200)
@given(text=config_texts())
# a subnormal t_final: dt = t_final/2 underflows to 0
@example(text=_config_text(t_final="5e-324"))
# bumps too narrow for doubles: the profile's square, or its quotient,
# overflows
@example(text=_config_text(sigma="1e-300"))
@example(text=_config_text(sigma="5e-324", velocity_mode="ingoing"))
# an output directory that cannot be made
@example(text=_config_text(directory=""))
def test_config_runs_end_in_coded_exits(text):
    """`cetlab evolve` on a generated run file exits 0, 2 or 3, with a
    coded JSON error on a nonzero exit; a file whose plan is larger than
    MAX_STEPS steps on MAX_COLUMNS columns is not run."""
    try:
        rc = parse_config_text(text)
        if rc.density is not None and rc.model is not None:
            cfg, grid, _, snaps = rc.model
            n_steps = march_schedule(cfg, grid, snaps)[0]
            if n_steps > MAX_STEPS or grid.n_r + 1 > MAX_COLUMNS:
                return
    except CetlabError:
        pass                    # evolve stops at the same check
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        Path("run.cfg").write_text(text)
        code = main(["evolve", "--config", "run.cfg"])
    assert code in (0, 2, 3)
    if code:
        assert json.loads(err.getvalue())["error"] in CODES


def _leading_text(node):
    """The literal text a message expression starts with, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        return _leading_text(node.values[0])
    return None


def test_message_codes_match_their_class():
    """A `raise Error("code: ...")` whose literal message starts with an
    error code raises the class that carries that code, so the JSON
    `error` field and the message agree."""
    drift = []
    for path in sorted(Path(cetlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call) and node.exc.args):
                continue
            text = _leading_text(node.exc.args[0])
            prefix = (text or "").partition(":")[0]
            if prefix not in CODES:
                continue
            func = node.exc.func
            name = getattr(func, "id", getattr(func, "attr", None))
            cls = ERROR_CLASSES.get(name)
            if cls is None or cls.code != prefix:
                drift.append(f"{path.name}:{node.lineno}: {name} raises "
                             f"'{prefix}'")
    assert not drift
