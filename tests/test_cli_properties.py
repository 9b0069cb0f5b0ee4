"""Property test of the exit-code contract over malformed input.

`cli.main` must end every invocation with exit 0, 2 or 3, and every
nonzero exit must print a JSON object with an `error` code on stderr.
Values come from a fixed token set of small numbers, one huge finite
number, signs, non-finite words, garbage and empty strings, so no
generated run is heavy; the evolve, scatter and selftest commands are
left out for the same reason.  A nonzero exit must not come with a
numpy `RuntimeWarning`, which a real process would print on stderr
(ahead of the JSON object on a nonzero exit), and no error message may
run to hundreds of characters.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cetlab.cli import main
from cetlab.config import parse_config_text
from cetlab.errors import CetlabError

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
CONFIG_WORDS = TOKENS + ("powerlaw", "breitwigner", "diraccomb",
                         "ingoing", "csv", "64")


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


@st.composite
def config_texts(draw):
    values = dict(CONFIG)
    values.update(draw(_mutations(CONFIG_KEYS, CONFIG_WORDS)))
    lines, section = [], None
    for (sec, key), value in sorted(values.items()):
        if value is DROP:
            continue
        if sec != section:
            lines.append(f"[{sec}]")
            section = sec
        lines.append(f"{key} = {value}")
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
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.filterwarnings("ignore:beta = 0")
@settings(PROFILE, max_examples=400)
@given(text=config_texts())
# a [density] section without family, and a float key holding an integer
# too large for a float
@example(text="[density]\nalpha = 1\n")
@example(text="[solver]\ncfl = 0.5\n[density]\nbeta = 1\nlambda = 1\n")
@example(text="[solver]\nepsilon = 1" + "0" * 400 + "\n")
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
