"""The input grammar shared by the run file and the command line.

`FAMILIES` maps each family name to its density class, which names its
parameters; `make_density` builds one, and `finite_float`, `float_list`
and `parse_atoms` read values.  `cetlab.cli` makes its density flags
from the same table, so both front ends accept the same densities and
word their errors alike.

Run file grammar (one statement per line):

    # comment                 blank lines and '#' comments are skipped
    [section]                 section header: density, quadrature,
                              solver, output
    key = value               number, word, comma list, or atom pairs

Values: `n_nodes`, `n_r` and `cadence` are integers, every other number
a finite float; `snapshot_times` is a (possibly empty) comma list of
them; `atoms` is a semicolon list of "alpha mu" pairs, e.g.
`atoms = 0.5 1.0; 0.25 4.0`; `formats` is a comma list of words.
Unknown sections or keys, and any violated model invariant, raise a
ValidationError carrying file and line.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, fields

from .errors import ValidationError
from .quadrature import DEFAULT_N_NODES, build_quadrature
from .radial import Grid, ModelConfig, evolve, padded_r_max
from .spectral import (DEFAULT_TOL, BreitWigner, DiracComb, PowerLawExp,
                       SpectralDensity)

_SECTIONS = ("density", "quadrature", "solver", "output")

FAMILIES = {cls.family: cls for cls in (PowerLawExp, BreitWigner, DiracComb)}
# every density parameter, in table order; `atoms` is the text of
# "alpha mu" pairs, every other one a finite float
DENSITY_PARAMS = tuple(dict.fromkeys(
    name for cls in FAMILIES.values() for name in cls.params))
_DENSITY_KEYS = {"family", *DENSITY_PARAMS}
_QUAD_KEYS = {"n_nodes", "tol"}
# every ModelConfig field that a run file can set, and the run's grid,
# record cadence and snapshot times
_SOLVER_KEYS = ({f.name for f in fields(ModelConfig)} - {"quad", "n2_override"}
                | {"r_max", "n_r", "cadence", "snapshot_times"})
_OUTPUT_KEYS = {"directory", "formats"}
_INTEGER_KEYS = {"n_nodes", "n_r", "cadence"}


@dataclass
class RunConfig:
    density: SpectralDensity | None
    n_nodes: int
    quad_tol: float
    solver: dict
    output_dir: str
    formats: tuple
    source_text: str = ""
    # build_model()'s result, kept by the parser; None without [solver]
    model: tuple | None = field(default=None, compare=False, repr=False)

    def build_model(self) -> tuple[ModelConfig, Grid, int, tuple]:
        quad = None
        if self.density is not None:
            quad = build_quadrature(self.density, self.n_nodes, self.quad_tol)
        s = dict(self.solver)
        n_r = int(s.pop("n_r", 1024))
        # a run file without a cadence records at evolve's own default
        cadence = int(s.pop("cadence", inspect.signature(
            evolve).parameters["cadence"].default))
        snapshot_times = tuple(s.pop("snapshot_times", ()))
        r_max = s.pop("r_max", None)
        cfg = ModelConfig(quad=quad, **s)
        if r_max is None:
            r_max = padded_r_max(cfg)
        grid = Grid(float(r_max), n_r)
        return cfg, grid, cadence, snapshot_times


def _err(path: str, line_no: int, msg: str) -> ValidationError:
    return ValidationError(f"{path}:{line_no}: {msg}")


def finite_float(text) -> float:
    """`text` as a finite float; the ValueError says what it must be."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError("must be a number") from None
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def float_list(text: str, item=finite_float) -> tuple:
    """The comma list `text` read entry by entry with `item`; blank
    entries are skipped, so a blank list is the empty tuple."""
    return tuple(item(x) for x in text.split(",") if x.strip())


def _number(path: str, line: int, key: str, raw: str):
    """Parse a numeric value; integer keys must be written as integers."""
    if key in _INTEGER_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise _err(path, line, f"{key} must be an integer") from None
    try:
        return finite_float(raw)
    except ValueError as exc:
        raise _err(path, line, f"{key} {exc}") from None


def parse_atoms(raw: str) -> tuple:
    """Parse atom pairs "alpha mu; alpha mu; ..." into float tuples."""
    pairs = []
    for chunk in raw.split(";"):
        try:
            alpha, mu = map(finite_float, chunk.replace(",", " ").split())
        except ValueError:
            raise ValidationError(f"bad atom entry '{chunk.strip()}'") from None
        pairs.append((alpha, mu))
    return tuple(pairs)


def make_density(family: str, values) -> SpectralDensity:
    """The `family` density from `values`, which maps parameter names to
    floats and `atoms` to its text.  A parameter that is absent or None
    is missing, and one error names every missing parameter.  A given
    parameter the family does not take is an error too; its `detail`
    names the parameter."""
    if family not in FAMILIES:
        raise ValidationError(f"unknown family '{family}'")
    cls = FAMILIES[family]
    for name in DENSITY_PARAMS:
        if name not in cls.params and values.get(name) is not None:
            raise ValidationError(f"{family} does not take {name}",
                                  parameter=name)
    missing = [name for name in cls.params if values.get(name) is None]
    if missing:
        raise ValidationError(f"{family} needs " + ", ".join(missing))
    return cls(*(parse_atoms(values[name]) if name == "atoms"
                 else values[name] for name in cls.params))


def parse_config_text(text: str, path: str = "<config>") -> RunConfig:
    sections: dict = {name: {} for name in _SECTIONS}
    lines_of: dict = {}
    section = None
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise _err(path, i, "unterminated section header")
            section = stripped[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise _err(path, i, f"unknown section [{section}]")
            lines_of[section] = i
            continue
        if "=" not in stripped:
            raise _err(path, i, "expected key = value")
        if section is None:
            raise _err(path, i, "key outside any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip().lower()
        allowed = {"density": _DENSITY_KEYS, "quadrature": _QUAD_KEYS,
                   "solver": _SOLVER_KEYS, "output": _OUTPUT_KEYS}[section]
        if key not in allowed:
            raise _err(path, i, f"unknown key '{key}' in [{section}]")
        sections[section][key] = raw.strip()
        lines_of[(section, key)] = i
    return _build(sections, lines_of, path, text)


def parse_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
    return parse_config_text(text, str(path))


def _density_from(sec: dict, lines: dict, path: str) -> SpectralDensity | None:
    if not sec:
        return None
    fam = sec.get("family")
    if fam is None:
        raise _err(path, lines["density"], "[density] needs family")
    names = FAMILIES[fam].params if fam in FAMILIES else ()
    values = {key: raw if key == "atoms"
              else _number(path, lines[("density", key)], key, raw)
              for key, raw in sec.items() if key != "family"}
    try:
        return make_density(fam, values)
    except ValidationError as exc:
        # the line of a foreign parameter, or of the atom list, a comb's
        # only value; else the family line
        key = exc.detail.get("parameter")
        if key is None and "atoms" in names:
            key = "atoms"
        line = lines.get(("density", key), lines[("density", "family")])
        raise _err(path, line, str(exc)) from None


def _build(sections, lines, path, text) -> RunConfig:
    density = _density_from(sections["density"], lines, path)
    quad = {key: _number(path, lines[("quadrature", key)], key, raw)
            for key, raw in sections["quadrature"].items()}
    n_nodes = quad.get("n_nodes", DEFAULT_N_NODES)
    quad_tol = quad.get("tol", DEFAULT_TOL)

    solver = {}
    s = sections["solver"]
    for key, raw in s.items():
        line = lines[("solver", key)]
        if key == "velocity_mode":
            solver[key] = raw
        elif key == "snapshot_times":
            try:
                solver[key] = float_list(raw)
            except ValueError:
                raise _err(path, line, "snapshot_times must be a comma list "
                                       "of finite numbers") from None
        else:
            solver[key] = _number(path, line, key, raw)
    if s and "epsilon" not in solver:
        raise _err(path, lines["solver"], "[solver] needs epsilon")

    out = sections["output"]
    out_dir = out.get("directory", "out")
    formats = tuple(x.strip() for x in out.get("formats", "csv, json").split(",")
                    if x.strip())
    for f in formats:
        if f not in ("csv", "json"):
            raise _err(path, lines[("output", "formats")],
                       f"unknown format '{f}'")
    # surface model invariants now, with the config path attached
    cfgobj = RunConfig(density, n_nodes, quad_tol, solver, out_dir, formats,
                       source_text=text)
    if solver:
        try:
            cfgobj.model = cfgobj.build_model()
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: invalid [solver] section: {exc}")
    return cfgobj
