"""Flat sectioned key=value run configuration.

Grammar (one statement per line):

    # comment                 blank lines and '#' comments are skipped
    [section]                 section header: density, quadrature,
                              solver, output
    key = value               scalar, word, comma list, or atom pairs

Values: floats and ints parse as numbers; `snapshot_times` is a comma
list of floats; `atoms` is a semicolon list of "alpha mu" pairs, e.g.
`atoms = 0.5 1.0; 0.25 4.0`; `formats` is a comma list of words.
Unknown sections or keys, and any violated model invariant, raise a
ValidationError carrying file and line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .quadrature import DEFAULT_N_NODES, build_quadrature
from .radial import Grid, ModelConfig, padded_r_max
from .spectral import BreitWigner, DiracComb, PowerLawExp, SpectralDensity

_SECTIONS = ("density", "quadrature", "solver", "output")

_DENSITY_KEYS = {"family", "alpha", "beta", "lambda", "gamma", "mu0", "atoms"}
_QUAD_KEYS = {"n_nodes", "tol"}
_SOLVER_KEYS = {"r_max", "n_r", "cfl", "t_final", "epsilon", "a_null",
                "b_bad", "c_grad", "d_quad", "r_c", "sigma", "velocity_mode",
                "delta0", "cadence", "snapshot_times"}
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

    def build_model(self) -> tuple[ModelConfig, Grid, int, tuple]:
        quad = None
        if self.density is not None:
            quad = build_quadrature(self.density, self.n_nodes, self.quad_tol)
        s = dict(self.solver)
        n_r = int(s.pop("n_r", 1024))
        cadence = int(s.pop("cadence", 10))
        snapshot_times = tuple(s.pop("snapshot_times", ()))
        r_max = s.pop("r_max", None)
        cfg = ModelConfig(quad=quad, **s)
        if r_max is None:
            r_max = padded_r_max(cfg)
        grid = Grid(float(r_max), n_r)
        return cfg, grid, cadence, snapshot_times


def _err(path: str, line_no: int, msg: str) -> ValidationError:
    return ValidationError(f"{path}:{line_no}: {msg}")


def _parse_scalar(raw: str):
    word = raw.strip()
    try:
        return int(word)
    except ValueError:
        pass
    try:
        return float(word)
    except ValueError:
        return word


def _number(path: str, line: int, key: str, raw: str):
    """Parse a numeric value; integer keys must be written as integers."""
    v = _parse_scalar(raw)
    if key in _INTEGER_KEYS:
        if not isinstance(v, int):
            raise _err(path, line, f"{key} must be an integer")
    elif not isinstance(v, (int, float)):
        raise _err(path, line, f"{key} must be a number")
    return v


def parse_atoms(raw: str) -> tuple:
    """Parse atom pairs "alpha mu; alpha mu; ..." into float tuples."""
    pairs = []
    for chunk in raw.split(";"):
        try:
            alpha, mu = map(float, chunk.replace(",", " ").split())
        except ValueError:
            raise ValidationError(f"bad atom entry '{chunk.strip()}'") from None
        pairs.append((alpha, mu))
    return tuple(pairs)


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
    line = lines.get(("density", "family"), 0)
    if fam is None:
        raise _err(path, 0, "[density] needs family")

    def num(key, default=None):
        if key not in sec:
            if default is None:
                raise _err(path, line, f"family {fam} needs {key}")
            return default
        return float(_number(path, lines[("density", key)], key, sec[key]))

    try:
        if fam == "powerlaw":
            return PowerLawExp(num("alpha"), num("beta"), num("lambda"))
        if fam == "breitwigner":
            return BreitWigner(num("alpha"), num("gamma"), num("mu0"))
        if fam == "diraccomb":
            raw = sec.get("atoms")
            if raw is None:
                raise _err(path, line, "diraccomb needs atoms")
            try:
                pairs = parse_atoms(raw)
            except ValidationError as exc:
                raise _err(path, lines[("density", "atoms")], str(exc)) from None
            return DiracComb(pairs)
    except ValidationError:
        raise
    except ValueError as exc:
        raise _err(path, line, str(exc))
    raise _err(path, line, f"unknown family '{fam}'")


def _build(sections, lines, path, text) -> RunConfig:
    density = _density_from(sections["density"], lines, path)
    quad = {key: _number(path, lines[("quadrature", key)], key, raw)
            for key, raw in sections["quadrature"].items()}
    n_nodes = quad.get("n_nodes", DEFAULT_N_NODES)
    quad_tol = float(quad.get("tol", 1e-10))

    solver = {}
    s = sections["solver"]
    for key, raw in s.items():
        line = lines[("solver", key)]
        if key == "velocity_mode":
            solver[key] = raw
        elif key == "snapshot_times":
            try:
                solver[key] = tuple(float(x) for x in raw.split(",") if x.strip())
            except ValueError:
                raise _err(path, line, "snapshot_times must be a comma list "
                                       "of numbers")
        else:
            solver[key] = _number(path, line, key, raw)
    if s and "epsilon" not in solver:
        raise ValidationError(f"{path}: [solver] needs epsilon")

    out = sections["output"]
    out_dir = out.get("directory", "out")
    formats = tuple(x.strip() for x in out.get("formats", "csv, json").split(",")
                    if x.strip())
    for f in formats:
        if f not in ("csv", "json"):
            raise _err(path, lines.get(("output", "formats"), 0),
                       f"unknown format '{f}'")
    # surface model invariants now, with the config path attached
    cfgobj = RunConfig(density, n_nodes, quad_tol, solver, out_dir, formats,
                       source_text=text)
    if solver:
        try:
            cfgobj.build_model()
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: invalid [solver] section: {exc}")
    return cfgobj
