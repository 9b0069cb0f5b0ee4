"""Observational-signature formulas driven by the spectral constants.

All formulas are linear or power laws in the total spectral mass l1, so
the checks are exact homogeneity identities plus bound inversions.
Unit handling is explicit: "natural" treats every quantity as already
dimensionless-consistent; "si" applies the c^3/G conversion with
constants hard-coded to six significant figures.

The headline phase-shift number quoted for a 400 Mpc / 100 Hz source is
not reproducible from the formula under any single standard unit choice
we identified; reports therefore carry the formula value and flag the
quoted-coefficient convention separately instead of matching it
silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError, ZeroFrequencyError

C_LIGHT = 2.99792e8        # m / s
G_NEWTON = 6.67430e-11     # m^3 / (kg s^2)
MPC_M = 3.08568e22         # m

# Coefficient delta_phi / (alpha M*^2) quoted for d = 400 Mpc at 100 Hz;
# kept only so the companion bound 0.1 / 6e24 = 1.7e-26 can be displayed
# next to our formula value.
QUOTED_PHASE_COEFF = 6e24

# the tail amplitude is reported for amplitude epsilon = 0.01, observed
# at radius 100 a time 100 after the pulse
_TAIL_EPSILON = 1e-2
_TAIL_RADIUS = 100.0
_TAIL_TIME = 100.0


def phase_shift(d: float, omega: float, l1: float,
                units: str = "natural") -> float:
    """Accumulated phase shift d * l1 / (2 omega), with SI conversion."""
    if omega == 0:
        raise ZeroFrequencyError("zero-frequency: phase shift undefined")
    if d <= 0 or l1 <= 0 or omega < 0:
        raise ValidationError("d, omega, l1 must be positive")
    if units == "natural":
        return d * l1 / (2.0 * omega)
    if units == "si":
        return d * l1 * C_LIGHT ** 3 / (2.0 * omega * G_NEWTON)
    raise ValidationError("units must be 'natural' or 'si'")


def ligo_bound(dphi_max: float, d: float, omega: float,
               units: str = "natural") -> float:
    """Largest l1 (= alpha M*^2) compatible with a phase accuracy."""
    if dphi_max <= 0:
        raise ValidationError("dphi_max must be positive")
    return dphi_max / phase_shift(d, omega, 1.0, units=units)


def _mass_squared(m_star: float) -> float:
    try:
        return m_star ** 2
    except OverflowError:
        raise ValidationError("m_star**2 overflows double precision") from None


def memory_excess_ratio(alpha: float, m_star: float) -> float:
    """Event-dependent memory excess relative to the standard effect."""
    if alpha <= 0 or m_star <= 0:
        raise ValidationError("alpha and m_star must be positive")
    return alpha * _mass_squared(m_star)


def pulsar_timing_bound(eta: float, m_star: float) -> float:
    """Upper bound on the infrared moment from timing sensitivity eta."""
    if eta <= 0 or m_star <= 0:
        raise ValidationError("eta and m_star must be positive")
    return eta / _mass_squared(m_star)


def tail_crossing(l1: float) -> float:
    """Time after which the slow memory tail dominates the standard one."""
    if l1 <= 0:
        raise ValidationError("l1 must be positive")
    return l1 ** (-1.0 / 6.0)


def tail_amplitude(l1: float, epsilon: float, r: float,
                   t_after: float) -> float:
    """Late tail amplitude l1 * eps^2 / (r * t) at time t after the burst."""
    if min(l1, r, t_after) <= 0 or epsilon < 0:
        raise ValidationError("l1, r, t_after must be positive")
    return l1 * epsilon ** 2 / (r * t_after)


@dataclass(frozen=True)
class SignatureReport:
    memory_excess_ratio: float
    phase_shift_natural: float
    phase_shift_si: float
    tail_crossing: float
    tail_amplitude_at: float
    quoted_coeff_note: str

    def as_dict(self) -> dict:
        return {"memory_excess_ratio": self.memory_excess_ratio,
                "phase_shift_natural": self.phase_shift_natural,
                "phase_shift_si": self.phase_shift_si,
                "tail_crossing": self.tail_crossing,
                "tail_amplitude_at": self.tail_amplitude_at,
                "quoted_coeff_note": self.quoted_coeff_note}


def signature_report(d_mpc: float, omega_hz: float, alpha: float,
                     m_star: float, l1: float | None = None) -> SignatureReport:
    """Evaluate every signature for one source configuration.

    With l1 omitted it defaults to alpha * m_star**2, the combination
    every signature scales with.
    """
    if l1 is None:
        l1 = memory_excess_ratio(alpha, m_star)
    d_m = d_mpc * MPC_M
    note = ("formula value; the quoted coefficient "
            f"{QUOTED_PHASE_COEFF:.1e} rad per unit alpha*M*^2 at "
            "400 Mpc / 100 Hz presumes an unstated unit convention and "
            "is reported separately, not matched")
    return SignatureReport(
        memory_excess_ratio=memory_excess_ratio(alpha, m_star),
        phase_shift_natural=phase_shift(d_mpc, omega_hz, l1, "natural"),
        phase_shift_si=phase_shift(d_m, omega_hz, l1, "si"),
        tail_crossing=tail_crossing(l1),
        tail_amplitude_at=tail_amplitude(l1, _TAIL_EPSILON, _TAIL_RADIUS,
                                         _TAIL_TIME),
        quoted_coeff_note=note)
