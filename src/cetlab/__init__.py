"""Causal retarded-memory wave laboratory.

A numpy/scipy library that represents a nonlocal memory operator as a
weighted superposition of massive retarded mode responses, evolves a
spherically symmetric wave system carrying that memory, and verifies
the operator's spectral, causal, and decay properties at desk scale.
"""

__version__ = "0.1.0"

from .averaging import (AveragingReport, atomic_no_decay_check,
                        averaged_symbol, decay_bound_check)
from .dispersion import (DispersionPoint, StabilityScan, mode_stability_scan,
                         one_atom_root, self_energy, solve_branch)
from .errors import (BlowUpError, CetlabError, NumericalError,
                     ValidationError)
from .pheno import (SignatureReport, ligo_bound, memory_excess_ratio,
                    phase_shift, pulsar_timing_bound, signature_report,
                    tail_amplitude, tail_crossing)
from .quadrature import MassQuadrature, build_quadrature, validate_moments
from .radial import (DiagnosticsRecord, FieldState, Grid, ModelConfig,
                     RunOutput, evolve, free_wave_exact, initialize,
                     padded_r_max)
from .resolvent import (BoundReport, CommutatorCheck, ModeParams, TimeSeries,
                        apply_memory, apply_memory2, commutator_residual,
                        duhamel_ratio, kg_retarded, mass_weighted_bound_check,
                        positivity_functional, scaling_derivative)
from .scattering import (DecayFit, MemoryLimitReport, decay_fit, memory_limit,
                         scattering_residual, scattering_residual_fit)
from .spectral import (BreitWigner, ConditionReport, DiracComb, PowerLawExp,
                       SpectralConstants, SpectralDensity, check_conditions,
                       spectral_constants)

__all__ = [name for name in dir() if not name.startswith("_")]
