"""Numerical toolkit for ground-state overlaps of a magnetically perturbed
1D Fermi gas: flux profiles, exact spectra, generalized Toeplitz
determinants, decay-exponent fits, the Anderson-integral upper bound, and
the Dirichlet Hilbert-matrix reduction.
"""

from .errors import DomainError, NumericalError
from .potential import (
    FluxProfile,
    GaussianBump,
    MagneticPotential,
    PiecewiseLinear,
    flux_decomposition,
    flux_profile,
    full_line_delta,
    gaussian_bump_with_flux,
    moment_integrals,
    potential_from_dict,
    potential_from_json,
    table_samples,
    zero_potential,
)
from .spectrum import (
    BoundaryCondition,
    EigenSystem,
    GroundStateSpec,
    eigensystem,
    energy_difference,
    energy_difference_direct,
    finite_size_energy,
    ground_state_energy,
    occupied_indices,
)
from .matrixcore import LogDet, fh_matrix, log_det, operator_norm, trace_norm
from .overlap import (
    DeltaBoundCheck,
    GridPoint,
    OverlapResult,
    dirichlet_flux_closed_form,
    evaluate_point,
    flux_matrix,
    overlap_matrix,
    periodic_split_symbols,
)
from .asymptotics import (
    AndersonIntegral,
    ExponentFit,
    anderson_integral,
    digamma,
    fh_decay_series,
    fit_decay_exponent,
    polygamma,
    theorem_exponent,
    trigamma,
    upper_bound_check,
    upper_bound_exponent,
)
from .hilbert import (
    KPartNorms,
    block_reduction_check,
    dirichlet_flux_logdet,
    hilbert_section,
    hilbert_section_norm,
    k_matrix,
    k_part_norms,
    k_parts,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
