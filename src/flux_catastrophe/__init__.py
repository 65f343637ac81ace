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
from .matrixcore import (
    BasisSpec,
    LogDet,
    SymbolKind,
    SymbolMatrix,
    assemble_toeplitz,
    fh_matrix,
    log_det,
    operator_norm,
    toeplitz_property_checks,
    trace_norm,
)
from .overlap import (
    DeltaBoundCheck,
    GridPoint,
    OverlapResult,
    delta_matrix_bound_check,
    dirichlet_flux_closed_form,
    evaluate_point,
    flux_matrix,
    lemma_factorization_check,
    overlap_at,
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
    HilbertMatrix,
    KMatrix,
    KPartNorms,
    block_reduction_check,
    dirichlet_flux_logdet,
    hilbert_section,
    hilbert_section_norm,
    k_matrix,
    k_part_norms,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
