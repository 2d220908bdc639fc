"""Numerics for the free contraction norm.

Exact fractional free additive convolution powers of atomic spectral
measures (via subordination), the induced compression norm with its
closed-form estimates, a random-matrix Monte Carlo oracle, a random
quantum channel simulator, and the closed-form entropy additivity gap.
"""

from .additivity import (
    ScanGrid,
    ScanSummary,
    ViolationReport,
    gap_g,
    hastings_gap,
    phi_overlap,
    product_bound,
    scan_violation,
    simplex_bounds,
    taylor_lower_f,
)
from .errors import ConvergenceError, DomainError
from .freepower import (
    FreePowerResult,
    atoms_of_power,
    f_height,
    free_power,
    h_transform,
    power_cauchy_pair,
    power_voiculescu,
    support_hull,
)
from .measures import (
    AtomicMeasure,
    HermitianSpec,
    cauchy_pair,
    make_measure,
    moments,
    nevanlinna_rho,
    voiculescu_transform,
)
from .qchannel import (
    ChannelInstance,
    QuantumState,
    apply_channel,
    apply_complementary,
    apply_conjugate_channel,
    bell_output,
    binary_entropy,
    concentration_stat,
    entropy,
    hmin_estimate,
    random_channel,
    sample_output_spectra,
)
from .rmt import CompressionSample, compressed_spectrum, haar_columns, ks_distance
from .tnorm import (
    TNormReport,
    default_probes,
    kargin_bound,
    kkt_membership,
    lower_bound,
    superconvergence_asymptote,
    support_bounds,
    tnorm_exact,
    tnorm_report,
    upper_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "ChannelInstance",
    "CompressionSample",
    "ConvergenceError",
    "DomainError",
    "FreePowerResult",
    "HermitianSpec",
    "QuantumState",
    "ScanGrid",
    "ScanSummary",
    "TNormReport",
    "ViolationReport",
    "apply_channel",
    "apply_complementary",
    "apply_conjugate_channel",
    "atoms_of_power",
    "bell_output",
    "binary_entropy",
    "cauchy_pair",
    "compressed_spectrum",
    "concentration_stat",
    "default_probes",
    "entropy",
    "f_height",
    "free_power",
    "gap_g",
    "h_transform",
    "haar_columns",
    "hastings_gap",
    "hmin_estimate",
    "kargin_bound",
    "kkt_membership",
    "ks_distance",
    "lower_bound",
    "make_measure",
    "moments",
    "nevanlinna_rho",
    "phi_overlap",
    "power_cauchy_pair",
    "power_voiculescu",
    "product_bound",
    "random_channel",
    "sample_output_spectra",
    "scan_violation",
    "simplex_bounds",
    "superconvergence_asymptote",
    "support_bounds",
    "support_hull",
    "taylor_lower_f",
    "tnorm_exact",
    "tnorm_report",
    "upper_bound",
    "voiculescu_transform",
]
