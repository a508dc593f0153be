"""Tools for the equation w_t = w_xx + 6 w^2 - lambda in complex time.

Equilibrium branches built from cosine series with certified truncation
tails, their linearized spectra and Morse indices, exact integer
resonance certificates, ETDRK4 evolution along complex time rays with
blow-up detection, the scalar polynomial ODE limit with its period
lattices, compactified phase portraits with planar-tree invariants, and
the traveling-wave dictionary.
"""

__version__ = "0.1.0"

from .elliptic import (
    BranchPoint,
    CosineSeries,
    branch_point,
    equilibrium_profile,
    h_of_lambda,
    homogeneous_equilibria,
    lambda_of_h,
    rescale,
    residual,
    theta_of_h,
)
from .errors import (
    BlowupSignal,
    ConvergenceError,
    DegenerateFieldError,
    DomainError,
    PoleSignal,
    TruncationError,
)
from .evolve import (
    NEUMANN_HALF,
    PERIODIC_UNIT,
    ComplexField,
    RayRun,
    analyticity_boundary,
    constant_field,
    cosine_field,
    detect_blowup,
    heteroclinic_shoot,
    monochromatic_field,
    schrodinger_evolve,
)
from .portraits import (
    ChordDiagram,
    DiskField,
    PlanarTree,
    chord_to_tree,
    compactify,
    count_portraits,
    enumerate_diagrams,
    trace_and_extract,
    tree_to_chord,
)
from .resonance import (
    ResonanceCertificate,
    fast_bound_check,
    fast_d_max,
    homogeneous_resonant_lambdas,
    identical_resonance_check,
    numeric_resonance_scan,
    pythagorean_worst_cases,
)
from .scalar_ode import (
    PeriodLattice,
    PolyField,
    classify_subgroup_closure,
    degeneracy_scan,
    integrate,
    period_lattice,
    quadratic_orbit,
    reversible_example_check,
)
from .spectrum import (
    SpectrumReport,
    assemble_operator,
    eigen,
    homogeneous_spectrum,
    morse_index_homogeneous,
    perturbation_mu,
)
from .waves import (
    C_CRITICAL,
    WaveParams,
    resonance_order,
    resonant_speeds,
    soliton,
    soliton_poles,
    wave_params,
)

__all__ = [name for name in dir() if not name.startswith("_")]
