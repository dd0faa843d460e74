"""Classical dynamics of spinning particles with Zitterbewegung.

A library and CLI built around a higher-derivative Lagrangian family: exact
Minkowski spin-tensor algebra, the order-n free theory and its n=1 canonical
form, RK4 dynamics with conservation monitors, the non-relativistic
fourth-order force law with its generalized work-energy theorem and
barrier-crossing detector, a numerical Poisson-bracket engine, and
gamma-matrix operator identity checks.
"""

from .brackets import (
    BRACKET_ORIENTATION,
    PhaseFunction,
    bracket_rate,
    canonical_spin_function,
    coordinate,
    hamiltonian_function,
    poisson,
    verify_appendix,
)
from .dirac_check import (
    gamma_matrices,
    onshell_projector,
    proper_time_hamiltonian,
    spin_operator,
    verify_heisenberg,
    verify_onshell_zbw,
)
from .dynamics import (
    FreeSolution,
    IntegrationDiverged,
    MonitorReport,
    SpeedReport,
    Trajectory,
    check_superluminal,
    estimate_frequency,
    eval_free,
    integrate_free_general_n,
    integrate_hamilton,
    make_free_solution,
    mean_time_dilation,
    monitor,
    rk4_path,
    zero_crossings,
)
from .forms import FloatForm
from .lagrangian import (
    ModelParams,
    PhasePoint,
    Potential,
    ScalarPotential,
    canonical_momentum,
    characteristic_frequencies,
    hamiltonian,
    hamiltonian_rows,
    lagrangian_value,
    newton_law_residual,
    pi_momentum,
)
from .minkowski import (
    METRIC,
    AntisymTensor4,
    FourVector,
    boost_vector,
    dot,
    inner,
    lower,
    pauli_lubanski,
    pauli_lubanski_dual,
    spin_tensor_from_va,
    spin_vector,
    wedge,
)
from .nonrel import (
    BarrierInterval,
    EnergyBreakdown,
    KinState3D,
    Potential3D,
    Trajectory3D,
    barrier_report,
    energy_breakdown,
    integrate_newtonian,
    integrate_nr,
    nr_momentum,
    quantum_potential_analogue,
    work_integral,
    zbw_coefficient,
)

__version__ = "0.1.0"
