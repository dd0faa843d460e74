import importlib

import pytest

import zitterkit

MODULES = ["brackets", "dirac_check", "dynamics", "forms", "lagrangian", "minkowski", "nonrel"]

# the names that the package exported when it kept its own list of them
LISTED = """
    AntisymTensor4 BRACKET_ORIENTATION BarrierInterval EnergyBreakdown FloatForm FourVector
    FreeSolution IntegrationDiverged KinState3D METRIC ModelParams MonitorReport PhasePoint
    Potential Potential3D ScalarPotential SpeedReport Trajectory barrier_report boost_vector
    bracket_rate canonical_momentum canonical_spin_function characteristic_frequencies
    check_superluminal coordinate dot energy_breakdown estimate_frequency eval_free
    gamma_matrices hamiltonian hamiltonian_function hamiltonian_rows inner
    integrate_free_general_n integrate_hamilton integrate_newtonian integrate_nr
    lagrangian_value lower make_free_solution mean_time_dilation monitor newton_law_residual
    nr_momentum onshell_projector pauli_lubanski pauli_lubanski_dual pi_momentum poisson
    proper_time_hamiltonian quantum_potential_analogue rk4_path spin_operator
    spin_tensor_from_va spin_vector verify_appendix verify_heisenberg verify_onshell_zbw wedge
    work_integral zbw_coefficient zero_crossings
""".split()


def test_the_names_the_package_listed_still_resolve():
    assert len(LISTED) == 64
    assert [name for name in LISTED if not hasattr(zitterkit, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_each_public_name_of_a_module_resolves_on_the_package(name):
    module = importlib.import_module(f"zitterkit.{name}")
    assert module.__all__
    for public in module.__all__:
        assert getattr(zitterkit, public) is getattr(module, public), public


def test_no_name_is_public_in_two_modules():
    names = [public for name in MODULES
             for public in importlib.import_module(f"zitterkit.{name}").__all__]
    assert len(names) == len(set(names))
