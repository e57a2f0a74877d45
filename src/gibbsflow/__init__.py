"""gibbsflow: random Fourier fields on the torus, truncated Hamiltonian
PDE flows, and statistically verifiable measure experiments."""

from .rng import RandomSeed
from .spectral import TorusField
from .fields import GaussianFieldSpec, sample, shifted_sample, scaled_sample
from .measures import (
    DichotomyVerdict,
    GibbsSpec,
    cameron_martin_log_density,
    feldman_hajek_statistic,
    gibbs_ensemble,
    hellinger_mode,
    kakutani_power_law,
    kakutani_test,
)
from .integrators import EquationSpec, SolverConfig, evolve, gauge_check
from .experiments import (
    cameron_martin_experiment,
    invariance_experiment,
    ldp_mc,
    ldp_rate_infimum,
)

__version__ = "0.1.0"

__all__ = [
    "RandomSeed",
    "TorusField",
    "GaussianFieldSpec",
    "DichotomyVerdict",
    "GibbsSpec",
    "EquationSpec",
    "SolverConfig",
    "sample",
    "shifted_sample",
    "scaled_sample",
    "cameron_martin_log_density",
    "feldman_hajek_statistic",
    "gibbs_ensemble",
    "hellinger_mode",
    "kakutani_power_law",
    "kakutani_test",
    "evolve",
    "gauge_check",
    "cameron_martin_experiment",
    "invariance_experiment",
    "ldp_mc",
    "ldp_rate_infimum",
    "__version__",
]
