"""Metropolis-Hastings jump processes: exact-thinning simulation of the
classical and accelerated dynamics and their mixtures, a reference
integrator for the common diffusion limit, the finite-state minimal-distance
geometry of the generator family, and the numerical verification harness."""

__version__ = "0.3.0"

from .errors import ConfigurationError, DominationError, QuadratureError
from .targets import (
    BoxedQuadratic,
    GaussianProposal,
    LogCoshWell,
    SeparableTargetPotential,
    SmoothedDoubleWell,
    TargetPotential,
    make_potential,
)
from .kernels import GeneratorKind
from .jump import (
    JumpPath,
    ObservedEnsemble,
    first_jump_displacements,
    path_stream,
    simulate_ensemble,
    simulate_path,
)
from .langevin import em_step, ou_exact_marginal, simulate_langevin
from .finite import (
    FiniteChain,
    d_mu,
    half_space_masses,
    load_chain,
    make_m1,
    make_m2,
    mix,
    random_chain,
    random_reversible,
    save_chain,
)
from .verify import (
    compare_ensembles,
    folded_normal_moment,
    generator_convergence_probe,
    generator_moment,
    moment_report,
    s_bound_check,
    stationarity_chisquare,
)
from .ensembles import read_binary, read_csv, write_binary, write_csv
