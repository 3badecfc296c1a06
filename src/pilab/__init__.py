"""Discrete verification toolkit for weighted Sobolev and Hardy
inequalities on doubling metric measure graphs."""

from .space import FiniteMetricMeasureSpace, build_space
from .gallery import GallerySpec, generate, load_space, save_space
from .constants import (
    layer_bound,
    patching_constant,
    rca_kappa,
    riesz_constants,
    theoretical_Q2,
    upgrade_constant,
)
from .covering import (
    kappa_decomposition,
    expand_covering,
    validate_covering,
)
from .graph_ineq import (
    build_covering_graph,
    dirichlet_energy,
    dirichlet_incidence,
    graph_profile,
    isoperimetric_constant,
    poincare_constant,
    rca_check,
)
from .riesz import ball_chain, riesz_potential, maximal_function, representation_check
from .verify import (
    SpaceProfile,
    AhlforsParams,
    Profile,
    doubling_profile,
    reverse_doubling_fit,
    ahlfors_fit,
    lip,
    cheeger_energy,
    make_family,
    local_sobolev_check,
    annulus_piece_check,
    weighted_sobolev_check,
    hardy_check,
    ahlfors_sobolev_check,
    InequalityReport,
    write_reports_csv,
    write_reports_json,
)
from .weights import weight_density

__version__ = "0.1.0"
