"""Distributed multi-agent optimal transport.

Agents estimate Kantorovich potentials over their Voronoi neighbor graph
by a primal-dual iteration and move by proximal steps toward a target
measure. A companion grid solver integrates the continuous-limit PDE
system with Lyapunov and KKT diagnostics.
"""

from .geometry import Domain
from .target import (
    DensityField,
    DomainMismatchError,
    PgmParseError,
    QuadratureGrid,
    load_pgm,
    cell_masses,
)
from .voronoi import Partition, NeighborGraph, build_partition, neighbor_graph, is_connected
from .primal_dual import (
    DivergenceError,
    PotentialState,
    zero_state,
    mass_imbalance,
    run_pd,
    run_primal,
    dual_objective,
    feasibility_violation,
    pd_residual,
    converge_pd,
)
from .flow import FlowProblem, min_cost_flow, discrete_ot_cost
from .transport import (
    SwarmState,
    TransportConfig,
    MetricsRecord,
    local_gradient,
    proximal_step,
    transport_round,
    run_experiment,
    initial_positions,
)
from .grid import (
    GridState,
    KKTResidual,
    PositivityError,
    LyapunovReport,
    grid_edges,
    pd_flow_step,
    relaxed_primal_step,
    transport_step,
    kkt_residual,
    lyapunov,
    density_error,
    steady_potentials,
    saturated_potentials,
    run_coupled,
    random_density,
    density_on_grid,
)
from .config import ExperimentConfig, ConfigError, load_config
from .rng import SplitMix64, derive

__all__ = [name for name in dir() if not name.startswith("_")]
