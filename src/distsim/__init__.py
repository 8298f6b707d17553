"""Round-based simulator for CONGEST, the congested clique and semi-MPC,
with budget enforcement, constant-round clique routing, and cross-model
simulation adapters that certify round, machine, traffic and memory bounds.
"""

from .core import (
    Graph,
    GraphFormatError,
    Message,
    RoundRecord,
    RoundTrace,
    components_oracle,
    gen_graph,
    load_graph,
    word_width,
)
from .engines import (
    EngineContractError,
    ModelKind,
    ModelParams,
    NodeProgram,
    RoundLimitError,
    RunResult,
    Violation,
    check_trace,
    distribute_edges,
    run_clique,
    run_congest,
    run_mpc,
    words_in,
)
from .routing import (
    DemandMatrix,
    Schedule,
    edge_color_bipartite,
    execute_schedule,
    plan_routing,
)
from .adapters import (
    Assignment,
    SimulationRefused,
    SimulationReport,
    compute_node_assignment,
    simulate_cc_on_semimpc,
    simulate_congest_on_semimpc,
    simulate_semimpc_on_cc,
)
from .algorithms import (
    BoruvkaConnectivity,
    FloodMinLabel,
    ForestMergeConnectivity,
)

__all__ = [
    "Graph", "GraphFormatError", "Message", "RoundRecord", "RoundTrace",
    "components_oracle", "gen_graph", "load_graph", "word_width",
    "EngineContractError", "ModelKind", "ModelParams", "NodeProgram",
    "RoundLimitError", "RunResult", "Violation", "check_trace",
    "distribute_edges", "run_clique", "run_congest", "run_mpc", "words_in",
    "DemandMatrix", "Schedule", "edge_color_bipartite", "execute_schedule",
    "plan_routing",
    "Assignment", "SimulationRefused", "SimulationReport",
    "compute_node_assignment", "simulate_cc_on_semimpc",
    "simulate_congest_on_semimpc", "simulate_semimpc_on_cc",
    "BoruvkaConnectivity", "FloodMinLabel", "ForestMergeConnectivity",
]

__version__ = "0.1.0"
