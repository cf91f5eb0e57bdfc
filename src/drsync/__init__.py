"""Driver routing and scheduling with mid-route handovers.

Minimizes the number of bus drivers covering a day of scheduled rides,
allowing drivers to be exchanged at customer stops and at service
stations reached by small detours, under EU daily driving-time rules.
"""

from .bounds import BoundReport, compute_bounds
from .generator import GeneratorConfig, generate_synthetic, synthetic_instance
from .instance import (
    Instance,
    LegalParams,
    Ride,
    StationAccess,
    Stop,
    load_instance,
    save_instance,
)
from .mip import Model, SolveOutcome, SolverConfig, build_model, restrict, solve
from .oracle import OracleResult, brute_force
from .pipeline import DbmhConfig, RunReport, destructive_bound_improvement, run
from .search import SearchConfig, construct, local_search
from .solution import Solution, Violation, check_feasibility
from .timegraph import TimeGraph, build_graph, graph_stats

__all__ = [
    "BoundReport", "DbmhConfig", "GeneratorConfig", "Instance", "LegalParams",
    "Model", "OracleResult", "Ride", "RunReport", "SearchConfig", "SolveOutcome",
    "SolverConfig", "Solution", "StationAccess", "Stop", "TimeGraph",
    "Violation", "brute_force", "build_graph", "build_model",
    "check_feasibility", "compute_bounds", "construct",
    "destructive_bound_improvement", "generate_synthetic", "graph_stats",
    "load_instance", "local_search", "restrict", "run", "save_instance",
    "solve", "synthetic_instance",
]

__version__ = "0.1.0"
