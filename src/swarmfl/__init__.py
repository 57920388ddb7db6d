"""Swarm-intelligence client selection for simulated federated intrusion detection."""

from .datagen import NoiseSpec, ParticipationSchedule, sample_client_profiles
from .experiments import hash64
from .fitness import SubsetObjective
from .flsim import SessionConfig, run_session
from .swarm import OptimizerParams, SelectionProblem, SelectionResult, optimize

__version__ = "0.1.0"

__all__ = [
    "NoiseSpec",
    "OptimizerParams",
    "ParticipationSchedule",
    "SelectionProblem",
    "SelectionResult",
    "SessionConfig",
    "SubsetObjective",
    "hash64",
    "optimize",
    "run_session",
    "sample_client_profiles",
    "__version__",
]
