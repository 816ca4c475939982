"""The time service: servers, clients, messages, reference sources, assembly."""

from .builder import (
    ClockFactory,
    PolicyFactory,
    RecoveryFactory,
    ServerSpec,
    ServiceSnapshot,
    SimulatedService,
    build_service,
)
from .churn import ChurnController, ChurnStats
from .discipline import DisciplineStage
from .client import ClientResult, QueryStrategy, TimeClient
from .messages import ReplyStatus, RequestKind, TimeReply, TimeRequest
from .rate_tracking import NeighbourRateReport, RateTrackingStage
from .reference import ReferenceServer
from .server import HOOKS, Hook, ServerStats, SlewRail, Stage, TimeServer
from .validation import Finding, Severity, validate_specs

__all__ = [
    "ChurnController",
    "ChurnStats",
    "ClientResult",
    "DisciplineStage",
    "HOOKS",
    "Hook",
    "NeighbourRateReport",
    "RateTrackingStage",
    "SlewRail",
    "Stage",
    "ClockFactory",
    "PolicyFactory",
    "QueryStrategy",
    "RecoveryFactory",
    "ReferenceServer",
    "ReplyStatus",
    "RequestKind",
    "ServerSpec",
    "ServerStats",
    "ServiceSnapshot",
    "SimulatedService",
    "TimeClient",
    "TimeReply",
    "TimeRequest",
    "TimeServer",
    "Finding",
    "Severity",
    "build_service",
    "validate_specs",
]
