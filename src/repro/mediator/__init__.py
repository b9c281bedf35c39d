"""The MIX mediator architecture (Figure 1).

Sources export XML + DTDs; the mediator registers XMAS views, infers
their view DTDs, serves them to clients and stacked mediators, and
answers queries through the DTD-based simplifier.  Source calls go
through a fault-tolerant transport (timeouts, retries, circuit
breakers, deadline budgets, degraded answers — see
docs/RELIABILITY.md), testable deterministically with the
fault-injection harness in :mod:`repro.mediator.faults`.
"""

from .composition import compose_query
from .faults import ERROR, OK, FaultPlan, FaultSpec, FaultySource, slow
from .interface import (
    QueryBuilder,
    StructureNode,
    render_health,
    structure_tree,
)
from .matview import (
    CacheLeg,
    CacheOutcome,
    MatViewCache,
    MatViewPolicy,
    plan_signature,
    query_signature,
)
from .mediator import (
    Mediator,
    QueryPlan,
    QueryStats,
    UnionViewRegistration,
    ViewRegistration,
)
from .parallel import FanoutPolicy, LegResult, ParallelTransport
from .sharding import (
    ShardStats,
    ShardedSource,
    fragment_by_child,
    fragment_can_match,
    fragment_specialization_problem,
    partition_documents,
)
from .simplifier import SimplifierDecision, simplify_query
from .source import Source
from .transport import (
    BreakerPolicy,
    BreakerState,
    CallStats,
    CircuitBreaker,
    Clock,
    Deadline,
    DegradationReport,
    FakeClock,
    RetryPolicy,
    SourceTransport,
    SystemClock,
    TransportPolicy,
)

__all__ = [
    "BreakerPolicy",
    "BreakerState",
    "CacheLeg",
    "CacheOutcome",
    "CallStats",
    "CircuitBreaker",
    "Clock",
    "Deadline",
    "DegradationReport",
    "ERROR",
    "FakeClock",
    "FanoutPolicy",
    "FaultPlan",
    "FaultSpec",
    "FaultySource",
    "LegResult",
    "MatViewCache",
    "MatViewPolicy",
    "Mediator",
    "OK",
    "ParallelTransport",
    "QueryBuilder",
    "QueryPlan",
    "QueryStats",
    "RetryPolicy",
    "ShardStats",
    "ShardedSource",
    "SimplifierDecision",
    "Source",
    "SourceTransport",
    "StructureNode",
    "SystemClock",
    "TransportPolicy",
    "UnionViewRegistration",
    "ViewRegistration",
    "compose_query",
    "fragment_by_child",
    "fragment_can_match",
    "fragment_specialization_problem",
    "partition_documents",
    "plan_signature",
    "query_signature",
    "render_health",
    "simplify_query",
    "slow",
    "structure_tree",
]
