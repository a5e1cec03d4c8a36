"""Credit network throughput and deadlock analysis toolkit."""

from .model import (
    BACKWARD,
    BOUNDARY,
    CORNER,
    FORWARD,
    INTERIOR,
    BalanceState,
    CreditNetwork,
    FlowVector,
    Path,
    PathSet,
    RoutingSystem,
    StateClass,
    apply_flow,
    build_routing_system,
    center_state,
    check_feasible,
    classify_state,
    make_flow,
    make_network,
    make_state,
)

__version__ = "0.1.0"
