"""DPC (Delay, Process, and Correct) -- the paper's primary contribution."""

from .states import NodeState, can_transition, prefer
from .protocol import (
    DATA,
    SUBSCRIBE,
    UNSUBSCRIBE,
    HEARTBEAT_RESPONSE,
    RECONCILE_REQUEST,
    RECONCILE_REPLY,
    DataBatch,
    SubscribeRequest,
    UnsubscribeRequest,
    HeartbeatResponse,
    ReconcileRequest,
    ReconcileReply,
)
from .switching import SwitchDecision, choose_upstream
from .input_streams import InputStreamMonitor, ProducerInfo
from .data_path import DataPath, OutputStreamManager
from .consistency_manager import ConsistencyManager
from .node import ProcessingNode
from .delay_planner import DelayPlan, DelayPlanner, PathDiagnostic

__all__ = [
    "NodeState",
    "can_transition",
    "prefer",
    "DATA",
    "SUBSCRIBE",
    "UNSUBSCRIBE",
    "HEARTBEAT_RESPONSE",
    "RECONCILE_REQUEST",
    "RECONCILE_REPLY",
    "DataBatch",
    "SubscribeRequest",
    "UnsubscribeRequest",
    "HeartbeatResponse",
    "ReconcileRequest",
    "ReconcileReply",
    "SwitchDecision",
    "choose_upstream",
    "InputStreamMonitor",
    "ProducerInfo",
    "DataPath",
    "OutputStreamManager",
    "ConsistencyManager",
    "ProcessingNode",
    "DelayPlan",
    "DelayPlanner",
    "PathDiagnostic",
]
