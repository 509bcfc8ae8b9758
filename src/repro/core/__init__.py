"""DPC (Delay, Process, and Correct) -- the paper's primary contribution."""

from .states import NodeState, can_transition, prefer
from .protocol import (
    DATA,
    SUBSCRIBE,
    UNSUBSCRIBE,
    HEARTBEAT_REQUEST,
    HEARTBEAT_RESPONSE,
    RECONCILE_REQUEST,
    RECONCILE_REPLY,
    DataBatch,
    SubscribeRequest,
    UnsubscribeRequest,
    HeartbeatRequest,
    HeartbeatResponse,
    ReconcileRequest,
    ReconcileReply,
)
from .switching import SwitchDecision, choose_upstream
from .input_streams import InputStreamMonitor, ProducerInfo
from .data_path import DataPath, OutputStreamManager
from .consistency_manager import ConsistencyManager
from .node import ProcessingNode
from .buffer_sizing import (
    BufferSizing,
    DiagramClassification,
    OperatorCategory,
    OperatorClassification,
    classify_diagram,
    classify_operator,
    compute_buffer_sizing,
    supported_failure_duration,
)
from .delay_planner import DelayPlan, DelayPlanner, PathDiagnostic

__all__ = [
    "NodeState",
    "can_transition",
    "prefer",
    "DATA",
    "SUBSCRIBE",
    "UNSUBSCRIBE",
    "HEARTBEAT_REQUEST",
    "HEARTBEAT_RESPONSE",
    "RECONCILE_REQUEST",
    "RECONCILE_REPLY",
    "DataBatch",
    "SubscribeRequest",
    "UnsubscribeRequest",
    "HeartbeatRequest",
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
    "BufferSizing",
    "DiagramClassification",
    "OperatorCategory",
    "OperatorClassification",
    "classify_diagram",
    "classify_operator",
    "compute_buffer_sizing",
    "supported_failure_duration",
    "DelayPlan",
    "DelayPlanner",
    "PathDiagnostic",
]
