"""The paper's primary contribution: the replication engine.

Public surface: :class:`ReplicaCluster` to build simulated deployments,
:class:`Replica` for single nodes, :class:`ReplicationEngine` for the
algorithm itself, plus the records, quorum policies, and state machine
it is made of.
"""

from .action_queue import ActionQueue
from .client import Client
from .cluster import ReplicaCluster
from .colors import Color
from .engine import EngineConfig, EngineHooks, ReplicationEngine
from .knowledge import (Knowledge, RetransPlan, compute_knowledge,
                        plan_retransmission, retransmission_complete)
from .messages import EngineActionMsg, EngineCpcMsg, EngineStateMsg
from .quorum import DynamicLinearVoting, QuorumPolicy, StaticMajority
from .records import INVALID, VALID, PrimComponent, Vulnerable, Yellow
from .recovery import recover_engine
from .reconfig import (JoinerProtocol, JoinRequest, RepresentativeRole,
                       TransferHeader)
from .replica import Replica
from .state_machine import EngineState, IllegalTransition, check_transition

__all__ = [
    "ActionQueue",
    "Client",
    "Color",
    "DynamicLinearVoting",
    "EngineActionMsg",
    "EngineConfig",
    "EngineCpcMsg",
    "EngineHooks",
    "EngineState",
    "EngineStateMsg",
    "IllegalTransition",
    "INVALID",
    "JoinRequest",
    "JoinerProtocol",
    "Knowledge",
    "PrimComponent",
    "QuorumPolicy",
    "ReplicaCluster",
    "Replica",
    "ReplicationEngine",
    "RepresentativeRole",
    "RetransPlan",
    "StaticMajority",
    "TransferHeader",
    "VALID",
    "Vulnerable",
    "Yellow",
    "check_transition",
    "compute_knowledge",
    "plan_retransmission",
    "recover_engine",
    "retransmission_complete",
]
