"""Layered network-on-chip simulator.

Three independent layers: a socket-neutral transaction layer that every
socket family (fully-ordered, threaded, ID-based) reduces to, a
transaction-unaware packet transport layer (switches, static routing,
priority arbitration, credit flow control), and a swappable flit-level
physical layer. Network interface units bridge sockets to packets and hold
all socket-specific state.
"""

from .engine import Engine, RunResult, run
from .errors import (
    CreditError,
    FramingError,
    LockProtocolError,
    NocSimError,
    OrphanResponseError,
    RaggedBeatError,
    ScenarioError,
)
from .fabric import TransportMode
from .link import LinkParams
from .niu import Endianness, SocketFamily, TagPolicy, TagPolicyKind
from .oracle import sequential_oracle
from .scenario import (
    ExclusiveLoopProgram,
    LockLoopProgram,
    MasterSpec,
    RandomProgram,
    Scenario,
    ScriptProgram,
    atomic_loop_scenario,
    load_scenario,
    random_scenario,
)
from .trace import (
    Trace,
    check_invariants,
    compare_projections,
    projection_text,
    transaction_projection,
)
from .transaction import (
    Opcode,
    SocketOrderKey,
    Status,
    TransactionRequest,
    TransactionResponse,
    needs_response,
    validate_request,
)

__version__ = "0.1.0"
