"""Shared utilities: identifiers, errors, seeded RNG helpers, validation."""

from repro.util.errors import (
    ReproError,
    ConfigurationError,
    DeadlockError,
    TransactionAborted,
    RecursiveInvocationError,
    ProtocolError,
)
from repro.util.ids import IdAllocator, NodeId, ObjectId, TxnId
from repro.util.rng import SeededRNG, derive_seed

__all__ = [
    "ReproError",
    "ConfigurationError",
    "DeadlockError",
    "TransactionAborted",
    "RecursiveInvocationError",
    "ProtocolError",
    "IdAllocator",
    "NodeId",
    "ObjectId",
    "TxnId",
    "SeededRNG",
    "derive_seed",
]
