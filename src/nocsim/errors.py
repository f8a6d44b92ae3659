"""Exception types shared across the simulator."""


class NocSimError(Exception):
    """Base class for every fault the simulator can raise."""


class ScenarioError(NocSimError):
    """A scenario file or scenario object failed load-time validation."""


class FramingError(NocSimError):
    """A flit sequence does not form one well-formed packet."""


class CreditError(NocSimError):
    """Credit counter over- or under-flow; indicates an internal bug."""


class LockProtocolError(NocSimError):
    """READEX/LOCK pairing or lock ownership was violated."""


class OrphanResponseError(NocSimError):
    """A response arrived for a tag that has no live pending entry."""


class RaggedBeatError(NocSimError):
    """A byte sequence is not divisible into whole beats."""
