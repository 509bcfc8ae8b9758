"""Exception hierarchy for the Borealis/DPC reproduction.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming from this package with a single ``except`` clause
while still being able to discriminate on the specific failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A tuple does not match the schema of the stream it was pushed onto."""


class DiagramError(ReproError):
    """A query diagram is malformed (cycles, dangling streams, bad arity)."""


class OperatorError(ReproError):
    """An operator received input it cannot process."""


class StreamError(ReproError):
    """A stream-level violation (duplicate ids, out-of-order boundaries)."""


class CheckpointError(ReproError):
    """Checkpoint or restore failed or was applied to a mismatched diagram."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class NetworkError(SimulationError):
    """A message was sent to an unknown endpoint or over a removed link."""


class ConfigurationError(ReproError, ValueError):
    """A configuration object holds values that are inconsistent or invalid."""


class LiveBackendUnavailable(ReproError):
    """The platform cannot run the live backend (no ``fork`` start method)."""


class ProtocolError(ReproError):
    """A DPC protocol invariant was violated (bad state transition, etc.)."""


class BufferTruncatedError(ProtocolError):
    """A replay was requested from a position inside a truncated buffer prefix."""
