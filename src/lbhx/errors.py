"""Exception hierarchy shared by all lbhx modules.

Exit-code mapping used by the CLI: ConfigurationError -> 1,
RuntimeFault/CommunicationFault -> 2, ValidationFailure -> 3.
"""


class LbhxError(Exception):
    """Base class for all lbhx errors."""


class ConfigurationError(LbhxError):
    """Invalid configuration: unknown model, bad layout/VL combination, ..."""


class ContractViolation(LbhxError):
    """A kernel precondition was violated (stale halo, out-of-range index)."""


class RuntimeFault(LbhxError):
    """Runtime failure of the heterogeneous orchestrator (deadlock, phase error)."""


class CommunicationFault(RuntimeFault):
    """Transport failure during rank-halo exchange; names the peer involved."""


class PeerClosedFault(CommunicationFault):
    """A peer closed its end of a link, most often because it failed first."""


class TuningError(LbhxError):
    """Auto-tuning could not produce a usable profile."""


class ValidationFailure(LbhxError):
    """A validation-suite check failed."""
