"""Protocol-backend registry (the pluggable proving plane).

Importing this package registers the built-in backends in canonical
order -- ``stark``, ``plonk``, ``hyperplonk`` -- and every consumer
(CLI, proving service, fuzzer, benchmarks) resolves protocols through
:func:`get`/:func:`names` instead of hard-coding the list.  Each name
doubles as the job kind, the tagged proof-blob protocol tag and (as
``<name>-proof``) the result-envelope kind; the backend carries its own
body codec and format version, so nothing outside this package lists
protocols.
"""

from .base import ProofSystem, ProtocolSetup
from .hyperplonk_backend import HyperPlonkSystem
from .plonk_backend import PlonkSystem
from .registry import get, names, register
from .stark_backend import StarkSystem
from .transcript import CapBinding, TranscriptSpec

register(StarkSystem())
register(PlonkSystem())
register(HyperPlonkSystem())

__all__ = [
    "ProofSystem",
    "ProtocolSetup",
    "CapBinding",
    "TranscriptSpec",
    "StarkSystem",
    "PlonkSystem",
    "HyperPlonkSystem",
    "register",
    "get",
    "names",
]
