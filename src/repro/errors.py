"""Shared typed errors: registry lookups and verifier rejections.

Every user-facing "unknown X" failure -- an unknown workload name, an
unknown proof protocol -- flows through :class:`UnknownEntryError`, so
the CLI and the service front-end produce one consistent message shape
(``unknown <kind> <name> (choose from: ...)``) sourced from the actual
registry contents instead of hand-maintained per-call-site lists.

:class:`UnknownWorkloadError` additionally subclasses :class:`KeyError`
and :class:`UnknownEntryError` subclasses :class:`ValueError`, so code
written against the historical ``by_name`` / ``JobSpec`` error
contracts keeps working unchanged.

:class:`VerifierError` is the base of exactly ``FriError``,
``StarkError``, ``PlonkError`` and ``HyperPlonkError``: "the verifier
said no" is one ``except`` clause wherever hostile proofs are handled.
"""

from __future__ import annotations

from typing import Sequence


class UnknownEntryError(ValueError):
    """An unknown name was looked up in a registry."""

    #: What kind of registry this error reports on ("workload", ...).
    entry_kind = "entry"

    def __init__(self, name: str, choices: Sequence[str]) -> None:
        self.name = name
        self.choices = tuple(choices)
        message = (
            f"unknown {self.entry_kind} {name!r} "
            f"(choose from: {', '.join(self.choices)})"
        )
        super().__init__(message)
        self._message = message

    def __str__(self) -> str:  # KeyError.__str__ would repr-quote the message
        return self._message


class UnknownWorkloadError(UnknownEntryError, KeyError):
    """An unknown workload name (also a ``KeyError`` for old callers)."""

    entry_kind = "workload"


class UnknownProtocolError(UnknownEntryError):
    """An unknown proof-system name."""

    entry_kind = "protocol"


class VerifierError(Exception):
    """A proof verifier rejected a proof (base of the per-protocol errors)."""
