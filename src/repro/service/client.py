"""Client for the proving service's socket front-end.

Speaks the newline-delimited JSON protocol of :mod:`repro.service.net`
and decodes result envelopes back to bytes.  Used by the
``repro submit`` / ``repro status`` CLI commands and by tests.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Dict, Optional, Union

from .jobs import JobSpec


class ServiceError(RuntimeError):
    """The server reported a failure for a request."""

    def __init__(self, response: Dict[str, Any]) -> None:
        super().__init__(response.get("error") or json.dumps(response))
        self.response = response


class ServiceClient:
    """One connection to a running proving service."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8347,
                 timeout_s: float = 300.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        """Close the connection."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip; raises on ``ok: false``, and
        :class:`ValueError` on a reply that is not a JSON object."""
        self._file.write((json.dumps(request) + "\n").encode("utf-8"))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line.decode("utf-8"))
        if not isinstance(response, dict):
            raise ValueError(f"malformed reply {line[:80]!r}")
        if not response.get("ok"):
            raise ServiceError(response)
        return response

    # -- convenience wrappers --------------------------------------------

    def ping(self) -> bool:
        """Liveness probe."""
        return bool(self.call({"op": "ping"}).get("pong"))

    def submit(
        self,
        spec: Union[JobSpec, Dict[str, Any]],
        *,
        priority: int = 0,
        wait: bool = False,
        wait_s: Optional[float] = None,
        timeout_s: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Submit a job; with ``wait`` the response carries the result.

        Returns the response dict; ``envelope`` is decoded to bytes
        when present.
        """
        if isinstance(spec, JobSpec):
            spec = spec.to_dict()
        response = self.call(
            {
                "op": "submit",
                "spec": spec,
                "priority": priority,
                "wait": wait,
                "wait_s": wait_s,
                "timeout_s": timeout_s,
                "max_retries": max_retries,
            }
        )
        if "envelope_hex" in response:
            response["envelope"] = bytes.fromhex(response.pop("envelope_hex"))
        return response

    def result(self, job_id: str, wait_s: Optional[float] = None) -> bytes:
        """Block for a job's result envelope bytes."""
        response = self.call({"op": "result", "job_id": job_id, "wait_s": wait_s})
        return bytes.fromhex(response["envelope_hex"])

    def status(self, job_id: Optional[str] = None) -> Dict[str, Any]:
        """One job's stats, or service stats when ``job_id`` is None."""
        response = self.call({"op": "status", "job_id": job_id})
        return response.get("job") or response.get("stats")

    def stats(self) -> Dict[str, Any]:
        """Service-level stats."""
        return self.call({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        """Ask the server to drain and exit its accept loop."""
        self.call({"op": "shutdown"})


def wait_for_server(host: str, port: int, timeout_s: float = 10.0) -> bool:
    """Poll until a proving service answers a ping (for scripts and CI);
    ``False`` once ``timeout_s`` has passed.

    A refused connection, a closed, malformed or ``ok: false`` reply and
    a false pong all mean "not ready yet"; polls are 0.1 s apart.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        try:
            with ServiceClient(host, port, timeout_s=min(1.0, remaining)) as client:
                if client.ping():
                    return True
        except (OSError, ValueError, ServiceError):
            pass
        time.sleep(min(0.1, max(0.0, deadline - time.monotonic())))
