"""Blocking JSON-lines client for the serving front-end.

One connection, synchronous request/response — plus
:meth:`ServeClient.request_many`, which pipelines a whole list of
requests before reading any response, so even a single connection's
requests can coalesce into one batched engine pass (responses arrive in
completion order and are re-matched by id).

One-liner (the README quickstart)::

    python -c "from repro.serve import ServeClient; \\
        print(ServeClient(port=7453).audit('depth8', 4096)['violations'])"
"""

from __future__ import annotations

import itertools
import socket
from typing import Any, Dict, List, Optional

from .protocol import DEFAULT_PORT, decode_line, encode_line

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """The server answered ``ok: false`` (the message is its error)."""


class ServeClient:
    """Client for one server connection (context-manager friendly).

    The convenience methods (:meth:`run`, :meth:`audit`, :meth:`spec`,
    :meth:`ping`, :meth:`stats`, :meth:`shutdown`) return the response's
    ``result`` payload and raise :class:`ServeError` on failure;
    :meth:`request` / :meth:`request_many` return whole response objects
    (including ``meta``) and never raise on ``ok: false``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        timeout: float = 120.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._ids = itertools.count()

    # -- connection -----------------------------------------------------

    def connect(self) -> "ServeClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._file = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- raw protocol ---------------------------------------------------

    def _next_id(self) -> str:
        return f"c{next(self._ids)}"

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request, wait for its response."""
        return self.request_many([payload])[0]

    def request_many(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Pipeline several requests on this connection.

        All requests are written before any response is read, so they
        can land in the same micro-batch group. Responses are matched
        by id and returned in *request* order.
        """
        self.connect()
        sent = []
        for payload in payloads:
            payload = dict(payload)
            if "id" not in payload:
                payload["id"] = self._next_id()
            sent.append(payload)
            self._sock.sendall(encode_line(payload))
        by_id: Dict[str, Dict[str, Any]] = {}
        wanted = {p["id"] for p in sent}
        while len(by_id) < len(sent):
            line = self._file.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            response = decode_line(line)
            rid = response.get("id")
            if rid in wanted:
                by_id[rid] = response
        return [by_id[p["id"]] for p in sent]

    # -- convenience methods --------------------------------------------

    def _result(self, payload: Dict[str, Any]) -> Any:
        response = self.request(payload)
        if not response.get("ok"):
            raise ServeError(response.get("error", "unknown server error"))
        return response["result"]

    def run(
        self,
        graph: str,
        length: int = 256,
        *,
        values: Optional[Dict[str, float]] = None,
        keep: Optional[List[str]] = None,
        bits: bool = False,
        encoding: str = "unipolar",
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": "run", "graph": graph, "length": length, "bits": bits,
            "encoding": encoding,
        }
        if values:
            payload["values"] = values
        if keep is not None:
            payload["keep"] = list(keep)
        return self._result(payload)

    def audit(
        self,
        graph: str,
        length: int = 256,
        *,
        values: Optional[Dict[str, float]] = None,
        tolerance: float = 0.35,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": "audit", "graph": graph, "length": length,
            "tolerance": tolerance,
        }
        if values:
            payload["values"] = values
        return self._result(payload)

    def spec(
        self, name: str, *, fidelity: str = "smoke", seed: Optional[int] = None
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": "spec", "spec": name, "fidelity": fidelity}
        if seed is not None:
            payload["seed"] = seed
        return self._result(payload)

    def ping(self) -> str:
        return self._result({"kind": "ping"})

    def stats(self) -> Dict[str, Any]:
        return self._result({"kind": "stats"})

    def shutdown(self) -> str:
        return self._result({"kind": "shutdown"})
