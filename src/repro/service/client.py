"""Thin stdlib client of the service HTTP API.

:class:`ServiceClient` is what the ``repro jobs`` CLI subcommands and the
tests use — stdlib only, one method per route, JSON in/out.  Result
fetches return the raw response *text* untouched, preserving the
byte-identity contract with ``repro run --output json``.

Each thread keeps one ``http.client`` connection alive across requests.
A kept connection the server has since closed (an idle timeout, a
restarted frontend) fails before any reply byte arrives; the request is
then sent once more on a fresh connection.  Every route is safe to
repeat: a submission of the same spec returns the same job.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, Optional
from urllib.parse import urlsplit

from repro.service.jobs import JobState


class ServiceError(RuntimeError):
    """An HTTP error reply from the service, decoded."""

    def __init__(self, status: int, message: str,
                 body: Optional[Dict[str, Any]] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.body = body or {}


class ServiceClient:
    """One service endpoint (``http://host:port``), stdlib transport.

    Transport failures raise :class:`OSError` subclasses; error replies
    raise :class:`ServiceError`.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        parts = urlsplit(self.base_url)
        self._connection_type = (http.client.HTTPSConnection
                                 if parts.scheme == "https"
                                 else http.client.HTTPConnection)
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()

    # -- transport ----------------------------------------------------------------
    def close(self) -> None:
        """Close this thread's kept connection (the next request opens a
        new one)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_type(self._netloc,
                                               timeout=self.timeout_s)
            self._local.connection = connection
        return connection

    def _exchange(self, method: str, path: str, body: Optional[bytes],
                  headers: Dict[str, str]) -> http.client.HTTPResponse:
        """Send one request and read the reply's head."""
        connection = self._connection()
        reused = connection.sock is not None
        try:
            connection.request(method, self._prefix + path, body=body,
                               headers=headers)
            return connection.getresponse()
        except BaseException as error:
            self.close()
            if not (reused and isinstance(error, ConnectionError)):
                raise
        # The server had closed the kept connection, so the request was
        # not served: send it once more, on a fresh connection.
        return self._exchange(method, path, body, headers)

    def _request(self, method: str, path: str,
                 payload: Any = None) -> str:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        reply = self._exchange(method, path, body, headers)
        try:
            data = reply.read()
        except BaseException:
            self.close()
            raise
        if reply.status < 400:
            return data.decode("utf-8")
        text = data.decode("utf-8", errors="replace")
        try:
            decoded = json.loads(text)
        except json.JSONDecodeError:
            decoded = {"error": text.strip() or reply.reason}
        raise ServiceError(reply.status, decoded.get("error", reply.reason),
                           decoded)

    def _json(self, method: str, path: str, payload: Any = None
              ) -> Dict[str, Any]:
        return json.loads(self._request(method, path, payload))

    # -- routes -------------------------------------------------------------------
    def submit(self, spec_payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/jobs`` — returns the submission receipt."""
        return self._json("POST", "/v1/jobs", spec_payload)

    def status(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}``."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def result_text(self, job_id: str) -> str:
        """``GET /v1/jobs/{id}/result`` — the raw stored JSON text."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``POST /v1/jobs/{id}/cancel``."""
        return self._json("POST", f"/v1/jobs/{job_id}/cancel")

    def jobs(self) -> Dict[str, Any]:
        """``GET /v1/jobs`` — queue listing plus per-state counts."""
        return self._json("GET", "/v1/jobs")

    def health(self) -> Dict[str, Any]:
        """``GET /v1/health``."""
        return self._json("GET", "/v1/health")

    def metrics(self) -> Dict[str, Any]:
        """``GET /v1/metrics``."""
        return self._json("GET", "/v1/metrics")

    # -- convenience --------------------------------------------------------------
    def wait(self, job_id: str, *, timeout_s: float = 300.0,
             poll_interval_s: float = 0.2) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state (or raise on timeout)."""
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.status(job_id)
            if status["state"] in JobState.TERMINAL:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout_s:g}s")
            time.sleep(poll_interval_s)
