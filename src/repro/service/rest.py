"""The REST control plane: stdlib ``http.server`` over a RunService.

Endpoints (all JSON unless noted)::

    GET  /health                         service status, apps, tenants
    GET  /apps                           catalog app names
    POST /runs                           submit {"tenant": t, "spec": {...}}
    GET  /runs[?tenant=&state=]          list run records
    GET  /runs/<id>                      one run record
    POST /runs/<id>/kill                 request kill (poll for KILLED)
    GET  /runs/<id>/metrics              metrics snapshot (live|archived)
    GET  /runs/<id>/trace[?limit=N]      trace events (tail N)
    GET  /runs/<id>/spans                derived spans
    GET  /runs/<id>/status               monitor status text (text/plain)
    GET  /runs/<id>/artifacts            archived artifact names
    GET  /runs/<id>/artifacts/<name>     artifact bytes (octet-stream)
    GET  /tenants                        known tenants
    GET  /tenants/<t>/usage              quota consumption

Error mapping: :class:`InvalidRunSpec` -> 400, :class:`UnknownRun` ->
404, :class:`QuotaExceeded` -> **429**, anything else -> 500; every
error body is ``{"error": type, "detail": text}``.

Multi-tenancy is cooperative, not authenticated (the service trusts
the submitted tenant name, like the paper's single-machine PISCES
trusts its user); an ``X-Pisces-Tenant`` header, when present, must
match the addressed run's tenant -- a guard against *accidental*
cross-tenant kills, not an auth scheme.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..errors import (InvalidRunSpec, QuotaExceeded, ServiceError,
                      UnknownRun)
from .service import RunService
from .store import RunRecord

#: Seconds ``serve_forever`` waits between shutdown checks; socketserver's
#: 0.5 s default made every ``server.shutdown()`` wait up to that long.
_POLL_INTERVAL = 0.05


def record_json(rec: RunRecord) -> Dict[str, Any]:
    return rec.to_dict()


class _Handler(BaseHTTPRequestHandler):
    """One request.  ``self.server.service`` is the RunService."""

    server_version = "PiscesRunService/1.0"
    protocol_version = "HTTP/1.1"

    # quiet by default; the __main__ entry point can flip this
    log_to_stderr = False

    def log_message(self, fmt: str, *args: Any) -> None:
        if self.log_to_stderr:
            super().log_message(fmt, *args)

    @property
    def service(self) -> RunService:
        return self.server.service        # type: ignore[attr-defined]

    # ------------------------------------------------------------ plumbing

    def _send(self, code: int, payload: Any,
              content_type: str = "application/json") -> None:
        if content_type == "application/json":
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        elif isinstance(payload, bytes):
            body = payload
        else:
            body = str(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, exc: BaseException) -> None:
        self._send(code, {"error": type(exc).__name__, "detail": str(exc)})

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except ValueError as e:
            raise InvalidRunSpec(f"request body is not JSON: {e}") from None
        if not isinstance(body, dict):
            raise InvalidRunSpec("request body must be a JSON object")
        return body

    def _check_tenant(self, rec: RunRecord) -> None:
        claimed = self.headers.get("X-Pisces-Tenant")
        if claimed and claimed != rec.tenant:
            raise PermissionError(
                f"run {rec.run_id} belongs to tenant {rec.tenant!r}")

    def _route(self, method: str) -> None:
        url = urlparse(self.path)
        parts = tuple(p for p in url.path.split("/") if p)
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        try:
            handled = self._dispatch(method, parts, query)
        except (InvalidRunSpec, ValueError) as e:
            self._error(400, e)
        except PermissionError as e:
            self._error(403, e)
        except UnknownRun as e:
            self._error(404, e)
        except QuotaExceeded as e:
            self._error(429, e)
        except ServiceError as e:
            self._error(409, e)
        except Exception as e:                      # noqa: BLE001
            self._error(500, e)
        else:
            if not handled:
                self._send(404, {"error": "NotFound",
                                 "detail": f"no route {method} {url.path}"})

    # ------------------------------------------------------------- routes

    def _dispatch(self, method: str, parts: Tuple[str, ...],
                  query: Dict[str, str]) -> bool:
        svc = self.service

        if method == "GET" and parts == ("health",):
            self._send(200, svc.health())
        elif method == "GET" and parts == ("apps",):
            from . import catalog
            self._send(200, {"apps": list(catalog.app_names())})
        elif method == "POST" and parts == ("runs",):
            body = self._read_body()
            tenant = body.get("tenant") or \
                self.headers.get("X-Pisces-Tenant") or ""
            rec = svc.submit(tenant, body.get("spec") or {})
            self._send(201, record_json(rec))
        elif method == "GET" and parts == ("runs",):
            recs = svc.list_runs(tenant=query.get("tenant"),
                                 state=query.get("state"))
            self._send(200, {"runs": [record_json(r) for r in recs]})
        elif method == "GET" and len(parts) == 2 and parts[0] == "runs":
            self._send(200, record_json(svc.get_run(parts[1])))
        elif method == "POST" and len(parts) == 3 \
                and parts[0] == "runs" and parts[2] == "kill":
            self._check_tenant(svc.get_run(parts[1]))
            self._send(202, record_json(svc.kill(parts[1])))
        elif method == "GET" and len(parts) == 3 and parts[0] == "runs":
            run_id, leaf = parts[1], parts[2]
            if leaf == "metrics":
                self._send(200, svc.metrics(run_id))
            elif leaf == "trace":
                limit = int(query.get("limit", "0"))
                self._send(200, {"events": svc.trace_events(run_id, limit)})
            elif leaf == "spans":
                self._send(200, {"spans": svc.trace_spans(run_id)})
            elif leaf == "status":
                self._send(200, svc.status_text(run_id) + "\n",
                           content_type="text/plain; charset=utf-8")
            elif leaf == "artifacts":
                self._send(200, {"artifacts":
                                 svc.store.list_artifacts(run_id)})
            else:
                return False
        elif method == "GET" and len(parts) == 4 \
                and parts[0] == "runs" and parts[2] == "artifacts":
            path = svc.store.artifact_path(parts[1], parts[3])
            self._send(200, path.read_bytes(),
                       content_type="application/octet-stream")
        elif method == "GET" and parts == ("tenants",):
            self._send(200, {"tenants": svc.store.tenants()})
        elif method == "GET" and len(parts) == 3 \
                and parts[0] == "tenants" and parts[2] == "usage":
            self._send(200, {"tenant": parts[1],
                             "usage": svc.usage(parts[1])})
        else:
            return False
        return True

    def do_GET(self) -> None:          # noqa: N802 (http.server casing)
        self._route("GET")

    def do_POST(self) -> None:         # noqa: N802
        self._route("POST")


class ServiceHTTPServer(ThreadingHTTPServer):
    """The HTTP front end; one handler thread per request."""

    daemon_threads = True

    def __init__(self, service: RunService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__((host, port), _Handler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(service: RunService, host: str = "127.0.0.1", port: int = 0,
          ) -> Tuple[ServiceHTTPServer, threading.Thread]:
    """Start serving in a background thread; returns (server, thread).

    ``port=0`` binds an ephemeral port -- read ``server.url``.
    """
    server = ServiceHTTPServer(service, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever,
                              args=(_POLL_INTERVAL,),
                              name="pisces-svc-http", daemon=True)
    thread.start()
    return server, thread
