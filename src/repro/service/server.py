"""HTTP/JSON front-end for the allocation service (``repro serve``).

Stdlib-only (``http.server``): one :class:`ThreadingHTTPServer` whose
handlers call into a *backend* — the dict-returning request surface
(submit / allocate / poll / wait / result / stats / metrics_samples /
trace / drain / health) that :class:`~repro.service.shard.LocalShard`,
:class:`~repro.service.shard.ProcessShard` and
:class:`~repro.service.shard.ShardRouter` share.  ``repro serve``
mounts one :class:`~repro.service.queue.AllocationService` as a
``LocalShard``; ``repro serve --shards N`` mounts a ``ShardRouter`` over
N worker processes.  Same handler, same routes, same error statuses.

Endpoints (all JSON):

========================  ====================================================
``GET  /healthz``         liveness probe → ``{"ok": true}`` (a fleet adds
                          ``shards``, the ring size)
``GET  /v1/stats``        counters, queue depth, cache stats, tier estimates,
                          dead-letter record, fault-plan accounting
``POST /v1/submit``       enqueue a request → ``{job_id, cache, status}``
``GET  /v1/jobs/<id>``    job status (no artifact)
``GET  /v1/jobs/<id>/result``  the stored artifact bytes, verbatim
``POST /v1/allocate``     submit + wait (``?timeout_s=``) → status + artifact
``GET  /v1/metrics``      live metrics — Prometheus text exposition
                          (``?format=json`` for the raw sample)
``GET  /v1/trace/<trace_id>``  buffered spans of one distributed trace
``POST /v1/admin/drain``  enter draining mode (a fleet: ``?shard=NAME``)
========================  ====================================================

``/v1/jobs/<id>/result`` writes the cache's canonical bytes directly to
the socket — a cache hit is bit-identical to the cold run that filled
the entry, by construction.

Overload behavior (see ``docs/RESILIENCE.md``):

* a full service queue sheds the submit with **503** + ``Retry-After``
  (:class:`~repro.service.queue.ServiceOverloadError`);
* more than ``max_concurrent_requests`` simultaneous handlers sheds
  with **429** + ``Retry-After`` before any work is done;
* the synchronous ``/v1/allocate`` wait is capped at
  :data:`MAX_SYNC_TIMEOUT_S` regardless of the client's ``timeout_s``,
  so a stuck client cannot pin a handler thread forever — an unfinished
  job comes back as ``202`` with ``Retry-After`` and remains pollable.

The ``server.request`` fault site (:mod:`repro.resilience.faults`) can
turn any request into an injected ``5xx`` (``error``), a stall
(``delay``), or a dropped connection (``reset``) for chaos testing.
"""

from __future__ import annotations

import json
import re
import signal
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..obs.telemetry import TELEMETRY, TRACE_HEADER, TraceContext, render_prometheus
from ..resilience.faults import FAULTS
from .artifact import RequestError
from .client import ServiceError
from .queue import ServiceConfig, ServiceDrainingError, ServiceOverloadError
from .shard import (
    LocalShard,
    ProcessShard,
    ShardError,
    ShardRouter,
    shard_cache_dir,
)

#: Every route the service answers: ``(method, path template)`` → the
#: :class:`ServiceHandler` method serving it.  Dispatch walks this table
#: (``<...>`` segments become positional arguments), and the docs-check
#: test cross-references it against ``docs/SERVICE.md`` and live servers.
ROUTES: dict[tuple[str, str], str] = {
    ("GET", "/healthz"): "_health",
    ("GET", "/v1/stats"): "_stats",
    ("POST", "/v1/submit"): "_submit",
    ("GET", "/v1/jobs/<id>"): "_poll",
    ("GET", "/v1/jobs/<id>/result"): "_result",
    ("POST", "/v1/allocate"): "_allocate",
    ("GET", "/v1/metrics"): "_metrics",
    ("GET", "/v1/trace/<trace_id>"): "_trace",
    ("POST", "/v1/admin/drain"): "_drain",
}

_PATTERNS = [
    (method, re.compile(re.sub(r"<[^>]+>", "([^/]+)", template)), handler)
    for (method, template), handler in ROUTES.items()
]

#: Exception → ``(status, Retry-After seconds)`` for every route; the
#: first matching entry wins, so subclasses precede their bases.
ERROR_STATUS = {
    RequestError: lambda exc: (400, None),
    ServiceOverloadError: lambda exc: (503, exc.retry_after_s),
    ShardError: lambda exc: (503, 1.0),
    ServiceError: lambda exc: (exc.status or 502, None),
}

#: Default wait bound of the synchronous ``/v1/allocate`` endpoint.
DEFAULT_SYNC_TIMEOUT_S = 30.0

#: Hard cap on the synchronous wait — the server-side request deadline.
MAX_SYNC_TIMEOUT_S = 120.0


class ServiceHandler(BaseHTTPRequestHandler):
    """One request; the backend lives on ``self.server.backend``."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # quiet by default; the serve command flips this on with -v
    verbose = False

    def log_message(self, fmt, *args):  # noqa: D102 (stdlib signature)
        if self.verbose:
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------
    def _send_json(
        self,
        payload: dict,
        status: int = 200,
        retry_after_s: float | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_bytes(body, status, retry_after_s=retry_after_s)

    def _send_bytes(
        self,
        body: bytes,
        status: int = 200,
        retry_after_s: float | None = None,
        content_type: str = "application/json",
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            # Retry-After is integral seconds; round up so 0.5s ≠ "now".
            self.send_header("Retry-After", str(max(1, int(retry_after_s + 0.999))))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise RequestError("empty request body")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RequestError(f"invalid JSON body: {exc}") from exc

    @property
    def backend(self):
        return self.server.backend  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Distributed tracing (see repro.obs.telemetry)
    # ------------------------------------------------------------------
    def _trace_context(self) -> TraceContext | None:
        """The caller's trace coordinates, from ``X-Repro-Trace``."""
        if not TELEMETRY.enabled:
            return None
        return TraceContext.parse(self.headers.get(TRACE_HEADER))

    def _request_span(self):
        """A ``server.request`` span under the caller's trace context,
        rooting a fresh trace when an untraced submit arrives while
        telemetry is on."""
        ctx = TELEMETRY.current() or self._trace_context()
        if ctx is None and TELEMETRY.enabled:
            ctx = TraceContext.new(path=self.path)
        return TELEMETRY.span(ctx, "server.request", category="server", path=self.path)

    # ------------------------------------------------------------------
    # Guard rail every request passes through: fault injection first,
    # then the concurrent-handler limit.  The incoming trace context is
    # activated for the whole handler so deep call sites (fault
    # injector, cache probes) attach events to the right trace.
    # ------------------------------------------------------------------
    def _guarded(self, handler) -> None:
        ctx = self._trace_context()
        if ctx is not None:
            with TELEMETRY.activate(ctx):
                self._guarded_inner(handler)
        else:
            self._guarded_inner(handler)

    def _guarded_inner(self, handler) -> None:
        if FAULTS.enabled:
            point = FAULTS.fire("server.request", label=self.path)
            if point is not None:
                if point.mode == "reset":
                    # Drop the connection with no response at all — the
                    # client sees a reset / empty reply.
                    self.close_connection = True
                    try:
                        self.connection.close()
                    except OSError:
                        pass
                    return
                if point.mode == "delay":
                    time.sleep(float(point.detail.get("delay_s", 0.05)))
                elif point.mode == "error":
                    status = int(point.detail.get("status", 500))
                    self._send_json(
                        {"error": "injected server fault", "injected": True},
                        status,
                    )
                    return
        slots = self.server.request_slots  # type: ignore[attr-defined]
        if not slots.acquire(blocking=False):
            self._send_json(
                {"error": "too many concurrent requests"},
                429,
                retry_after_s=1.0,
            )
            return
        try:
            handler()
        finally:
            slots.release()

    # ------------------------------------------------------------------
    # Dispatch: one walk of ROUTES, one exception → status table.
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._guarded(self._do_get)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._guarded(self._do_post)

    def _do_get(self) -> None:
        self._dispatch("GET")

    def _do_post(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        for verb, pattern, handler in _PATTERNS:
            match = verb == method and pattern.fullmatch(url.path)
            if not match:
                continue
            try:
                getattr(self, handler)(parse_qs(url.query), *match.groups())
            except tuple(ERROR_STATUS) as exc:
                self._send_error(exc)
            return
        self._send_json({"error": f"no such path {url.path!r}"}, 404)

    def _send_error(self, exc: Exception) -> None:
        status, retry_after_s = next(
            respond(exc)
            for kind, respond in ERROR_STATUS.items()
            if isinstance(exc, kind)
        )
        payload = {"error": str(exc)}
        if isinstance(exc, ServiceDrainingError):
            payload["draining"] = True
        self._send_json(payload, status, retry_after_s=retry_after_s)

    def _send_status(self, status: dict) -> None:
        """A job status view: 500 failed, 202 + Retry-After unfinished."""
        if status["status"] == "failed":
            self._send_json(status, 500)
        else:
            self._send_json(status, 202, retry_after_s=1.0)

    # -- routes --------------------------------------------------------
    def _health(self, query) -> None:
        self._send_json(self.backend.health())

    def _stats(self, query) -> None:
        self._send_json(self.backend.stats())

    def _metrics(self, query) -> None:
        samples = self.backend.metrics_samples()
        if query.get("format", [""])[0] == "json":
            self._send_json(
                {"samples": [{"labels": l, "sample": s} for l, s in samples]}
            )
            return
        text = render_prometheus(samples)
        self._send_bytes(
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _trace(self, query, trace_id: str) -> None:
        """This process's span buffer plus every out-of-process shard's
        (in-process shards record into this same buffer)."""
        spans = TELEMETRY.spans_for(trace_id)
        spans.extend(self.backend.trace(trace_id)["spans"])
        self._send_json({"trace_id": trace_id, "spans": spans})

    def _poll(self, query, job_id: str) -> None:
        self._send_json(self.backend.poll(job_id))

    def _result(self, query, job_id: str) -> None:
        status = self.backend.poll(job_id)
        if status["status"] == "done":
            self._send_bytes(self.backend.result(job_id))
        else:
            self._send_status(status)

    def _submit(self, query) -> None:
        with self._request_span() as span:
            status = self.backend.submit(self._read_body(), trace=span.ctx)
        self._send_json(status, 202 if status["status"] == "queued" else 200)

    def _allocate(self, query) -> None:
        timeout = float(query.get("timeout_s", [DEFAULT_SYNC_TIMEOUT_S])[0])
        timeout = min(max(timeout, 0.0), MAX_SYNC_TIMEOUT_S)
        with self._request_span() as span:
            status, artifact = self.backend.allocate(
                self._read_body(), timeout, trace=span.ctx
            )
        if artifact is None:
            self._send_status(status)
            return
        status["artifact"] = json.loads(artifact)
        self._send_json(status)

    def _drain(self, query) -> None:
        """Enter draining mode; idempotent, so callers poll this same
        endpoint until ``drained`` flips true before restarting.  A fleet
        drains the worker named by ``?shard=NAME``."""
        self._send_json(self.backend.drain(query.get("shard", [None])[0]))


class ServiceServer(ThreadingHTTPServer):
    """Threading HTTP server over one backend (a ``LocalShard`` or a
    ``ShardRouter``)."""

    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], backend, max_concurrent_requests: int
    ):
        super().__init__(address, ServiceHandler)
        self.backend = backend
        self.request_slots = threading.BoundedSemaphore(
            max(1, max_concurrent_requests)
        )


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    config: ServiceConfig | None = None,
    *,
    shards: int = 0,
    backend=None,
) -> ServiceServer:
    """Build (but do not run) a server; ``port=0`` binds a free port.

    With ``shards=0`` the backend is one in-process service (a
    :class:`~repro.service.shard.LocalShard`, its dispatcher started).
    With ``shards=N`` it is a :class:`~repro.service.shard.ShardRouter`
    over worker processes ``s0..s{N-1}``, health-checked every second;
    each worker gets a private cache shard under ``cache_dir`` and a
    private journal under ``journal_dir``
    (:func:`~repro.service.shard.shard_cache_dir` — keyspace partitioning
    means no two live shards share either).  Pass a pre-built *backend*
    to serve it instead (the tests mount ``LocalShard`` fleets this way).
    Callers own ``serve_forever`` (or :func:`serve`) and
    :func:`shutdown_server`.
    """
    config = config or ServiceConfig()
    if backend is None and shards > 0:
        backend = ShardRouter(
            ProcessShard(
                f"s{i}",
                replace(
                    config,
                    cache_dir=shard_cache_dir(config.cache_dir, f"s{i}"),
                    journal_dir=shard_cache_dir(config.journal_dir, f"s{i}"),
                ),
                host=host,
            )
            for i in range(shards)
        )
        backend.start_health_loop(1.0)
    elif backend is None:
        backend = LocalShard("local", config)
    return ServiceServer((host, port), backend, config.max_concurrent_requests)


def shutdown_server(server: ServiceServer) -> None:
    """Stop the HTTP loop, then close the backend (its workers too)."""
    server.shutdown()
    server.server_close()
    server.backend.close()


def serve(server: ServiceServer) -> None:
    """Serve until Ctrl-C or SIGTERM, then :func:`shutdown_server`.

    SIGTERM is graceful: the backend finishes in-flight work and syncs
    its journal while the HTTP loop still answers polls, then the loop
    stops.  (SIGKILL is the crash the journal exists for — recovery
    replays on the next boot.)
    """

    def _graceful(signum, frame):  # noqa: ARG001 - signal signature
        def _stop():
            server.backend.close()
            server.shutdown()

        threading.Thread(target=_stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        shutdown_server(server)
