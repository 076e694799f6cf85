"""The ``repro-serve`` console entry point.

Serves the campaign service's JSON API (:mod:`repro.service.api`) over
stdlib :mod:`wsgiref.simple_server` - adequate for a lab bench or a CI
smoke job; put the :class:`~repro.service.api.CampaignApp` behind a real
WSGI container for anything bigger.  The announcement line on stderr is
machine-greppable (``repro-serve: listening on http://HOST:PORT``) so
scripts can wait for readiness.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence
from wsgiref.simple_server import WSGIRequestHandler, make_server

from ..store import ResultStore, StoreError
from .api import CampaignApp
from .queue import CampaignService

__all__ = ["main_serve"]


class _StderrRequestHandler(WSGIRequestHandler):
    """Access log on stderr (stdout stays free for machine output)."""

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        sys.stderr.write("repro-serve: %s - %s\n"
                         % (self.address_string(), format % args))


def main_serve(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-serve``: campaign service over HTTP.

    Opens (or creates) the persistent result store, starts the
    single-worker :class:`~repro.service.queue.CampaignService` and serves
    the JSON API until interrupted.  Returns 0 on a clean shutdown
    (Ctrl-C), 2 when the store or the listening socket cannot be opened.
    """
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the campaign job-queue JSON API over HTTP "
                    "(POST /campaigns, GET /campaigns/<id>, "
                    "GET /runs/<id>/report, GET /targets).",
    )
    parser.add_argument("--store", required=True, metavar="PATH",
                        help="persistent result store to record campaigns "
                             "into (sqlite file; created on first use; "
                             "':memory:' for a store that dies with the "
                             "server)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8750, metavar="N",
                        help="TCP port to listen on (default: 8750)")
    args = parser.parse_args(argv)

    try:
        store = ResultStore(args.store)
    except (StoreError, OSError) as exc:
        print(f"error: cannot open store {args.store!r}: {exc}",
              file=sys.stderr)
        return 2
    service = CampaignService(store)
    app = CampaignApp(service)
    try:
        httpd = make_server(args.host, args.port, app,
                            handler_class=_StderrRequestHandler)
    except OSError as exc:
        print(f"error: cannot listen on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        service.shutdown(wait=False)
        store.close()
        return 2
    print(f"repro-serve: listening on http://{args.host}:{args.port} "
          f"(store {args.store})", file=sys.stderr, flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        service.shutdown(wait=False)
        store.close()
    print("repro-serve: shut down", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_serve())
