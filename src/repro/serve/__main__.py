"""CLI: ``python -m repro.serve [flags]`` — run the cost-model service.

Binds the HTTP server in the foreground and serves until interrupted
(SIGINT exits cleanly with code 0). Failure contract matches
``python -m repro``: any :class:`repro.errors.ReproError` exits
nonzero with a one-line ``error: ...`` on stderr, never a traceback.

Flags (``FLAG VALUE`` or ``FLAG=VALUE``):

``--host HOST`` / ``--port PORT``
    Bind address (default ``127.0.0.1:8000``; ``--port 0`` picks an
    ephemeral port, printed on startup).
``--rate R`` / ``--burst B``
    Token-bucket rate limiting of the evaluation routes: ``R``
    requests/second sustained, bursts up to ``B`` (default: no limit).
``--history PATH``
    Record the serving session (spans, metrics, engine counters) into
    the run-history store at ``PATH`` on shutdown; defaults to
    ``$REPRO_HISTORY`` when set. ``--history=`` (empty) disables
    recording even when the environment variable is present.
"""

from __future__ import annotations

import sys
import threading

from .. import obs
from ..errors import DomainError, ReproError
from .app import start_server

_USAGE = ("usage: python -m repro.serve [--host HOST] [--port PORT] "
          "[--rate R] [--burst B] [--history PATH]")


def _split_value_flag(argv, flag):
    """Extract ``FLAG VALUE`` / ``FLAG=VALUE`` from the argv."""
    rest = []
    value = None
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == flag:
            if i + 1 >= len(argv):
                raise DomainError(f"{flag} requires a value")
            value = argv[i + 1]
            i += 2
            continue
        if arg.startswith(flag + "="):
            value = arg.split("=", 1)[1]
            i += 1
            continue
        rest.append(arg)
        i += 1
    return rest, value


def _number(text, flag, cast):
    try:
        return cast(text)
    except ValueError:
        raise DomainError(f"{flag} expects a number; got {text!r}") from None


def main(argv=None, ready: "threading.Event | None" = None,
         stop: "threading.Event | None" = None) -> int:
    """CLI entry point.

    ``ready``/``stop`` are test hooks: ``ready`` is set once the server
    is bound (port available via the startup line), and a set ``stop``
    event shuts the server down instead of waiting for SIGINT.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, host = _split_value_flag(argv, "--host")
        argv, port = _split_value_flag(argv, "--port")
        argv, rate = _split_value_flag(argv, "--rate")
        argv, burst = _split_value_flag(argv, "--burst")
        argv, history_path = _split_value_flag(argv, "--history")
        if argv:
            raise DomainError(f"unknown argument {argv[0]!r}")
        kwargs = {
            "host": host if host is not None else "127.0.0.1",
            "port": _number(port, "--port", int) if port is not None
            else 8000,
            "rate": _number(rate, "--rate", float) if rate is not None
            else None,
            "burst": _number(burst, "--burst", int) if burst is not None
            else 16,
        }
    except DomainError as exc:
        print(f"{exc}; {_USAGE}", file=sys.stderr)
        return 2
    if history_path is None:
        from ..obs.history import default_history_path
        history_default = default_history_path()
        if history_default is not None:
            history_path = str(history_default)
    elif not history_path:
        history_path = None  # explicit --history= opts out of recording
    stop = stop if stop is not None else threading.Event()
    try:
        with obs.enabled():
            if history_path is not None:
                from ..obs.history import recording
                with recording(history_path, "repro.serve") as recorder:
                    _serve(kwargs, ready, stop)
                if recorder.record is not None:
                    print(f"history: run #{recorder.record.run_id} "
                          f"-> {history_path}")
            else:
                _serve(kwargs, ready, stop)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _serve(kwargs: dict, ready, stop) -> None:
    """Run the server until interrupted (or the ``stop`` event is set)."""
    with start_server(**kwargs) as server:
        print(f"repro.serve listening on {server.url} "
              f"(routes: /evaluate /sweep /pareto /sensitivity "
              f"/optimal_sd /healthz /metrics)")
        sys.stdout.flush()
        if ready is not None:
            ready.set()
        try:
            while not stop.wait(timeout=0.2):
                pass
        except KeyboardInterrupt:
            print("shutting down")


if __name__ == "__main__":
    raise SystemExit(main())
