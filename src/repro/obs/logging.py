"""Structured logging on top of the stdlib ``logging`` tree.

Every pipeline event is a *named* record with typed fields, not a
formatted string: ``log.info("supervisor.serial_fallback", pending=3)``. Two
sinks render the same records:

- a human handler (stderr by default) — ``HH:MM:SS LEVEL logger event
  key=value ...`` — for interactive runs;
- a JSONL handler — one JSON object per line with ``ts``, ``level``,
  ``logger``, ``event`` and the fields verbatim — the machine-readable
  event stream ``--log-json`` writes and the chaos tests parse.

Loggers live under the ``repro`` root, so one :func:`configure_logging`
call scopes the whole library without touching the global root logger.
stdout is never used: command results own stdout, telemetry owns stderr
(see ISSUE satellite on the CLI warning paths).
"""

from __future__ import annotations

import io
import json
import logging
import sys
import time
from pathlib import Path
from typing import Any, TextIO

__all__ = [
    "StructuredLogger",
    "get_logger",
    "configure_logging",
    "teardown_logging",
    "JsonlFormatter",
    "HumanFormatter",
    "parse_jsonl",
]

ROOT_LOGGER_NAME = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

_FIELDS_ATTR = "repro_fields"
_EVENT_ATTR = "repro_event"


def _json_default(value: Any) -> Any:
    """Last-resort JSON coercion so one exotic field can't torch a line."""
    if hasattr(value, "tolist"):  # numpy scalars/arrays
        return value.tolist()
    if isinstance(value, Path):
        return str(value)
    return repr(value)


class JsonlFormatter(logging.Formatter):
    """One JSON object per record: ``{ts, level, logger, event, ...}``."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": getattr(record, _EVENT_ATTR, record.getMessage()),
        }
        fields = getattr(record, _FIELDS_ATTR, None)
        if fields:
            for key, value in fields.items():
                payload.setdefault(key, value)
        if record.exc_info and record.exc_info[1] is not None:
            payload["exception"] = repr(record.exc_info[1])
        return json.dumps(payload, default=_json_default)


class HumanFormatter(logging.Formatter):
    """Compact single-line rendering for interactive stderr output."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        event = getattr(record, _EVENT_ATTR, record.getMessage())
        parts = [stamp, record.levelname.lower(), record.name, str(event)]
        fields = getattr(record, _FIELDS_ATTR, None)
        if fields:
            parts.extend(f"{k}={_fmt_value(v)}" for k, v in fields.items())
        return " ".join(parts)


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    return f'"{text}"' if " " in text else text


class StructuredLogger:
    """Thin wrapper giving ``logging.Logger`` an event-first signature.

    ``log.info("walks.done", walks=600, seconds=0.42)`` — the event name
    is the stable, greppable identity; fields carry the data. The
    wrapped stdlib logger keeps propagation, levels, and handler wiring
    exactly as the ``logging`` module defines them.
    """

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    @property
    def stdlib(self) -> logging.Logger:
        return self._logger

    def log(self, level: int, event: str, /, **fields: Any) -> None:
        if self._logger.isEnabledFor(level):
            self._logger.log(
                level,
                event,
                extra={_EVENT_ATTR: event, _FIELDS_ATTR: fields},
            )

    def debug(self, event: str, /, **fields: Any) -> None:
        self.log(logging.DEBUG, event, **fields)

    def info(self, event: str, /, **fields: Any) -> None:
        self.log(logging.INFO, event, **fields)

    def warning(self, event: str, /, **fields: Any) -> None:
        self.log(logging.WARNING, event, **fields)

    def error(self, event: str, /, **fields: Any) -> None:
        self.log(logging.ERROR, event, **fields)


def get_logger(name: str = "") -> StructuredLogger:
    """A structured logger under the ``repro`` tree (e.g. ``repro.walks``)."""
    full = f"{ROOT_LOGGER_NAME}.{name}" if name else ROOT_LOGGER_NAME
    return StructuredLogger(logging.getLogger(full))


def configure_logging(
    level: str = "info",
    *,
    json_path: str | Path | None = None,
    stream: TextIO | None = None,
    human: bool = True,
) -> list[logging.Handler]:
    """Attach sinks to the ``repro`` root logger; returns the handlers.

    ``level`` gates the human sink; the JSONL sink always records at
    DEBUG so the machine stream stays complete regardless of console
    verbosity. Call :func:`teardown_logging` with the returned handlers
    to detach (the CLI does this per command so repeated in-process
    invocations never double-log).
    """
    if level not in _LEVELS:
        raise ValueError(f"level must be one of {sorted(_LEVELS)}")
    root = logging.getLogger(ROOT_LOGGER_NAME)
    root.setLevel(logging.DEBUG)
    handlers: list[logging.Handler] = []
    if human:
        console = logging.StreamHandler(stream if stream is not None else sys.stderr)
        console.setLevel(_LEVELS[level])
        console.setFormatter(HumanFormatter())
        root.addHandler(console)
        handlers.append(console)
    if json_path is not None:
        Path(json_path).parent.mkdir(parents=True, exist_ok=True)
        jsonl = logging.FileHandler(json_path, mode="w", encoding="utf-8")
        jsonl.setLevel(logging.DEBUG)
        jsonl.setFormatter(JsonlFormatter())
        root.addHandler(jsonl)
        handlers.append(jsonl)
    return handlers


def teardown_logging(handlers: list[logging.Handler]) -> None:
    """Detach and close handlers attached by :func:`configure_logging`."""
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in handlers:
        root.removeHandler(handler)
        handler.close()


def parse_jsonl(
    source: str | Path | TextIO, *, on_error: str = "raise"
) -> list[dict]:
    """Parse a JSONL event stream into dicts (skipping blank lines).

    With ``on_error="raise"`` (the default) a torn line raises
    ``json.JSONDecodeError`` — the chaos tests use this to assert the
    stream survived a worker kill intact. ``on_error="skip"`` drops
    unparseable lines instead, which is how ``repro report`` reads a
    stream truncated by a hard crash: every intact line still renders.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError("on_error must be 'raise' or 'skip'")
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    events: list[dict] = []
    for line in io.StringIO(text):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if on_error == "raise":
                raise
    return events
