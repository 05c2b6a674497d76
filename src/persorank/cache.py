"""Versioned session caches and JSON payloads, and atomic file writes."""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .logs import DataError, Session

SESSIONS_MAGIC = b"PRNK.SESSIONS.1\n"


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextmanager
def atomic_path(path: str | Path):
    """Yield a fresh temp path beside `path`; rename it into place on success.

    The temp name is unique (mkstemp), so concurrent writers into one
    directory never share a temp file. The renamed file gets the usual
    umask-default permissions rather than mkstemp's 0600.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        yield Path(tmp_name)
        os.chmod(tmp_name, 0o666 & ~_umask())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temp file beside `path` for writing; rename it into place on success."""
    with atomic_path(path) as tmp, open(tmp, mode) as fh:
        yield fh


def save_sessions(sessions: list, path: str | Path) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(SESSIONS_MAGIC)
        pickle.dump(sessions, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_sessions(path: str | Path) -> list[Session]:
    """A session cache.

    A wrong header, a body that does not unpickle, and a body that is not
    a list of sessions raise DataError.
    """
    with open(path, "rb") as fh:
        if fh.read(len(SESSIONS_MAGIC)) != SESSIONS_MAGIC:
            raise DataError(f"{path}: not a cache file of the expected kind/version")
        try:
            sessions = pickle.load(fh)
        except (pickle.UnpicklingError, AttributeError, EOFError, ImportError,
                IndexError) as exc:
            raise DataError(f"{path}: corrupt cache body: {exc!r}") from None
    if not isinstance(sessions, list) or not all(isinstance(s, Session) for s in sessions):
        raise DataError(f"{path}: cache body is not a list of sessions")
    return sessions


def save_json(payload: dict, path: str | Path) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=1)


def load_json(path: str | Path, file_format: str) -> dict:
    """A saved payload whose "format" is `file_format`, at version 1.

    Undecodable JSON and payloads of another format or version raise
    DataError.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{path}: not a JSON file: {exc}") from None
    if (not isinstance(payload, dict) or payload.get("format") != file_format
            or payload.get("version") != 1):
        raise DataError(f"{path} is not a recognized {file_format} file")
    return payload
