"""Versioned session caches and JSON payloads, and atomic file writes."""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .logs import GRADES, SERP_SIZE, DataError, Session, SessionColumns

SESSIONS_MAGIC = b"PRNK.SESSIONS.2\n"


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", newline: str | None = None):
    """Open a temp file beside `path` for writing; rename it into place on success.

    The temp name is unique (mkstemp), so concurrent writers into one
    directory never share a temp file. The renamed file gets the usual
    umask-default permissions rather than mkstemp's 0600. `newline` is
    `open`'s: CSV writers pass "" to keep their CRLF line ends. A temp file
    that cannot be created raises DataError naming `path`.
    """
    path = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    except OSError as exc:
        raise DataError(f"cannot create {path}: {exc.strerror}") from None
    os.close(fd)
    try:
        with open(tmp_name, mode, newline=newline) as fh:
            yield fh
        os.chmod(tmp_name, 0o666 & ~_umask())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_sessions(sessions: list[Session] | SessionColumns, path: str | Path) -> None:
    """Write sessions as `SessionColumns`: the magic line, then an uncompressed npz."""
    if not isinstance(sessions, SessionColumns):
        sessions = SessionColumns.of(sessions)
    with atomic_write(path, "wb") as fh:
        fh.write(SESSIONS_MAGIC)
        np.savez(fh, **sessions.arrays())


def load_sessions(path: str | Path) -> list[Session]:
    """A session cache as a session list (see load_columns)."""
    return load_columns(path).sessions()


# Each column's dtype, and the column whose total gives its rows (None: one row
# per session). Count columns come before the columns they count.
_LAYOUT = {
    "session_id": (np.int64, None),
    "user_id": (np.int64, None),
    "day": (np.int64, None),
    "n_impressions": (np.int64, None),
    "serp_id": (np.int64, "n_impressions"),
    "query_id": (np.int64, "n_impressions"),
    "time_passed": (np.int64, "n_impressions"),
    "is_test": (np.bool_, "n_impressions"),
    "n_terms": (np.int64, "n_impressions"),
    "n_clicks": (np.int64, "n_impressions"),
    "documents": (np.int64, "n_impressions"),
    "domains": (np.int64, "n_impressions"),
    "grades": (np.int8, "n_impressions"),
    "terms": (np.int64, "n_terms"),
    "click_url": (np.int64, "n_clicks"),
    "click_time": (np.int64, "n_clicks"),
}
_PER_RESULT = ("documents", "domains", "grades")  # (rows, 10)


def load_columns(path: str | Path) -> SessionColumns:
    """A session cache, loaded without unpickling anything.

    A wrong header, a body that is not an npz of plain arrays, and arrays
    that do not form `SessionColumns` raise DataError naming the file: a
    missing or extra array, a wrong dtype or shape, a negative count, counts
    that do not add up to the rows they count, and grade codes other than
    0-3, or -1 across a whole impression.
    """
    with open(path, "rb") as fh:
        if fh.read(len(SESSIONS_MAGIC)) != SESSIONS_MAGIC:
            raise DataError(f"{path}: not a cache file of the expected kind/version "
                            "(rerun parse to rebuild it)")
        try:
            body = np.load(fh, allow_pickle=False)
            if not isinstance(body, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            with body:
                arrays = {name: body[name] for name in body.files}
        except (ValueError, OSError, EOFError, KeyError, zipfile.BadZipFile) as exc:
            raise DataError(f"{path}: corrupt cache body: {exc!r}") from None
    if set(arrays) != set(_LAYOUT):
        raise DataError(f"{path}: cache body holds arrays {sorted(arrays)}, "
                        f"expected {sorted(_LAYOUT)}")
    rows = {None: len(arrays["session_id"])}
    for name, (dtype, counted_by) in _LAYOUT.items():
        array = arrays[name]
        shape = (rows[counted_by],) + ((SERP_SIZE,) if name in _PER_RESULT else ())
        if not isinstance(array, np.ndarray) or array.dtype != dtype or array.shape != shape:
            counted = f" ({counted_by} adds up to {shape[0]})" if counted_by else ""
            raise DataError(f"{path}: cache array {name} is not {np.dtype(dtype)} of "
                            f"shape {shape}{counted}")
        if name.startswith("n_"):
            if array.min(initial=0) < 0:
                raise DataError(f"{path}: cache array {name} holds a negative count")
            rows[name] = sum(array.tolist())  # Python ints: no overflow
    grades = arrays["grades"]
    whole = (grades >= 0).all(axis=1) | (grades == -1).all(axis=1)
    if grades.max(initial=0) >= len(GRADES) or not whole.all():
        raise DataError(f"{path}: cache array grades holds a code other than "
                        f"0-{len(GRADES) - 1}, or -1 across a whole impression")
    return SessionColumns(**arrays)


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
