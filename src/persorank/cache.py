"""Versioned binary caches and atomic file writes."""

from __future__ import annotations

import os
import pickle
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .logs import DataError

SESSIONS_MAGIC = b"PRNK.SESSIONS.1\n"
INDEX_MAGIC = b"PRNK.INDEX.1\n"


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


def _save(path: str | Path, magic: bytes, payload) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(magic)
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _load(path: str | Path, magic: bytes):
    with open(path, "rb") as fh:
        head = fh.read(len(magic))
        if head != magic:
            raise DataError(f"{path}: not a cache file of the expected kind/version")
        return pickle.load(fh)


def save_sessions(sessions: list, path: str | Path) -> None:
    _save(path, SESSIONS_MAGIC, sessions)


def load_sessions(path: str | Path) -> list:
    return _load(path, SESSIONS_MAGIC)


def save_index(query_index, user_history, ranks, path: str | Path) -> None:
    _save(path, INDEX_MAGIC, (query_index, user_history, ranks))


def load_index(path: str | Path):
    return _load(path, INDEX_MAGIC)
