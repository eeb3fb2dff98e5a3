"""The CLI's on-disk cache of the datasets it parses from ``--data`` files.

The entries live in ``$XDG_CACHE_HOME/predictimands`` or
``~/.cache/predictimands``, each one file named by a SHA-256 of everything
its content depends on, so an entry is never stale, only unused. A store
writes a temporary file in the directory and moves it into place; past
``CACHE_BYTES`` the least recently used entries go, a read counting as a
use. Nothing here raises: a fault is a miss or a skipped store.
"""

from __future__ import annotations

import contextlib
import os
import stat
import tempfile
from pathlib import Path

#: total bytes of the cache's files past which the least recently used are
#: removed
CACHE_BYTES = 256 * 2**20


def directory():
    """The cache directory, ``$XDG_CACHE_HOME/predictimands`` or
    ``~/.cache/predictimands``, created with mode 0o700 if missing; None if
    it can be neither found nor created."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    try:
        path = (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "predictimands"
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    return path


def digest(parts):
    """A SHA-256 of the byte strings ``parts``, each preceded by its length
    as 8 little-endian bytes; the caller may add more bytes to it."""
    import hashlib  # here: it loads OpenSSL, which commands without --data never use
    key = hashlib.sha256()
    for part in parts:
        key.update(len(part).to_bytes(8, "little"))
        key.update(part)
    return key


def load(entry: Path, read, damaged: tuple):
    """``read(fh)`` of the file at ``entry`` opened for binary reading, after
    which the entry's use time is refreshed; None if there is no such file
    or ``read`` raises one of ``damaged``."""
    try:
        with open(entry, "rb") as fh:
            value = read(fh)
    except damaged:
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return value


def store(entry: Path, write) -> None:
    """Store at ``entry`` what ``write(fh)`` writes, through a temporary
    file in the entry's directory, then remove the least recently used
    files past ``CACHE_BYTES``. An OSError skips the rest."""
    try:
        fd, temp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(temp, entry)
        finally:
            with contextlib.suppress(OSError):  # gone once replaced
                os.unlink(temp)
        _trim(entry.parent)
    except OSError:
        pass


def _trim(path: Path) -> None:
    """Remove the least recently used regular files of the directory at
    ``path`` until the rest take at most ``CACHE_BYTES``."""
    files = []
    with os.scandir(path) as items:
        for item in items:
            with contextlib.suppress(FileNotFoundError):
                st = item.stat(follow_symlinks=False)
                if stat.S_ISREG(st.st_mode):
                    files.append((st.st_mtime_ns, st.st_size, item.path))
    total = sum(size for _, size, _ in files)
    for _, size, name in sorted(files):
        if total <= CACHE_BYTES:
            break
        with contextlib.suppress(FileNotFoundError):
            os.remove(name)
        total -= size
