"""The CLI's on-disk cache of the datasets it parses from ``--data`` files.

``dataset`` is the one entry point. Entries live in
``$XDG_CACHE_HOME/predictimands`` or ``~/.cache/predictimands``, each one
file named by a SHA-256 of ``_TAG``, the Python and numpy versions, the
sources of ``data.py`` and of this module, the read options and the file's
bytes, so an entry is never stale, only unused. An entry is an uncompressed
``.npz`` of the dataset's columns, its covariates stacked in schema order,
and its ids, schema and design as UTF-8 JSON (a fixed-width numpy string
drops a trailing NUL); a hit is rebuilt by the validating constructor. A
store writes a temporary file in the directory and moves it into place;
past ``CACHE_BYTES`` the least recently used entries go, a read counting as
a use. Nothing here raises but ``parse``: a fault is a miss or a skipped
store.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import stat
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from . import data
from .errors import DataError

#: total bytes of the cache's files past which the least recently used are
#: removed
CACHE_BYTES = 256 * 2**20
#: the first part of every entry's key, changed whenever the key does
_TAG = b"predictimands dataset cache 1"
#: what reading a damaged entry may raise
_DAMAGED = (OSError, EOFError, ValueError, LookupError, TypeError, zipfile.BadZipFile,
            DataError)


def dataset(path, options, parse):
    """The dataset in the file at ``path`` read with the JSON list
    ``options``. A regular file's entry is rebuilt if there is one; else
    ``parse()`` is stored if the file did not change while it was hashed
    and read. Any other file, such as a pipe, is just ``parse()``."""
    entry = _entry(path, options)
    if entry is None:
        return parse()
    ds = _load(entry[0])
    if ds is None:
        ds = parse()
        _store(*entry, path, ds)
    return ds


def _identity(st) -> tuple:
    """The fields of a file's ``stat`` that change when it is rewritten."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _entry(path, options):
    """The entry of the regular file at ``path`` read with ``options``, and
    the file's identity when it was hashed; None for any other file or
    without a cache directory, made with mode 0o700 if missing."""
    import hashlib  # here: it loads OpenSSL, which commands without --data never use
    base = os.environ.get("XDG_CACHE_HOME", "")
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        where = (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "predictimands"
        where.mkdir(mode=0o700, parents=True, exist_ok=True)
        key = hashlib.sha256()
        for part in (_TAG, sys.version.encode(), np.__version__.encode(),
                     Path(data.__file__).read_bytes(), Path(__file__).read_bytes(),
                     json.dumps(options, sort_keys=True).encode()):
            key.update(len(part).to_bytes(8, "little"))
            key.update(part)
        with open(path, "rb") as fh:
            identity = _identity(os.fstat(fh.fileno()))
            for chunk in iter(functools.partial(fh.read, 1 << 20), b""):
                key.update(chunk)
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    return where / f"{key.hexdigest()}.npz", identity


def _load(entry: Path):
    """The dataset stored at ``entry``, after which its use time is
    refreshed; None if there is no such file or it is damaged."""
    try:
        with np.load(entry, allow_pickle=False) as archive:
            meta = json.loads(archive["meta"].tobytes())
            ids, levels = meta["ids"], meta["levels"]
            if not (isinstance(ids, list) and set(map(type, ids)) <= {str}
                    and isinstance(levels, dict)):
                return None
            schema = data.CovariateSchema(meta["baseline"], meta["time_varying"],
                                          {name: tuple(labels)
                                           for name, labels in levels.items()})
            ds = data.CountingProcessDataset(
                schema, meta["design"], ids, archive["offsets"], archive["tstart"],
                archive["tstop"], archive["status"], archive["treated"],
                dict(zip(schema.names(), archive["columns"])))
    except _DAMAGED:
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return ds


def _save(ds, file) -> None:
    """Write ``ds`` to the binary ``file`` as an entry."""
    names = ds.schema.names()
    meta = {"ids": list(ds.ids), "baseline": list(ds.schema.baseline),
            "time_varying": list(ds.schema.time_varying),
            "levels": {name: list(labels) for name, labels in ds.schema.levels.items()},
            "design": ds.design.value}
    np.savez(file, meta=np.frombuffer(json.dumps(meta).encode(), np.uint8),
             offsets=ds.offsets, tstart=ds.tstart, tstop=ds.tstop, status=ds.status,
             treated=ds.treated, columns=np.array([ds.columns[name] for name in names],
                                                  float).reshape(len(names), ds.n_rows))


def _store(entry: Path, identity, path, ds) -> None:
    """Store ``ds`` at ``entry`` if the file at ``path`` still has the
    ``identity`` it had when hashed, through a temporary file in the
    entry's directory, then remove the least recently used files past
    ``CACHE_BYTES``. An OSError skips the rest."""
    try:
        if _identity(os.stat(path)) != identity:
            return
        fd, temp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                _save(ds, fh)
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
