"""Shared small utilities: RNG handling, argument validation, durable writes.

Every randomized component in this library accepts an optional ``rng``
argument.  Passing ``None`` gives a fresh non-deterministic generator;
passing an ``int`` seeds a new generator; passing a
:class:`numpy.random.Generator` uses it directly.  This keeps experiments
reproducible end-to-end while letting library users ignore seeding
entirely.

The durable-write helpers (:func:`atomic_write_bytes`,
:func:`fsync_directory`, :func:`interprocess_lock`) serve every on-disk
store: the service's, the job journal and the observatory.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union

import numpy as np

try:  # pragma: no cover - always present on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

RngLike = Union[None, int, np.random.Generator]


def as_generator(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    >>> g = as_generator(42)
    >>> isinstance(g, np.random.Generator)
    True
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def check_positive(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is a finite positive number."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def check_probability(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` lies in ``[0, 1]``."""
    if not np.isfinite(value) or value < 0 or value > 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def check_int_at_least(name: str, value: int, minimum: int) -> int:
    """Raise ``ValueError`` unless ``value`` is an integer >= ``minimum``."""
    if int(value) != value or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_matrix_square(name: str, matrix: np.ndarray) -> np.ndarray:
    """Raise ``ValueError`` unless ``matrix`` is a square 2-D array."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {matrix.shape}")
    return matrix


def pairs_count(m: int) -> int:
    """Number of unordered attribute pairs, ``C(m, 2)``."""
    check_int_at_least("m", m, 1)
    return m * (m - 1) // 2


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (tmp file + ``os.replace``).

    Readers never observe a half-written file: they see either the old
    content or the new content.  The tmp file is created in the target
    directory so the final rename stays on one filesystem.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def fsync_directory(directory: Path) -> None:
    """Flush a directory entry so a rename survives power loss.

    ``os.replace`` is atomic against concurrent readers but the new
    directory entry itself still lives in the page cache until the
    directory inode is synced; without this a crash can roll the rename
    back entirely.  Best-effort: some filesystems refuse ``O_RDONLY``
    directory fds, which we treat as "already durable enough".
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(dir_fd)


@contextmanager
def interprocess_lock(lock_path: Path) -> Iterator[None]:
    """Exclusive ``fcntl.flock`` over ``lock_path`` (created if missing).

    Serializes a critical section across *processes*; pair it with a
    ``threading`` lock for this process's threads.  Not reentrant.
    Leaving the block unlocks explicitly: a flock belongs to the open
    file description, which a child forked inside the block shares, so
    closing this process's descriptor alone would leave the lock held
    until that child exits.  A crashed holder's descriptors close with
    it, so it can never wedge its siblings.  No-op where ``fcntl`` does
    not exist (non-POSIX): there the service is single-process only,
    matching the pre-fork server's platform support.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)
