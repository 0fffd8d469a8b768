"""Atomic, checksum-verified checkpoint I/O.

The failure this module exists to prevent: a long quantization (or training)
run dies mid-``np.savez`` and leaves a truncated archive that a later load
picks up blindly.  Two mechanisms close that hole:

* **Atomic writes** — payloads are serialized to memory, written to a
  temporary file *in the destination directory*, fsynced, and
  ``os.replace``-d into place.  A crash at any point leaves either the old
  file or the new file, never a torn one.
* **SHA-256 sidecars** — every write also lands ``<file>.sha256`` holding
  the payload digest, computed from the in-memory payload that was written,
  so a write never reads its file back.  The sidecar lands *first* and
  records the digest of the file it replaces too, so a crash between the
  two renames leaves the previous file verifiable (see
  :func:`_atomic_write_checksummed`).  :func:`verify_checksum` re-hashes on
  load and raises :class:`~repro.runtime.errors.CheckpointError` when the
  file matches no recorded digest, which catches bit-flips that a
  successful ``np.load`` would happily decode.

On top of the primitives sits a small ``.npz``-based container
(:func:`save_checkpoint` / :func:`load_checkpoint`) that pairs arbitrary
named arrays with a JSON metadata blob — the on-disk format of APTQ
per-block run checkpoints (:mod:`repro.core.aptq`).  It is a *stored*
(uncompressed) archive: a run rewrites it after every block, float64
weights barely deflate, and deflating was ~90% of each write.  Deploy
artifacts and model checkpoints (:mod:`repro.nn.serialize`) are written
once and stay compressed (:func:`atomic_save_npz`).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.runtime import faults
from repro.runtime.errors import CheckpointError

__all__ = [
    "atomic_write_bytes",
    "atomic_save_npz",
    "sha256_of_file",
    "checksum_path",
    "write_checksum",
    "verify_checksum",
    "save_checkpoint",
    "load_checkpoint",
]

_META_KEY = "__checkpoint_json__"


def atomic_write_bytes(path: str | Path, data: bytes | memoryview) -> Path:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.replace``).

    The ``"io"`` fault site (key: the file name) fires after the fsync and
    before the rename, where a real crash or a full disk would strike.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        faults.maybe_fault("io", path.name)
        os.replace(tmp_name, path)
    except BaseException:
        # The temp file must never survive a failed write.
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _npz_bytes(arrays: Mapping[str, np.ndarray], compressed: bool) -> memoryview:
    """``arrays`` serialized to an in-memory ``.npz`` (deflated or stored)."""
    buffer = io.BytesIO()
    save = np.savez_compressed if compressed else np.savez
    save(buffer, **dict(arrays))
    return buffer.getbuffer()


def atomic_save_npz(path: str | Path, arrays: Mapping[str, np.ndarray]) -> Path:
    """Write ``arrays`` as a compressed ``.npz``, atomically and checksummed."""
    return _atomic_write_checksummed(path, _npz_bytes(arrays, compressed=True))


def sha256_of_file(path: str | Path) -> str:
    """Hex SHA-256 digest of a file's contents (streamed, constant memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def checksum_path(path: str | Path) -> Path:
    """Sidecar path holding a file's SHA-256 (``<file>.sha256``)."""
    path = Path(path)
    return path.with_name(path.name + ".sha256")


def _write_sidecar(path: Path, *digests: str) -> Path:
    lines = "".join(f"{digest}  {path.name}\n" for digest in digests)
    return atomic_write_bytes(checksum_path(path), lines.encode())


def _recorded_digests(sidecar: Path) -> list[str]:
    """The digests a sidecar records, newest first."""
    digests = [line.split()[0] for line in sidecar.read_text().splitlines()
               if line.strip()]
    if not digests or any(len(digest) != 64 for digest in digests):
        raise CheckpointError(f"unparseable checksum sidecar {sidecar}")
    return digests


def write_checksum(path: str | Path) -> Path:
    """Write the SHA-256 sidecar for ``path`` (atomically) and return it."""
    path = Path(path)
    return _write_sidecar(path, sha256_of_file(path))


def _replaced_digest(path: Path) -> str | None:
    """Digest of the verifiable file a write to ``path`` replaces, if any.

    A one-digest sidecar names it.  Two digests are left only by a write
    interrupted between its renames; the file is hashed to tell which.
    """
    sidecar = checksum_path(path)
    if not (path.exists() and sidecar.exists()):
        return None
    try:
        digests = _recorded_digests(sidecar)
    except CheckpointError:
        return None
    if len(digests) == 1:
        return digests[0]
    actual = sha256_of_file(path)
    return actual if actual in digests else None


def _atomic_write_checksummed(path: str | Path, data: bytes | memoryview) -> Path:
    """:func:`atomic_write_bytes` plus a sidecar digested from ``data``.

    Same sidecar as :func:`write_checksum`, but hashed from the bytes in
    memory rather than by reading the written file back.  The sidecar
    lands first, recording the new digest and the one it replaces, so
    every crash point leaves a pair that verifies: a failed sidecar write
    leaves the previous pair untouched, and a failed file write leaves the
    previous file matching its recorded digest.  Once the file is in
    place the sidecar is narrowed to the new digest.
    """
    path = Path(path)
    digest = hashlib.sha256(data).hexdigest()
    replaced = _replaced_digest(path)
    if replaced is None or replaced == digest:
        _write_sidecar(path, digest)
        return atomic_write_bytes(path, data)
    _write_sidecar(path, digest, replaced)
    atomic_write_bytes(path, data)
    _write_sidecar(path, digest)
    return path


def verify_checksum(path: str | Path, required: bool = False) -> bool:
    """Check ``path`` against its SHA-256 sidecar.

    Returns True when the file matches a recorded digest — the newest, or
    the one it replaces while a write is between its renames — and False
    when no sidecar exists and ``required`` is False.  Raises
    :class:`CheckpointError` on a digest mismatch, an unparseable sidecar,
    or a missing sidecar with ``required=True``.
    """
    path = Path(path)
    sidecar = checksum_path(path)
    if not sidecar.exists():
        if required:
            raise CheckpointError(f"no checksum sidecar for {path}")
        return False
    recorded = _recorded_digests(sidecar)
    actual = sha256_of_file(path)
    if actual not in recorded:
        raise CheckpointError(
            f"checksum mismatch for {path}: file hashes to {actual[:12]}..., "
            f"sidecar records {recorded[0][:12]}...; the checkpoint is "
            "corrupt (truncated or bit-flipped)"
        )
    return True


def save_checkpoint(
    path: str | Path, arrays: Mapping[str, np.ndarray], meta: Mapping
) -> Path:
    """Atomically write arrays + JSON ``meta`` as one checksummed ``.npz``.

    The archive is stored, not deflated (see the module docstring).
    """
    payload = dict(arrays)
    if _META_KEY in payload:
        raise ValueError(f"array name {_META_KEY!r} is reserved")
    payload[_META_KEY] = np.frombuffer(
        json.dumps(dict(meta)).encode(), dtype=np.uint8
    )
    archive = _npz_bytes(payload, compressed=False)
    return _atomic_write_checksummed(path, archive)


def load_checkpoint(
    path: str | Path, verify: bool = True
) -> tuple[dict[str, np.ndarray], dict]:
    """Load a :func:`save_checkpoint` archive, returning ``(arrays, meta)``.

    With ``verify=True`` (default) the SHA-256 sidecar is checked first when
    present.  Raises :class:`CheckpointError` for any unreadable, truncated,
    or metadata-less archive; ``FileNotFoundError`` passes through untouched
    so "no checkpoint yet" stays distinguishable from "bad checkpoint".
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if verify:
        verify_checksum(path, required=False)
    try:
        with np.load(path) as archive:
            raw = {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as error:
        raise CheckpointError(f"unreadable checkpoint {path}: {error}") from error
    if _META_KEY not in raw:
        raise CheckpointError(
            f"checkpoint {path} has no {_META_KEY} entry; it was not written "
            "by repro.runtime.checkpoint.save_checkpoint"
        )
    try:
        meta = json.loads(raw.pop(_META_KEY).tobytes().decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(
            f"checkpoint {path} carries corrupt metadata: {error}"
        ) from error
    return raw, meta
