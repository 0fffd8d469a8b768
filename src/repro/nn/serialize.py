"""Model checkpoint (de)serialisation as ``.npz`` archives with JSON config.

Writes go through :mod:`repro.runtime.checkpoint`, so a checkpoint on disk
is always either the complete old file or the complete new file (tmp-file +
``os.replace``), never a torn one, and always carries a SHA-256 sidecar
that loads verify against.  Unreadable or incomplete archives raise
:class:`~repro.runtime.errors.CheckpointError` instead of leaking raw
``KeyError``/``zipfile`` internals.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from repro.nn.config import LlamaConfig
from repro.nn.modules import Module
from repro.runtime.checkpoint import atomic_save_npz, verify_checksum
from repro.runtime.errors import CheckpointError

__all__ = ["save_arrays", "load_arrays", "save_state_dict", "load_state_dict"]

_CONFIG_KEY = "__config_json__"
_META_KEY = "__meta_json__"


def _encode_config(config: LlamaConfig) -> np.ndarray:
    """``config`` as a JSON byte array embeddable in the ``.npz`` archive.

    ``json.dumps`` keeps its default ``ensure_ascii=True``, so the encoded
    record is pure 7-bit ASCII — the contract :func:`_decode_config`
    assumes when it decodes the bytes back.

    Bits:
        return: u8[0, 127]
    """
    return np.frombuffer(
        json.dumps(config.to_dict()).encode(), dtype=np.uint8
    )


def _decode_config(raw: np.ndarray) -> LlamaConfig:
    """Inverse of :func:`_encode_config`.

    Bits:
        raw: u8[0, 127]
        return: any
    """
    return LlamaConfig.from_dict(json.loads(raw.tobytes().decode()))


def save_arrays(
    path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None
) -> Path:
    """Write named arrays plus a JSON header to a single ``.npz``.

    The generic sibling of :func:`save_state_dict` used by payload
    producers that are not plain state dicts (the quantization format
    registry's packed artifacts).  The write is atomic and leaves a
    SHA-256 sidecar; ``meta`` must be JSON-serialisable and is embedded
    under a reserved ``__meta_json__`` key.
    """
    payload = dict(arrays)
    if _META_KEY in payload:
        raise ValueError(f"array name {_META_KEY!r} is reserved for the header")
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta if meta is not None else {}).encode(), dtype=np.uint8
    )
    return atomic_save_npz(path, payload)


def load_arrays(
    path: str | Path, verify: bool = True
) -> tuple[dict[str, np.ndarray], dict]:
    """Read an archive written by :func:`save_arrays` → (arrays, meta).

    Mirrors :func:`load_state_dict`'s failure taxonomy: checksum mismatch,
    unreadable archive, or a missing/corrupt header raise
    :class:`CheckpointError`; a missing file stays ``FileNotFoundError``.
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
        raise CheckpointError(f"unreadable archive {path}: {error}") from error
    if _META_KEY not in raw:
        raise CheckpointError(
            f"archive {path} carries no {_META_KEY} entry; it was not "
            "written by save_arrays"
        )
    try:
        meta = json.loads(raw.pop(_META_KEY).tobytes().decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(
            f"archive {path} carries a corrupt header record: {error}"
        ) from error
    return raw, meta


def save_state_dict(path: str | Path, model: Module, config: LlamaConfig) -> None:
    """Write ``model``'s parameters and ``config`` to a single ``.npz``.

    The write is atomic (tmp file in the destination directory +
    ``os.replace``) and leaves a ``<path>.sha256`` sidecar; a crash
    mid-write can never produce a truncated archive that a later
    :func:`load_state_dict` (or ``repro.models.zoo.pretrained``) loads
    blindly.
    """
    payload = dict(model.state_dict())
    payload[_CONFIG_KEY] = _encode_config(config)
    atomic_save_npz(path, payload)


def load_state_dict(
    path: str | Path, verify: bool = True
) -> tuple[dict[str, np.ndarray], LlamaConfig]:
    """Read a checkpoint, returning (state dict, config).

    With ``verify=True`` the SHA-256 sidecar (when present) must match the
    archive.  Raises :class:`CheckpointError` for a corrupt or truncated
    archive, a checksum mismatch, or an archive without the
    ``__config_json__`` entry; a missing file stays ``FileNotFoundError``
    so "no checkpoint yet" remains distinguishable from "bad checkpoint".
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
        raise CheckpointError(
            f"unreadable checkpoint {path}: {error}"
        ) from error
    if _CONFIG_KEY not in raw:
        raise CheckpointError(
            f"checkpoint {path} carries no {_CONFIG_KEY} entry; it was not "
            "written by save_state_dict"
        )
    try:
        config = _decode_config(raw.pop(_CONFIG_KEY))
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as error:
        raise CheckpointError(
            f"checkpoint {path} carries a corrupt config record: {error}"
        ) from error
    return raw, config
