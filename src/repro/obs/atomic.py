"""Atomic file output shared by every artifact writer.

Journals aside (they stream), each artifact the package writes — run
cache entries and their telemetry sidecars, ``--metrics-out``,
``--spans`` and ``--trace`` files — goes through :func:`write_atomic`:
the content lands in a temp file in the target's directory and is
``os.replace``\\ d over the target, so a killed or failing writer never
leaves a half-written artifact behind, and the temp file is removed on
any error.
"""

from __future__ import annotations

import os
import tempfile


def write_atomic(path, write, prefix: str) -> None:
    """Write ``path`` through ``write(handle)``, atomically.

    ``write`` receives an open text handle on a temp file named
    ``<prefix>*.tmp`` beside ``path``; whatever it raises propagates
    after the temp file is unlinked, and ``path`` is untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=directory, prefix=prefix,
        suffix=".tmp", delete=False)
    try:
        with handle:
            write(handle)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
