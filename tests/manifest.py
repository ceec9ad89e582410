"""The hash manifest of the byte-stable outputs, ``tests/golden/MANIFEST``.

Each line holds an output's sha256, its byte count and the command whose
standard output it is, separated by runs of spaces; ``#`` lines are
comments.  ``test_manifest.py`` runs the CLI lines, ``test_docs.py`` the
demo lines and ``test_robustness.py`` the one on 2^22 distinct samples.
"""

import hashlib
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "golden" / "MANIFEST"


def _entries() -> dict[str, tuple[str, int]]:
    entries = {}
    for text in MANIFEST.read_text(encoding="utf-8").splitlines():
        if text and not text.startswith("#"):
            sha, size, command = text.split(maxsplit=2)
            entries[command] = (sha, int(size))
    return entries


# each command's (sha256, byte count), in the manifest's order
ENTRIES = _entries()


def digest(chunks) -> tuple[str, int]:
    """The sha256 and byte count of an output given as a sequence of byte strings."""
    sha, size = hashlib.sha256(), 0
    for chunk in chunks:
        sha.update(chunk)
        size += len(chunk)
    return sha.hexdigest(), size


def file_chunks(path, size: int = 1 << 20):
    """A file's bytes, a chunk at a time."""
    with open(path, "rb") as fh:
        while chunk := fh.read(size):
            yield chunk


def line(command: str, sha: str, size: int) -> str:
    """The manifest line of an output."""
    return f"{sha}  {size}  {command}"


def check(command: str, chunks) -> None:
    """Assert that an output is the one the manifest holds for its command."""
    got = digest(chunks)
    assert got == ENTRIES[command], f"the output moved; its line is now\n{line(command, *got)}"
