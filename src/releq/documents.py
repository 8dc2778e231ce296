"""JSON problem documents: the single on-disk input format.

A document carries the problem description (dimension, exponent, masses,
frequencies), optional candidate positions, and free-form metadata.
Numbers round-trip bit-faithfully (shortest repr). Documents and the CLI
reports share one text format, 2-space-indented JSON with a final newline
(`json_chunks`). Writes are atomic: a temp file in the target directory,
created under the umask, then a rename. A text given as chunks is written
in blocks as it is encoded, so it is never held whole in memory.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

from .errors import DocumentError
from .model import Configuration, Problem, check_problem_config

SCHEMA_VERSION = "1"

_BLOCK = 512       # chunks joined into one write (about 12 KB of a report)

_KEY_ORDER = ("schema_version", "dimension", "exponent", "masses",
              "frequencies", "positions", "metadata")


@dataclass(frozen=True, eq=False)
class ProblemDocument:
    """A document's validated contents: its Problem, its Configuration
    (None when the document has no positions) and its string metadata."""

    problem: Problem
    config: Configuration | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.config is not None:
            check_problem_config(self.problem, self.config)
        object.__setattr__(self, "metadata", dict(self.metadata or {}))


def _number(x):
    """``float(x)``; an int beyond the float range reads as +-inf, as json
    reads 1e400 (``math.copysign`` would raise on such an int too)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _number_list(value, name, length=None):
    if not isinstance(value, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    ):
        raise DocumentError(f"field '{name}' must be an array of numbers")
    if length is not None and len(value) != length:
        raise DocumentError(
            f"field '{name}' must have length {length}, got {len(value)}")
    return [_number(x) for x in value]


def parse_document(text):
    """Parse and validate a JSON document string into a ProblemDocument."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")

    unknown = set(raw) - set(_KEY_ORDER)
    if unknown:
        raise DocumentError(f"unknown field(s): {', '.join(sorted(unknown))}")
    for required in ("schema_version", "dimension", "exponent", "masses",
                     "frequencies"):
        if required not in raw:
            raise DocumentError(f"missing required field '{required}'")

    version = raw["schema_version"]
    if not isinstance(version, str) or version != SCHEMA_VERSION:
        raise DocumentError(
            f"field 'schema_version' must be the string '{SCHEMA_VERSION}'")
    dimension = raw["dimension"]
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise DocumentError("field 'dimension' must be an integer")
    exponent = raw["exponent"]
    if not isinstance(exponent, (int, float)) or isinstance(exponent, bool):
        raise DocumentError("field 'exponent' must be a number")
    exponent = _number(exponent)
    masses = _number_list(raw["masses"], "masses")
    frequencies = _number_list(raw["frequencies"], "frequencies")
    # value ranges are Problem's to check
    try:
        problem = Problem(dimension, masses, frequencies, exponent)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc

    positions = raw.get("positions")
    if positions is not None:
        if not isinstance(positions, list) or len(positions) != len(masses):
            raise DocumentError(
                f"field 'positions' must be an array of {len(masses)} points")
        positions = [
            _number_list(row, f"positions[{i}]", length=dimension)
            for i, row in enumerate(positions)
        ]

    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise DocumentError("field 'metadata' must be a string-to-string map")

    config = None
    if positions is not None:
        # collisions are Configuration's to check
        try:
            config = Configuration(positions)
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    return ProblemDocument(problem, config, metadata)


def load_document(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read())


def json_chunks(payload):
    """``json.dumps(payload, indent=2) + "\n"`` as the encoder's chunks."""
    yield from json.JSONEncoder(indent=2).iterencode(payload)
    yield "\n"


def dumps_document(doc):
    """Canonical serialization: fixed key order, 2-space indent."""
    problem = doc.problem
    payload = {
        "schema_version": SCHEMA_VERSION,
        "dimension": problem.k,
        "exponent": problem.a,
        "masses": problem.masses.tolist(),
        "frequencies": problem.frequencies.tolist(),
    }
    if doc.config is not None:
        payload["positions"] = doc.config.points.tolist()
    if doc.metadata:
        payload["metadata"] = doc.metadata
    return "".join(json_chunks(payload))


def write_blocks(handle, text):
    """Write ``text``, a str or an iterable of str, to ``handle``; chunks
    are joined _BLOCK at a time, so each write is one bounded block."""
    if isinstance(text, str):
        handle.write(text)
        return
    chunks = iter(text)
    while block := list(itertools.islice(chunks, _BLOCK)):
        handle.write("".join(block))


def write_text_atomic(path, text):
    """Write ``text`` (see `write_blocks`) to a new temp file in the same
    directory, then rename it over ``path``. The temp file is created with
    mode 0o666, so the result has the permissions the umask gives a new
    file; on any error it is removed and ``path`` is left as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            write_blocks(handle, text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def save_document(path, doc):
    write_text_atomic(path, dumps_document(doc))
