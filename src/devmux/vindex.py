"""Exact top-k cosine retrieval over stored embedding vectors.

Vectors are kept as rows of one C-contiguous little-endian float32 matrix
(the on-disk width), so a save/load round trip is bit-identical; ids, paths,
spans and source kinds are column lists beside it, and an id -> row map
makes lookups O(1). Inserted vectors wait in a list and join the matrix in
one copy when a search or lookup next needs it, so building an index costs
no copy per growth step. Search widens a block of rows at a time to double
precision and scores it with one matrix-vector product, finds the k-th
score with `np.partition`, and sorts only the records that reach it, so ties
break by ascending record id (the flat exact search of FAISS `IndexFlatIP`).

The file (format version 2) is three parts: a JSON header line
`{"band_config_hash", "count", "dim", "format_version": 2}`, one JSON line of
the column arrays `{"id", "path", "source_kind", "span"}`, and the
`count * dim` vector matrix as raw little-endian float32 bytes, read with a
single `readinto`. The band hash lives in the header only. Files in the
version-1 layout (per record, a JSON metadata line carrying the band hash and
then the vector bytes) still load; `save` always writes version 2.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .base import IndexFileError
from .configfile import VECTOR_DIM

FORMAT_VERSION = 2
# Rows widened to float64 and scored per matrix-vector product.
_BLOCK_ROWS = 128
# A BLAS matrix-vector product may compute the last rows of a block that is
# not a whole number of row groups through another kernel, so one vector can
# score a different last bit there. Blocks are zero-padded to a multiple of
# this many rows, so every row is scored the same way wherever it sits and
# identical vectors tie exactly.
_ROW_GROUP = 8
_COLUMNS = ("id", "path", "source_kind", "span")


class IndexVersionError(IndexFileError):
    pass


class IndexTruncatedError(IndexFileError):
    pass


class IndexHashMismatchError(IndexFileError):
    pass


class IndexCorruptError(IndexFileError):
    pass


@dataclass(frozen=True)
class RecordMetadata:
    path: str
    span: str = ""
    source_kind: str = "file"


@dataclass(frozen=True)
class Hit:
    id: str
    similarity: float
    metadata: RecordMetadata


@dataclass(frozen=True)
class QueryResult:
    hits: tuple[Hit, ...]

    def ids(self) -> list[str]:
        return [h.id for h in self.hits]


class VectorIndex:
    """In-memory store of (id, vector, metadata) with exhaustive search."""

    def __init__(self, band_config_hash: str, dim: int = VECTOR_DIM):
        self.band_config_hash = band_config_hash
        self.dim = dim
        self._rows: dict[str, int] = {}
        self._ids: list[str] = []
        self._paths: list[str] = []
        self._spans: list[str] = []
        self._kinds: list[str] = []
        self._matrix = np.empty((0, dim), dtype="<f4")
        # Vectors inserted since the matrix was last grown; they join it in
        # one copy when a read needs it.
        self._pending: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> tuple[str, ...]:
        return tuple(self._ids)

    def vector(self, record_id: str) -> np.ndarray:
        return self._vectors()[self._rows[record_id]]

    def _vectors(self) -> np.ndarray:
        """The matrix of all records, grown by any pending inserts."""
        if self._pending:
            self._matrix = np.vstack([self._matrix, *self._pending])
            self._pending = []
        return self._matrix

    def insert(self, record_id: str, vector: np.ndarray, metadata: RecordMetadata) -> None:
        """Store one record. Vectors are quantized to float32, the stored
        width. Duplicate ids and dimension mismatches are rejected."""
        if record_id in self._rows:
            raise ValueError(f"duplicate record id {record_id!r}")
        vector = np.asarray(vector)
        if vector.shape != (self.dim,):
            raise ValueError(f"vector must have shape ({self.dim},), got {vector.shape}")
        self._pending.append(vector.astype("<f4"))
        self._rows[record_id] = len(self._ids)
        self._ids.append(record_id)
        self._paths.append(metadata.path)
        self._spans.append(metadata.span)
        self._kinds.append(metadata.source_kind)

    def _similarities(self, query: np.ndarray) -> np.ndarray:
        """Float64 cosine of every record against `query`; 0 for a zero
        record or a zero query. Each row's norm is bitwise that of
        `np.linalg.norm(matrix, axis=1)`, a pairwise `add.reduce` along the
        row (per-row `np.linalg.norm(row)` can differ in the last bit), and
        its dot product comes from one matrix-vector product."""
        count = len(self._ids)
        sims = np.zeros(count)
        qnorm = np.linalg.norm(query)
        if qnorm == 0.0:
            return sims
        matrix = self._vectors()
        block = np.empty((min(_BLOCK_ROWS, count + (-count) % _ROW_GROUP), self.dim))
        squares = np.empty_like(block)
        for start in range(0, count, _BLOCK_ROWS):
            rows = matrix[start:start + _BLOCK_ROWS]
            scored = block[: len(rows) + (-len(rows)) % _ROW_GROUP]
            scored[: len(rows)] = rows
            scored[len(rows):] = 0.0
            np.multiply(scored, scored, out=squares[: len(scored)])
            norms = np.sqrt(np.add.reduce(squares[: len(rows)], axis=1))
            dots = scored @ query
            nonzero = np.flatnonzero(norms > 0.0)
            sims[start + nonzero] = dots[nonzero] / (norms[nonzero] * qnorm)
        return sims

    def search(self, query: np.ndarray, k: int) -> QueryResult:
        """Exact top-k by cosine over all records; ties by ascending id."""
        if k < 0:
            raise ValueError("k must be >= 0")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},), got {query.shape}")
        if k == 0 or not self._ids:
            return QueryResult(())
        sims = self._similarities(query)
        k = min(k, len(sims))
        kth = -np.partition(-sims, k - 1)[k - 1]
        candidates = np.flatnonzero(sims >= kth).tolist()
        order = sorted(candidates, key=lambda i: (-sims[i], self._ids[i]))[:k]
        return QueryResult(tuple(
            Hit(self._ids[i], float(sims[i]),
                RecordMetadata(path=self._paths[i], span=self._spans[i], source_kind=self._kinds[i]))
            for i in order
        ))

    def save(self, path) -> None:
        header = {
            "format_version": FORMAT_VERSION,
            "dim": self.dim,
            "count": len(self._ids),
            "band_config_hash": self.band_config_hash,
        }
        columns = {"id": self._ids, "path": self._paths, "source_kind": self._kinds, "span": self._spans}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            fh.write(json.dumps(columns, sort_keys=True).encode("utf-8") + b"\n")
            # Pending rows are written as they are, so saving a freshly built
            # index needs no second copy of its vectors.
            fh.write(self._matrix.data)
            fh.writelines(vector.data for vector in self._pending)

    @classmethod
    def load(cls, path) -> "VectorIndex":
        """Read an index file; a failure raises before any partial index
        escapes. Version, truncation, hash, and decode problems surface as
        distinct error kinds, their messages prefixed with `path`."""
        with open(path, "rb") as fh:
            try:
                return cls._read(fh)
            except IndexFileError as err:
                raise type(err)(f"{path}: {err}") from None

    @classmethod
    def _read(cls, fh) -> "VectorIndex":
        header = _read_json_line(fh, "header")
        if not isinstance(header, dict) or "format_version" not in header:
            raise IndexCorruptError("header is missing format_version")
        version = header["format_version"]
        if type(version) is not int or version not in (1, FORMAT_VERSION):
            raise IndexVersionError(
                f"format version {version} unsupported (expected 1 or {FORMAT_VERSION})"
            )
        band_hash = header.get("band_config_hash")
        if not isinstance(band_hash, str):
            raise IndexCorruptError("malformed header: band_config_hash must be a string")
        index = cls(band_config_hash=band_hash, dim=_header_int(header, "dim", 1))
        count = _header_int(header, "count", 0)
        if version == 1:
            index._read_v1_records(fh, count)
        else:
            index._read_v2_body(fh, count)
        if fh.read(1):
            raise IndexCorruptError("trailing bytes after final record")
        return index

    def _read_v1_records(self, fh, count: int) -> None:
        """Version 1: per record, a JSON metadata line with the band hash,
        then the vector bytes."""
        record_bytes = self.dim * 4
        for i in range(count):
            record = _read_json_line(fh, f"record {i} metadata")
            if not isinstance(record, dict):
                raise IndexCorruptError(f"record {i}: metadata is not a JSON object")
            if record.get("band_config_hash") != self.band_config_hash:
                raise IndexHashMismatchError(f"record {i}: band config hash does not match file header")
            blob = fh.read(record_bytes)
            if len(blob) != record_bytes:
                raise IndexTruncatedError(f"record {i}: vector data cut short")
            try:
                self.insert(
                    str(record["id"]),
                    np.frombuffer(blob, dtype="<f4"),
                    RecordMetadata(
                        path=str(record.get("path", "")),
                        span=str(record.get("span", "")),
                        source_kind=str(record.get("source_kind", "file")),
                    ),
                )
            except (KeyError, ValueError) as err:
                raise IndexCorruptError(f"record {i}: {err}") from None

    def _read_v2_body(self, fh, count: int) -> None:
        """Version 2: one JSON line of column arrays, then the whole matrix."""
        columns = _read_json_line(fh, "column arrays")
        if not isinstance(columns, dict) or sorted(columns) != list(_COLUMNS):
            raise IndexCorruptError(f"column arrays must be exactly {', '.join(_COLUMNS)}")
        for name in _COLUMNS:
            column = columns[name]
            if not isinstance(column, list) or len(column) != count:
                raise IndexCorruptError(f"column {name} must be a list of {count} entries")
            if not set(map(type, column)) <= {str}:
                raise IndexCorruptError(f"column {name} holds a value that is not a string")
        rows = dict(zip(columns["id"], range(count)))
        if len(rows) != count:
            raise IndexCorruptError("duplicate record id in column id")
        matrix_bytes = count * self.dim * 4
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if remaining < matrix_bytes:
            raise IndexTruncatedError(f"vector block cut short: {remaining} of {matrix_bytes} bytes")
        if remaining > matrix_bytes:
            raise IndexCorruptError("trailing bytes after final record")
        matrix = np.empty((count, self.dim), dtype="<f4")
        if fh.readinto(matrix.reshape(-1).view(np.uint8)) != matrix_bytes:
            raise IndexTruncatedError("vector block cut short")
        self._matrix, self._rows, self._ids = matrix, rows, columns["id"]
        self._paths, self._spans, self._kinds = columns["path"], columns["span"], columns["source_kind"]


def _read_json_line(fh, what: str):
    line = fh.readline()
    if not line:
        raise IndexTruncatedError(f"missing {what}")
    try:
        return json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise IndexCorruptError(f"unreadable {what}: {err}") from None


def _header_int(header: dict, key: str, minimum: int) -> int:
    value = header.get(key)
    if type(value) is not int or value < minimum:
        raise IndexCorruptError(f"malformed header: {key} must be an integer >= {minimum}, got {value!r}")
    return value

