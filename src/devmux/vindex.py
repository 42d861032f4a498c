"""Exact top-k cosine retrieval over stored embedding vectors.

Vectors are kept as rows of one C-contiguous little-endian float32 matrix
(the on-disk width), so a save/load round trip is bit-identical; ids, paths,
spans and source kinds are column lists beside it, and an id -> row map
makes lookups O(1). Each row's float64 norm is kept beside the matrix, so a
search does not recompute it. Inserted vectors wait in a list and join the
matrix, with their norms, in one copy when a search or lookup next needs
it, so building an index costs no copy per growth step. Search widens a
block of rows at a time to double precision and scores it with one
matrix-vector product, divides by the stored norms, finds the k-th score
with `np.partition`, and sorts only the records that reach it, so ties
break by ascending record id (the flat exact search of FAISS `IndexFlatIP`).

The file (format version 3) is four parts: a JSON header line
`{"band_config_hash", "count", "dim", "format_version": 3}`, one JSON line of
the column arrays `{"id", "path", "source_kind", "span"}`, the
`count * dim` vector matrix as raw little-endian float32 bytes, and the
`count` row norms as raw little-endian float64 bytes. Load maps the file
read-only and views the matrix and the norms in place, so vectors of a
loaded index are read-only. `save` writes a new file beside the target and
renames it over the target, so an index mapped from the old file keeps its
bytes. The band hash lives in the header only. `load` reads only the version
`save` writes: an index file of any other version raises
`IndexVersionError` (`query` exits 3) until `devmux index` rebuilds it.
"""

from __future__ import annotations

import json
import mmap
import os
from dataclasses import dataclass

import numpy as np

from .base import IndexFileError
from .configfile import VECTOR_DIM

FORMAT_VERSION = 3
# Rows widened to float64 per norm pass and per matrix-vector product.
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


def _row_norms(matrix) -> np.ndarray:
    """Float64 norm of each row of `matrix` (a float32 matrix or a list of
    float32 vectors), bitwise that of `np.linalg.norm(matrix.astype(np.float64),
    axis=1)`: a pairwise `add.reduce` along the row (per-row
    `np.linalg.norm(row)` can differ in the last bit), a block of rows at a
    time."""
    norms = np.empty(len(matrix), dtype="<f8")
    for start in range(0, len(matrix), _BLOCK_ROWS):
        block = np.array(matrix[start:start + _BLOCK_ROWS], dtype=np.float64)
        np.multiply(block, block, out=block)
        norms[start:start + len(block)] = np.sqrt(np.add.reduce(block, axis=1))
    return norms


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
        # Norm of each matrix row; pending inserts get theirs when they join.
        self._norms = np.empty(0, dtype="<f8")
        # Vectors inserted since the matrix was last grown; they join it in
        # one copy when a read needs it.
        self._pending: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> tuple[str, ...]:
        return tuple(self._ids)

    def vector(self, record_id: str) -> np.ndarray:
        return self._vectors()[self._rows[record_id]]

    def _all_norms(self) -> np.ndarray:
        """The norm of every record: the matrix rows' stored ones, then those
        of pending inserts."""
        if not self._pending:
            return self._norms
        return np.concatenate([self._norms, _row_norms(self._pending)])

    def _vectors(self) -> np.ndarray:
        """The matrix of all records, grown by any pending inserts, with a
        norm known for every row."""
        self._norms = self._all_norms()
        if self._pending:
            self._matrix = np.vstack([self._matrix, *self._pending])
            self._pending = []
        return self._matrix

    def insert(self, record_id: str, vector: np.ndarray, metadata: RecordMetadata) -> None:
        """Store one record. Vectors are quantized to float32, the stored
        width. Duplicate ids, dimension mismatches and vectors with an entry
        that is not finite in float32 (NaN, infinite, or beyond its range)
        are rejected, since `load` refuses the norm such a row gets."""
        if record_id in self._rows:
            raise ValueError(f"duplicate record id {record_id!r}")
        vector = np.asarray(vector)
        if vector.shape != (self.dim,):
            raise ValueError(f"vector must have shape ({self.dim},), got {vector.shape}")
        with np.errstate(over="ignore"):
            stored = vector.astype("<f4")
        if not np.isfinite(stored).all():
            raise ValueError(f"vector for {record_id!r} has an entry that is not finite in float32")
        self._pending.append(stored)
        self._rows[record_id] = len(self._ids)
        self._ids.append(record_id)
        self._paths.append(metadata.path)
        self._spans.append(metadata.span)
        self._kinds.append(metadata.source_kind)

    def _similarities(self, query: np.ndarray) -> np.ndarray:
        """Float64 cosine of every record against `query`; 0 for a zero
        record or a zero query. Each row's dot product comes from one
        matrix-vector product over its zero-padded block, and is divided by
        the row's stored norm (see `_row_norms`) times the query's."""
        count = len(self._ids)
        sims = np.zeros(count)
        qnorm = np.linalg.norm(query)
        if qnorm == 0.0:
            return sims
        matrix = self._vectors()
        dots = np.empty(count)
        block = np.empty((min(_BLOCK_ROWS, count + (-count) % _ROW_GROUP), self.dim))
        for start in range(0, count, _BLOCK_ROWS):
            rows = matrix[start:start + _BLOCK_ROWS]
            scored = block[: len(rows) + (-len(rows)) % _ROW_GROUP]
            scored[: len(rows)] = rows
            scored[len(rows):] = 0.0
            dots[start:start + len(rows)] = (scored @ query)[: len(rows)]
        nonzero = np.flatnonzero(self._norms > 0.0)
        sims[nonzero] = dots[nonzero] / (self._norms[nonzero] * qnorm)
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
        """Write the index to a new file beside `path`, then rename it onto
        `path`: a reader never sees a partial file, and an index loaded from
        the old file keeps reading the old bytes. On failure the new file is
        removed and `path` is left as it was."""
        header = {
            "format_version": FORMAT_VERSION,
            "dim": self.dim,
            "count": len(self._ids),
            "band_config_hash": self.band_config_hash,
        }
        columns = {"id": self._ids, "path": self._paths, "source_kind": self._kinds, "span": self._spans}
        norms = self._all_norms()
        path = os.fspath(path)
        temp = f"{path}.{os.urandom(6).hex()}.tmp"
        fh = open(temp, "xb")
        try:
            with fh:
                fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
                fh.write(json.dumps(columns, sort_keys=True).encode("utf-8") + b"\n")
                # Pending rows are written as they are, so saving a freshly
                # built index needs no second copy of its vectors.
                fh.write(self._matrix.data)
                fh.writelines(vector.data for vector in self._pending)
                fh.write(norms.data)
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise

    @classmethod
    def load(cls, path) -> "VectorIndex":
        """Read an index file; a failure raises before any partial index
        escapes. Version, truncation and decode problems surface as
        distinct error kinds, their messages prefixed with `path`."""
        with open(path, "rb") as fh:
            try:
                return cls._read(fh)
            except IndexFileError as err:
                raise type(err)(f"{path}: {err}") from None

    @classmethod
    def _read(cls, fh) -> "VectorIndex":
        """The header line, one JSON line of column arrays, then the whole
        matrix and the row norms, both viewed in place in a read-only
        mapping of the file."""
        header = _read_json_line(fh, "header")
        if not isinstance(header, dict) or "format_version" not in header:
            raise IndexCorruptError("header is missing format_version")
        version = header["format_version"]
        if type(version) is not int or version != FORMAT_VERSION:
            raise IndexVersionError(
                f"format version {version!r} unsupported (expected {FORMAT_VERSION}); "
                "rebuild the index with `devmux index`"
            )
        band_hash = header.get("band_config_hash")
        if not isinstance(band_hash, str):
            raise IndexCorruptError("malformed header: band_config_hash must be a string")
        index = cls(band_config_hash=band_hash, dim=_header_int(header, "dim", 1))
        count = _header_int(header, "count", 0)
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
        start = fh.tell()
        matrix_bytes = count * index.dim * 4
        norm_bytes = count * 8
        remaining = os.fstat(fh.fileno()).st_size - start
        if remaining < matrix_bytes:
            raise IndexTruncatedError(f"vector block cut short: {remaining} of {matrix_bytes} bytes")
        if remaining < matrix_bytes + norm_bytes:
            raise IndexTruncatedError(
                f"norm block cut short: {remaining - matrix_bytes} of {norm_bytes} bytes")
        if remaining > matrix_bytes + norm_bytes:
            raise IndexCorruptError("trailing bytes after final record")
        if count:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            index._matrix = np.frombuffer(mapped, dtype="<f4", count=count * index.dim,
                                          offset=start).reshape(count, index.dim)
            norms = np.frombuffer(mapped, dtype="<f8", count=count, offset=start + matrix_bytes)
            if not np.all(np.isfinite(norms) & (norms >= 0.0)):
                raise IndexCorruptError("norm block holds a value that is not finite and >= 0")
            index._norms = norms
        index._rows, index._ids = rows, columns["id"]
        index._paths, index._spans, index._kinds = columns["path"], columns["span"], columns["source_kind"]
        return index


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
