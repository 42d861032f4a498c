"""Exact top-k cosine retrieval over stored embedding vectors.

A record is an id and a vector; `index` stores each file under its path
below the source root. A built index and a loaded one hold their records in
the same form: rows in ascending id order, with the ids as a string column
in the file's layout, little-endian float32 vectors (the on-disk width, so a
save/load round trip is bit-identical) and each row's float64 norm, so a
search does not recompute it. `insert` checks a record and holds it
aside; the next read (`search`, `vector`, `ids` or `save`) merges the held
records into the rows in one sort by id, moving the vectors rather than
copying them, as a log-structured merge tree folds its buffer into a sorted
run. The moved vectors are a list of row arrays, which `save` writes
as they are; a search joins them into one matrix, the form a loaded index
maps from its file, so it reads only that one form. Each index also holds
the same values by dimension (`_by_dimension`): a loaded index maps them
from its file, and a search derives them from the joined matrix when there
are none. A merge drops them.

Search is exact and runs in two passes, a cheap filter and an exact
re-scoring of a short list (Jegou et al., "Searching in one billion
vectors: re-rank with source coding", ICASSP 2011). A nonzero query whose
norm is below `_QUERY_FLOOR` or overflows is first divided by its largest
absolute entry; any other query keeps its bits. The bound pass scales the
query to unit norm and casts it to float32, then reads the values by
dimension of the query's nonzero dimensions only, term at a time as an
inverted file does (Zobel and Moffat, "Inverted files for text search
engines", ACM Computing Surveys 2006): it sums the dense dimensions'
products with the query's entries by float32 matrix-vector products and
the sparse dimensions' ones by row number with `np.bincount`, at most
`_BLOCK_ROWS` dimensions at a time, and divides by the stored norms. Each
row's sum s lies within `_bound_width(dim)` of its exact score (the proof
is in that function's docstring), so a row gets the interval
[s - width, s + width]; a zero row gets [0, 0], and a row whose norm is
below `_NORM_FLOOR` or whose s is not finite gets (-inf, +inf). With L the
k-th largest lower end, at least k rows score >= L exactly, so every row
that reaches the exact k-th score, ties included, has an upper end >= L:
those rows are the candidates. The exact pass widens only the candidates
to double precision, a block at a time, scores each block with one
matrix-vector product, divides by the stored norms and the query's norm,
finds the k-th score with `np.partition`, and stably sorts only the rows
that reach it, so ties break by row, which is ascending record id (the
flat exact search of FAISS `IndexFlatIP`). The float32 pass never decides
a returned number: hits and similarity bits are those of scoring every
row. The zero query, or k of at least the record count, makes every row a
candidate.

The file (format version 6) starts with one JSON header line,
`{"band_config_hash", "blocks", "count", "dim", "format_version": 6}`,
padded with spaces to a multiple of 64 bytes. `blocks` gives the
`[offset, length]` of every block, in file order: the ids' `count + 1` row
offsets as little-endian uint64 (`id.offsets`) and their UTF-8 bytes one
after another (`id.data`), as in Apache Arrow's variable-size binary
layout; then the `count x dim` float32 matrix (`vectors`); the same values
by dimension, as the `dim + 1` offsets of each dimension's 4-byte words,
little-endian uint64 counted in words (`vectors_by_dim.offsets`), and the
words, one dimension after another (`vectors_by_dim.data`); and the `count`
float64 row norms (`norms`). A dimension with at least half of its
values nonzero is dense: its words are its `count` float32 values in row
order, no more bytes than its nonzero values with their row numbers would
take. Any other is sparse: its words are the uint32 numbers of the rows
where it is nonzero, ascending, then those rows' float32 values, fewer than
`count` words, so a dimension of `count` words is dense. Every block starts
at the first 64-byte boundary after the header or the block before it, and
the file ends with the last block. Version 5 also held each record's path,
source kind and span as string columns, and version 4 had version 5's
blocks without the two `vectors_by_dim` ones.

Load maps the file read-only and views every block in place. It checks the
layout, every block's length, the id offsets, that ids strictly ascend,
that every norm is finite and >= 0, that the by-dimension offsets rise to
the data's size in words and that every sparse dimension has an even
number of words; it decodes an id only when its row is read. It
reads no vector and no word of the by-dimension data: it trusts `norms` to
be the rows' norms and that data to hold the values of `vectors`, as
`save` writes them, and a search refuses a row number past the last row
when it reads one. An id's row is found by bisecting the ids.
Vectors are read-only in both forms. `save` writes the blocks as they are
to a new file beside the target and renames it over the target, so an
index mapped from the old file keeps its bytes; an index without values by
dimension counts their nonzero values in its rows, then writes their words
a few dimensions at a time, holding no second copy of the vectors. `load`
reads only the version `save` writes: an index file of any other version
raises `IndexVersionError` (`query` exits 3) until `devmux index` rebuilds
it.
"""

from __future__ import annotations

import bisect
import json
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from .base import IndexFileError
from .configfile import VECTOR_DIM

FORMAT_VERSION = 6
# Rows widened to float64 per norm pass and per matrix-vector product; also
# the rows counted, and the dimensions gathered, at a time when the values
# by dimension are made or summed.
_BLOCK_ROWS = 128
# Rows with a smaller (nonzero) norm are candidates without a bound, and a
# nonzero query with a norm outside [_QUERY_FLOOR, inf) is scaled by its
# largest entry: below these floors underflow, not rounding, may decide a
# float32 product or the query norm.
_NORM_FLOOR = 2.0**-100
_QUERY_FLOOR = 2.0**-500
# A BLAS matrix-vector product may compute the last rows of a block that is
# not a whole number of row groups through another kernel, so one vector can
# score a different last bit there. Blocks are zero-padded to a multiple of
# this many rows, so every row is scored the same way wherever it sits and
# identical vectors tie exactly.
_ROW_GROUP = 8
# The file's blocks in file order, each starting on a multiple of _ALIGN.
_BLOCKS = ("id.offsets", "id.data", "vectors", "vectors_by_dim.offsets", "vectors_by_dim.data", "norms")
_ALIGN = 64
# Ids are UTF-8; `surrogatepass` keeps a lone surrogate (a file name
# that is not UTF-8, as `os.fsdecode` gives it) and its code point order.
_TEXT = ("utf-8", "surrogatepass")
# _PREFIX[r] keeps the first r bytes of a big-endian 8-byte word.
_PREFIX = np.array([((1 << 8 * r) - 1) << (64 - 8 * r) for r in range(9)], dtype=np.uint64)


class IndexVersionError(IndexFileError):
    pass


class IndexTruncatedError(IndexFileError):
    pass


class IndexCorruptError(IndexFileError):
    pass


@dataclass(frozen=True)
class RecordMetadata:
    """The third argument `insert` still accepts from callers written for
    format 5; only a `path` equal to the record's id is allowed, and nothing
    of it is stored. A benchmark change deletes it with that argument."""

    path: str
    span: str = ""
    source_kind: str = "file"


@dataclass(frozen=True)
class Hit:
    id: str
    similarity: float


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


class _TextColumn:
    """The ids in the file's layout: row `i` is the UTF-8 bytes
    `data[offsets[i]:offsets[i + 1]]`, decoded when it is read. Rows are
    read by non-negative number only."""

    def __init__(self, offsets: np.ndarray, data: memoryview, source: str):
        self._offsets, self._data, self._source = offsets, data, source

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, row: int) -> str:
        try:
            return str(self._data[self._offsets[row]:self._offsets[row + 1]], *_TEXT)
        except UnicodeDecodeError as err:
            raise IndexCorruptError(f"{self._source}: row {row} of column id is not UTF-8 ({err.reason})") from None


def _text_column(values: list[str]) -> _TextColumn:
    """`values` encoded in the file's layout."""
    encoded = [value.encode(*_TEXT) for value in values]
    offsets = np.zeros(len(encoded) + 1, dtype="<u8")
    np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)), out=offsets[1:])
    return _TextColumn(offsets, memoryview(b"".join(encoded)), "memory")


class VectorIndex:
    """In-memory store of (id, vector) records with exhaustive search."""

    def __init__(self, band_config_hash: str, dim: int = VECTOR_DIM):
        self.band_config_hash = band_config_hash
        self.dim = dim
        # The merged rows, in ascending id order: the ids, the float32
        # vectors and their norms. The vectors are a list of row arrays
        # after a merge and one matrix once loaded or searched.
        # `_by_dim` is the same values by dimension (see `_by_dimension`):
        # the offsets of each dimension's words, and the words read as
        # uint32 and as float32. It is mapped from the file or derived at a
        # search, and None after a build or a merge.
        self._ids = _text_column([])
        self._matrix: list[np.ndarray] | np.ndarray = []
        self._by_dim: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._norms = np.empty(0, dtype="<f8")
        # id -> vector inserted since the last merge.
        self._pending: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._ids) + len(self._pending)

    def ids(self) -> tuple[str, ...]:
        self._merge()
        return tuple(self._ids)

    def vector(self, record_id: str) -> np.ndarray:
        self._merge()
        row = self._row(record_id)
        if row is None:
            raise KeyError(record_id)
        return self._matrix[row]

    def _row(self, record_id: str) -> int | None:
        """The merged row that holds `record_id`, found by bisecting the ids."""
        ids = self._ids
        row = bisect.bisect_left(ids, record_id)
        return row if row < len(ids) and ids[row] == record_id else None

    def _merge(self) -> None:
        """Fold the pending inserts into the merged rows in one sort by id.
        Vectors are moved, never copied, so the matrix becomes a list of
        row arrays and a merge holds no second copy of them."""
        if not self._pending:
            return
        ids = [*self._ids, *self._pending]
        rows = [*self._matrix, *self._pending.values()]
        norms = np.concatenate([self._norms, _row_norms(rows[len(self._matrix):])])
        order = sorted(range(len(rows)), key=ids.__getitem__)
        self._ids = _text_column([ids[row] for row in order])
        self._matrix = [rows[row] for row in order]
        self._by_dim = None
        self._norms = norms[order]
        self._pending = {}

    def insert(self, record_id: str, vector: np.ndarray, metadata: RecordMetadata | None = None) -> None:
        """Store one record; it joins the merged rows at the next read.
        Vectors are quantized to float32, the stored width, and read-only.
        Duplicate ids, dimension mismatches and vectors with an entry that
        is not finite in float32 (NaN, infinite, or beyond its range) are
        rejected, since `load` refuses the norm such a row gets. `metadata`
        is accepted only with a path equal to the id and is not stored; a
        benchmark change deletes the argument."""
        if metadata is not None and metadata.path != record_id:
            raise ValueError(f"metadata path {metadata.path!r} is not the record id {record_id!r}")
        if record_id in self._pending or self._row(record_id) is not None:
            raise ValueError(f"duplicate record id {record_id!r}")
        vector = np.asarray(vector)
        if vector.shape != (self.dim,):
            raise ValueError(f"vector must have shape ({self.dim},), got {vector.shape}")
        with np.errstate(over="ignore"):
            stored = vector.astype("<f4")
        if not np.isfinite(stored).all():
            raise ValueError(f"vector for {record_id!r} has an entry that is not finite in float32")
        stored.flags.writeable = False
        self._pending[record_id] = stored

    def _similarities(self, query: np.ndarray, rows: np.ndarray, qnorm: float) -> np.ndarray:
        """Float64 cosine against `query`, of norm `qnorm`, of each of `rows`
        (ascending row numbers); 0 for a zero record or a zero query. Each
        row's dot product comes from one matrix-vector product over its
        zero-padded block of rows, and is divided by the row's stored norm
        (see `_row_norms`) times the query's. A row scores the same bits in
        any block, so each score is the one every row would get."""
        sims = np.zeros(len(rows))
        if qnorm == 0.0:
            return sims
        dots = np.empty(len(rows))
        block = np.empty((min(_BLOCK_ROWS, len(rows) + (-len(rows)) % _ROW_GROUP), self.dim))
        for start in range(0, len(rows), _BLOCK_ROWS):
            chunk = rows[start:start + _BLOCK_ROWS]
            scored = block[: len(chunk) + (-len(chunk)) % _ROW_GROUP]
            scored[: len(chunk)] = self._matrix[chunk]
            scored[len(chunk):] = 0.0
            dots[start:start + len(chunk)] = (scored @ query)[: len(chunk)]
        norms = self._norms[rows]
        nonzero = np.flatnonzero(norms > 0.0)
        sims[nonzero] = dots[nonzero] / (norms[nonzero] * qnorm)
        return sims

    def _candidates(self, query: np.ndarray, k: int, qnorm: float) -> np.ndarray:
        """Ascending row numbers of a superset of the rows whose exact score
        reaches the k-th largest, ties included (the bound pass, see the
        module docstring), for a query of norm `qnorm`, zero or in
        [`_QUERY_FLOOR`, inf); every row for k >= count or the zero query.
        Of the values by dimension it reads the query's nonzero dimensions
        only."""
        count = len(self._norms)
        if k >= count or qnorm == 0.0:
            return np.arange(count)
        unit = (query / qnorm).astype(np.float32)
        offsets, numbers, values = self._by_dim
        dims = np.flatnonzero(unit)
        dense = offsets[dims + 1] - offsets[dims] == count
        dots = np.zeros(count)
        width = _bound_width(self.dim)
        with np.errstate(all="ignore"):  # overflow and 0/0 give loose rows below
            for part in _parts(dims[dense]):
                dots += unit[part] @ np.stack([values[offsets[d]:offsets[d + 1]] for d in part])
            for part in _parts(dims[~dense]):
                spans = [(offsets[d], (offsets[d] + offsets[d + 1]) // 2, offsets[d + 1], unit[d]) for d in part]
                summed = np.bincount(np.concatenate([numbers[start:half] for start, half, _, _ in spans]),
                                     np.concatenate([values[half:end] * p for _, half, end, p in spans]),
                                     minlength=count)
                if len(summed) > count:
                    raise IndexCorruptError(f"{self._ids._source}: block vectors_by_dim.data holds a row "
                                            f"number >= the count {count}")
                dots += summed
            sims = dots / self._norms
            lower, upper = sims - width, sims + width
        loose = ~np.isfinite(sims) | (self._norms < _NORM_FLOOR)
        lower[loose], upper[loose] = -np.inf, np.inf
        zero = self._norms == 0.0
        lower[zero] = upper[zero] = 0.0
        kth = np.partition(lower, count - k)[count - k]
        return np.flatnonzero(upper >= kth)

    def search(self, query: np.ndarray, k: int) -> QueryResult:
        """Exact top-k by cosine over all records; ties by ascending id. A
        query with a NaN or infinite entry is rejected, as `insert` rejects
        such a vector."""
        if k < 0:
            raise ValueError("k must be >= 0")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},), got {query.shape}")
        if not np.isfinite(query).all():
            raise ValueError("query has an entry that is not finite")
        if k == 0 or not len(self):
            return QueryResult(())
        self._merge()
        if isinstance(self._matrix, list):  # a built index's rows, joined at its first search
            self._matrix = np.frombuffer(b"".join(self._matrix), dtype="<f4").reshape(-1, self.dim)
        if self._by_dim is None:
            offsets, words = _by_dimension(self._matrix, self.dim)
            words = np.frombuffer(b"".join(words), dtype="<u4")
            self._by_dim = (offsets, words, words.view("<f4"))
        # A nonzero query whose norm underflows or overflows is scaled by its
        # largest entry first; the norms of all others keep their bits.
        with np.errstate(over="ignore", under="ignore"):
            qnorm = np.linalg.norm(query)
            if query.any() and not _QUERY_FLOOR <= qnorm < np.inf:
                query = query / np.abs(query).max()
                qnorm = np.linalg.norm(query)
        rows = self._candidates(query, k, qnorm)
        sims = self._similarities(query, rows, qnorm)
        k = min(k, len(sims))
        kth = -np.partition(-sims, k - 1)[k - 1]
        # Rows ascend by id, so a stable sort of the candidates breaks ties by id.
        reaching = np.flatnonzero(sims >= kth)
        order = reaching[np.argsort(-sims[reaching], kind="stable")][:k]
        return QueryResult(tuple(Hit(self._ids[row], sim)
                                 for row, sim in zip(rows[order].tolist(), sims[order].tolist())))

    def save(self, path) -> None:
        """Write the merged rows' blocks as they are to a new file beside
        `path`, then rename it onto `path`: a reader never sees a partial
        file, and an index loaded from the old file keeps reading the old
        bytes. On failure the new file is removed and `path` is left as it
        was."""
        self._merge()
        count = len(self)
        chunks: dict[str, list] = {"id.offsets": [self._ids._offsets], "id.data": [self._ids._data],
                                   "norms": [self._norms]}
        lengths = {name: parts[0].nbytes for name, parts in chunks.items()}
        # Rows are written one by one from where they are, and the values by
        # dimension, if the index has none yet, a dimension at a time from
        # the rows, so saving needs no second copy of the vectors.
        chunks["vectors"], lengths["vectors"] = self._matrix, count * self.dim * 4
        offsets, words = ((self._by_dim[0], [self._by_dim[1]]) if self._by_dim is not None
                          else _by_dimension(self._matrix, self.dim))
        chunks["vectors_by_dim.offsets"], chunks["vectors_by_dim.data"] = [offsets], words
        lengths["vectors_by_dim.offsets"], lengths["vectors_by_dim.data"] = offsets.nbytes, int(offsets[-1]) * 4
        header = {"format_version": FORMAT_VERSION, "dim": self.dim, "count": count,
                  "band_config_hash": self.band_config_hash}
        # The header's size moves the blocks, and their offsets its size.
        size = 0
        while True:
            header["blocks"] = _layout(size, lengths)
            line = json.dumps(header, sort_keys=True).encode("utf-8")
            if len(line) < size:
                break
            size = _aligned(len(line) + 1)
        path = os.fspath(path)
        temp = f"{path}.{os.urandom(6).hex()}.tmp"
        fh = open(temp, "xb")
        try:
            with fh:
                fh.write(line.ljust(size - 1) + b"\n")
                end = size
                for name in _BLOCKS:
                    start = header["blocks"][name][0]
                    fh.write(bytes(start - end))
                    fh.writelines(chunks[name])
                    end = start + lengths[name]
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
                return cls._read(fh, f"{path}")
            except IndexFileError as err:
                raise type(err)(f"{path}: {err}") from None

    @classmethod
    def _read(cls, fh, source: str) -> "VectorIndex":
        """The header line, then every block viewed in place in a read-only
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
        blocks = _check_layout(header.get("blocks"), fh.tell(), os.fstat(fh.fileno()).st_size)
        sizes = {"id.offsets": (count + 1) * 8, "vectors": count * index.dim * 4,
                 "vectors_by_dim.offsets": (index.dim + 1) * 8, "norms": count * 8}
        for name, size in sizes.items():
            if blocks[name][1] != size:
                raise IndexCorruptError(f"block {name} holds {blocks[name][1]} bytes, expected {size}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)

        def view(name, dtype, items):
            return np.frombuffer(mapped, dtype=dtype, count=items, offset=blocks[name][0])

        offsets = view("id.offsets", "<u8", count + 1)
        start, size = blocks["id.data"]
        if not _rising(offsets, size):
            raise IndexCorruptError(f"offsets of column id must rise from 0 to its data size {size}")
        data = view("id.data", np.uint8, size)
        if np.any(data[offsets[offsets < size]] & 0xC0 == 0x80):
            raise IndexCorruptError("an offset of column id falls inside a UTF-8 character")
        if not _strictly_ascending(data, offsets):
            raise IndexCorruptError("column id must hold strictly ascending ids")
        index._ids = _TextColumn(offsets, memoryview(mapped)[start:start + size], source)
        norms = view("norms", "<f8", count)
        if not np.all(np.isfinite(norms) & (norms >= 0.0)):
            raise IndexCorruptError("norm block holds a value that is not finite and >= 0")
        words, odd = divmod(blocks["vectors_by_dim.data"][1], 4)
        offsets = view("vectors_by_dim.offsets", "<u8", index.dim + 1)
        if odd or not _rising(offsets, words):
            raise IndexCorruptError("block vectors_by_dim.offsets must rise from 0 to the data's size in words")
        offsets = offsets.view("<i8")  # below 2**62, so int64 arithmetic on them stays exact
        lengths = np.diff(offsets)
        if np.any((lengths != count) & (lengths % 2 == 1)):
            raise IndexCorruptError("a sparse dimension of block vectors_by_dim.data has an odd number of words")
        index._matrix = view("vectors", "<f4", count * index.dim).reshape(count, index.dim)
        index._by_dim = (offsets, view("vectors_by_dim.data", "<u4", words),
                         view("vectors_by_dim.data", "<f4", words))
        index._norms = norms
        return index


def _bound_width(dim: int) -> float:
    """Half the width of the bound pass's intervals: for a stored row x of
    norm N >= `_NORM_FLOOR` and a query q of computed norm Q in
    [`_QUERY_FLOOR`, inf), the float32 bound s = fl(fl32(x . p) / N), with
    p = fl32(q / Q), is within this of f = fl(fl64(x . q) / (N * Q)), the
    float64 score of the exact pass, on any BLAS kernel.

    Proof, with n = dim, u = 2**-24, v = 2**-53, gamma(n, w) = n w / (1 - n w)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.1):
    - p_i = (q_i / Q)(1 + t_i) with |t_i| <= u + v + uv (a float64 quotient,
      then the float32 cast), so |x . p - (x . q) / Q| <= (u + v + uv) S1,
      with S1 = sum |x_i q_i| / Q;
    - a dot product of length n summed in any order, with or without fused
      multiply-adds, errs by at most gamma(n, w) times the sum of its terms'
      magnitudes: |fl32(x . p) - x . p| <= gamma(n, u)(1 + u + v + uv) S1 and
      |fl64(x . q) - x . q| / Q <= gamma(n, v) S1;
    - S1 <= |x| |q| / Q by Cauchy-Schwarz, and N and Q, rounded sums of
      squares and a square root, are within gamma(n, v) + v of |x| and |q|.
    So |s - f| <= (gamma(n, u) + u + gamma(n, v)) (1 + e), where e covers the
    products of small terms, the ratios |x| / N and |q| / Q, the quotients'
    and s +- width's roundings in float64, and underflow: below 2**-126 a
    float32 product or entry of p may lose up to 2**-150 absolutely, at most
    n 2**-149 / N <= n 2**-49 of a score with N >= 2**-100; float64
    underflow is smaller still with Q >= 2**-500. Each of these is below
    2**-13 of the first-order sum for every n, so the factor 1 + 2**-10
    bounds 1 + e. A float32 sum that overflows is not finite, and its row is
    unbounded. The proof takes each norm to be the row's, as `save` writes
    it. For n >= 2**23 gamma(n, u) is not defined and the width is inf.

    The bound pass leaves out the dimensions where p is 0, each an
    exactly-zero term. It sums the terms of dense dimensions in float32
    (matrix-vector products of at most `_BLOCK_ROWS` dimensions), rounds
    those of sparse dimensions to float32 and sums them in float64
    (`np.bincount`), and adds the partial sums in float64. So each term
    enters the computed sum through at most n float32 roundings, or through
    one float32 rounding and at most 2n float64 ones; as
    u + gamma(2n, v)(1 + u) <= gamma(n, u) for every n >= 1, the second
    step's bound holds for that sum, with the float64 additions of float32
    partial sums inside e. A float64 sum of float32 terms, each at most the
    float32 maximum as |p_i| <= 1, does not overflow."""
    if dim * 2.0**-24 >= 0.5:
        return math.inf

    def gamma(n: int, unit: float) -> float:
        return n * unit / (1 - n * unit)

    return (gamma(dim, 2.0**-24) + 2.0**-24 + gamma(dim, 2.0**-53)) * (1 + 2.0**-10)


def _by_dimension(rows, dim: int):
    """The values of `rows` (a float32 matrix or a list of float32 row
    arrays) by dimension, as the `dim + 1` offsets (int64) of each
    dimension's 4-byte words and an iterator over those words. A dimension
    with at least half of its values nonzero is dense: its words are its
    `count` values in row order. Any other is sparse: its words are the
    numbers of the rows where it is nonzero (uint32), in order, then those
    values (float32), fewer than `count` words. The nonzero values are
    counted `_BLOCK_ROWS` rows at a time and the words made `_BLOCK_ROWS`
    dimensions at a time as they are read, so no second copy of the rows is
    held."""
    count = len(rows)
    found = np.zeros(dim, dtype=np.int64)
    for start in range(0, count, _BLOCK_ROWS):
        found += np.count_nonzero(np.stack(rows[start:start + _BLOCK_ROWS]), axis=0)
    lengths = np.where(2 * found >= count, count, 2 * found)
    offsets = np.zeros(dim + 1, dtype="<i8")
    np.cumsum(lengths, out=offsets[1:])

    def words():
        for start in range(0, dim if count else 0, _BLOCK_ROWS):
            block = np.stack([row[start:start + _BLOCK_ROWS] for row in rows], axis=1)
            for column, length in zip(block, lengths[start:start + _BLOCK_ROWS].tolist()):
                if length == count:
                    yield column
                else:
                    kept = np.flatnonzero(column)
                    yield kept.astype("<u4")
                    yield column[kept]
            # A save writes each word as it comes, so it holds one block at a time.
            del block, column

    return offsets, words()


def _parts(dims: np.ndarray):
    """`dims` as lists of at most `_BLOCK_ROWS` numbers."""
    dims = dims.tolist()
    return (dims[start:start + _BLOCK_ROWS] for start in range(0, len(dims), _BLOCK_ROWS))


def _rising(offsets: np.ndarray, end: int) -> bool:
    """Whether `offsets` start at 0, never decrease and end at `end`."""
    return offsets[0] == 0 and offsets[-1] == end and not np.any(offsets[1:] < offsets[:-1])


def _aligned(offset: int) -> int:
    return offset + (-offset) % _ALIGN


def _layout(header_size: int, lengths: dict[str, int]) -> dict[str, list[int]]:
    """Block name -> [offset, length]: each block at the first aligned
    offset after the header or the block before it."""
    layout, end = {}, header_size
    for name in _BLOCKS:
        layout[name] = [_aligned(end), lengths[name]]
        end = _aligned(end) + lengths[name]
    return layout


def _check_layout(blocks, header_size: int, file_size: int) -> dict[str, list[int]]:
    """The header's `blocks` if they are where `save` puts blocks of their
    lengths and the file ends with the last one."""
    if not isinstance(blocks, dict) or sorted(blocks) != sorted(_BLOCKS):
        raise IndexCorruptError(f"blocks must be exactly {', '.join(_BLOCKS)}")
    if not all(isinstance(entry, list) and len(entry) == 2 and all(type(v) is int and v >= 0 for v in entry)
               for entry in blocks.values()):
        raise IndexCorruptError("every block must be [offset, length], two integers >= 0")
    expected = _layout(header_size, {name: length for name, (_, length) in blocks.items()})
    for name in _BLOCKS:
        start, length = blocks[name]
        if start != expected[name][0]:
            raise IndexCorruptError(f"block {name} starts at byte {start}, not at {expected[name][0]}, "
                                    f"the first {_ALIGN}-byte boundary after what comes before it")
        if start + length > file_size:
            raise IndexTruncatedError(f"block {name} cut short: {max(file_size - start, 0)} of {length} bytes")
    if file_size > start + length:  # the end of the last block
        raise IndexCorruptError("trailing bytes after the last block")
    return blocks


def _strictly_ascending(data: np.ndarray, offsets: np.ndarray) -> bool:
    """Whether the byte strings `data[offsets[i]:offsets[i + 1]]` strictly
    ascend. Neighbours are compared eight bytes at a time, as big-endian
    words, and only the pairs still equal go on to the next eight. Byte
    order is code point order for UTF-8, so this is the order of the
    decoded ids."""
    padded = np.zeros(len(data) + 8, dtype=np.uint8)
    padded[: len(data)] = data
    words = np.ndarray((len(data) + 1,), dtype="<u8", buffer=padded, strides=(1,))  # one at every byte
    starts = offsets.astype(np.int64)
    lengths = np.diff(starts)
    # Pair i is rows i and i + 1: where each is read next, and what is left of it.
    left, right, left_len, right_len = starts[:-2], starts[1:-1], lengths[:-1], lengths[1:]
    while left.size:
        a, b = words[left].byteswap(), words[right].byteswap()
        # Where the shorter string of a pair ends within these eight bytes,
        # both are cut there and zero-padded; if they are then equal, the
        # shorter one must come first.
        ends = np.minimum(left_len, right_len) <= 8
        a[ends] &= _PREFIX[np.minimum(left_len[ends], 8)]
        b[ends] &= _PREFIX[np.minimum(right_len[ends], 8)]
        if np.any(a > b) or np.any((a == b) & ends & (left_len >= right_len)):
            return False
        go = (a == b) & ~ends
        left, right, left_len, right_len = left[go] + 8, right[go] + 8, left_len[go] - 8, right_len[go] - 8
    return True


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
