import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmux.vindex import (
    IndexCorruptError,
    IndexTruncatedError,
    IndexVersionError,
    RecordMetadata,
    VectorIndex,
)

DIM = 768


def unit_vectors(rng, count):
    vectors = rng.standard_normal((count, DIM))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def build_index(rng, count):
    index = VectorIndex(band_config_hash="testhash")
    for i, v in enumerate(unit_vectors(rng, count)):
        index.insert(f"rec-{i:04d}", v)
    return index


def brute_force_ids(index, query, k):
    """Oracle: naive double-precision cosine over every record."""
    query = np.asarray(query, dtype=np.float64)
    qnorm = float(np.sqrt(np.dot(query, query)))
    scored = []
    for record_id in index.ids():
        v = index.vector(record_id).astype(np.float64)
        vnorm = float(np.sqrt(np.dot(v, v)))
        sim = 0.0 if qnorm == 0.0 or vnorm == 0.0 else float(np.dot(v, query) / (vnorm * qnorm))
        scored.append((sim, record_id))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [record_id for _, record_id in scored[:k]]


def test_insert_and_count():
    index = VectorIndex("h")
    index.insert("a", np.ones(DIM))
    assert len(index) == 1


def test_duplicate_id_rejected_and_index_unchanged():
    index = VectorIndex("h")
    index.insert("a", np.ones(DIM))
    with pytest.raises(ValueError, match="duplicate"):
        index.insert("a", np.zeros(DIM))
    assert len(index) == 1
    assert index.ids() == ("a",)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "beyond_float32"])
def test_non_finite_vector_rejected_and_index_unchanged(entry, tmp_path):
    index = VectorIndex("h")
    index.insert("a", np.ones(DIM))
    vector = np.ones(DIM)
    vector[DIM // 2] = entry
    with pytest.raises(ValueError, match="not finite"):
        index.insert("b", vector)
    with pytest.raises(ValueError, match="not finite"):
        index.insert("c", np.full(DIM, entry))
    assert index.ids() == ("a",)
    index.insert("b", np.zeros(DIM))
    path = tmp_path / "index.bin"
    index.save(path)
    loaded = VectorIndex.load(path)
    assert loaded.ids() == ("a", "b")
    assert loaded.vector("a").tobytes() == index.vector("a").tobytes()
    assert loaded.search(np.ones(DIM), 2).ids() == ["a", "b"]


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_query_rejected_built_and_loaded(entry, tmp_path):
    index = build_index(np.random.default_rng(3), 5)
    index.save(tmp_path / "index.bin")
    query = np.array(index.vector("rec-0001"), dtype=np.float64)
    query[1] = entry
    for searched in (index, VectorIndex.load(tmp_path / "index.bin")):
        for k in (0, 3, 10):
            with pytest.raises(ValueError, match="not finite"):
                searched.search(query, k)
        assert searched.search(np.nan_to_num(query, posinf=0.0, neginf=0.0), 3).ids()[0] == "rec-0001"


def built_and_loaded(index, tmp_path):
    """`index` and a copy loaded from its file."""
    index.save(tmp_path / "index.bin")
    return index, VectorIndex.load(tmp_path / "index.bin")


@pytest.mark.parametrize("query, scaled, ids", [
    ([0.0, 0.0, 1e-170, 1e-170], [0.0, 0.0, 1.0, 1.0], ["r4", "r3"]),
    ([0.0, 0.0, 0.0, 1e300], [0.0, 0.0, 0.0, 1.0], ["r3", "r4"]),
], ids=["norm_underflows", "norm_overflows"])
def test_query_whose_norm_underflows_or_overflows_ranks_by_cosine(query, scaled, ids, tmp_path):
    """A nonzero query whose norm underflows to 0 or overflows is searched
    as itself divided by its largest entry, with no warning (the test
    configuration makes a RuntimeWarning an error)."""
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]
    index = VectorIndex("h", dim=4)
    for i, row in enumerate(rows):
        index.insert(f"r{i}", np.array(row, dtype=np.float64))
    for searched in built_and_loaded(index, tmp_path):
        assert searched.search(query, 2).ids() == ids
        assert searched.search(query, 2) == searched.search(scaled, 2)


def test_power_of_two_scaled_queries_match_the_query_over_its_largest_entry(tmp_path):
    """2**1000 q overflows the norm and 2**-1000 q falls below the floor;
    both are searched as q / max|q|, which power-of-two scaling reaches
    exactly, so hits and similarity bits are the same."""
    rng = np.random.default_rng(12)
    index = build_index(rng, 50)
    query = rng.standard_normal(DIM)
    scaled = query / np.abs(query).max()
    for searched in built_and_loaded(index, tmp_path):
        for k in (1, 5, 50):
            want = hit_pairs(searched.search(scaled, k))
            assert hit_pairs(searched.search(2.0**1000 * query, k)) == want
            assert hit_pairs(searched.search(2.0**-1000 * query, k)) == want


def test_built_index_searched_inserted_and_searched_again_equals_loaded(tmp_path):
    """A search joins a built index's rows into one matrix; inserts after it
    merge in, and the next search equals a search of the saved and loaded
    index, before the inserts and after."""
    rng = np.random.default_rng(13)
    index = build_index(rng, 40)
    queries = [*unit_vectors(rng, 3), index.vector("rec-0007").astype(np.float64)]
    for step in ("first", "second"):
        hits = [hit_pairs(index.search(query, k)) for query in queries for k in (1, 10, len(index))]
        index.save(tmp_path / f"{step}.bin")
        loaded = VectorIndex.load(tmp_path / f"{step}.bin")
        assert hits == [hit_pairs(loaded.search(query, k)) for query in queries for k in (1, 10, len(index))]
        assert all(index.vector(i).tobytes() == loaded.vector(i).tobytes() for i in loaded.ids())
        for i, vector in enumerate(unit_vectors(rng, 30)):
            index.insert(f"{step}-{i:04d}", vector)


def test_insert_takes_metadata_only_with_the_id_as_its_path(tmp_path):
    """`insert` still takes a `RecordMetadata` whose path is the record's
    id, as the benchmark builds its index, and stores nothing of it: the
    file is the one the same record gives without it. Any other path is
    refused, and the index stays as it was."""
    with_metadata, without = VectorIndex("h", dim=4), VectorIndex("h", dim=4)
    with_metadata.insert("src/a.java", np.ones(4), RecordMetadata(path="src/a.java", span="1-3", source_kind="file"))
    without.insert("src/a.java", np.ones(4))
    for path in ("src/a.java", "b.java", "", "./src/b.java"):
        with pytest.raises(ValueError, match="is not the record id"):
            with_metadata.insert("src/b.java", np.ones(4), RecordMetadata(path=path))
    assert with_metadata.ids() == ("src/a.java",)
    with_metadata.save(tmp_path / "with.bin")
    without.save(tmp_path / "without.bin")
    assert (tmp_path / "with.bin").read_bytes() == (tmp_path / "without.bin").read_bytes()


def test_dimension_mismatch_rejected():
    index = VectorIndex("h")
    with pytest.raises(ValueError, match="shape"):
        index.insert("a", np.ones(4))


def test_insert_500_records():
    rng = np.random.default_rng(0)
    index = build_index(rng, 500)
    assert len(index) == 500


def test_search_k_zero_empty():
    rng = np.random.default_rng(1)
    index = build_index(rng, 10)
    assert build_index(rng, 0).search(np.ones(DIM), 5).hits == ()
    assert index.search(np.ones(DIM), 0).hits == ()


def test_stored_vector_ranks_first_with_similarity_one():
    rng = np.random.default_rng(2)
    index = build_index(rng, 50)
    query = index.vector("rec-0017").astype(np.float64)
    result = index.search(query, 3)
    assert result.hits[0].id == "rec-0017"
    assert result.hits[0].similarity == pytest.approx(1.0, abs=1e-9)


def test_similarities_non_increasing_and_tiebreak_by_id():
    index = VectorIndex("h")
    v = np.zeros(DIM)
    v[0] = 1.0
    for record_id in ("zz", "aa", "mm"):
        index.insert(record_id, v)
    result = index.search(v, 3)
    assert result.ids() == ["aa", "mm", "zz"]
    sims = [h.similarity for h in result.hits]
    assert sims == sorted(sims, reverse=True)


@pytest.mark.parametrize("count", [1, 5, 127, 128, 129, 300])
def test_similarity_norms_are_rowwise_linalg_norm(count, monkeypatch):
    """The row norms a search divides by are bitwise
    `np.linalg.norm(matrix, axis=1)` in float64, a pairwise `add.reduce`
    along each row; a per-row `np.linalg.norm(row)` differs from it in the
    last bit for some rows."""
    rng = np.random.default_rng(count)
    vectors = rng.standard_normal((count, DIM)) * rng.uniform(0.01, 100.0, (count, 1))
    vectors[1::4] = vectors[::4][: len(vectors[1::4])]  # duplicate rows
    vectors[2::7] = 0.0
    index = VectorIndex("h")
    for i, vector in enumerate(vectors):
        index.insert(f"r{i}", vector)
    sqrt, divided_by = np.sqrt, []

    def recording_sqrt(x):
        divided_by.append(sqrt(x))
        return divided_by[-1]

    monkeypatch.setattr(np, "sqrt", recording_sqrt)
    index.search(rng.standard_normal(DIM), count)
    monkeypatch.undo()
    expected = np.linalg.norm(vectors.astype(np.float32).astype(np.float64), axis=1)
    assert np.concatenate(divided_by).tobytes() == expected.tobytes()


def test_search_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    index = build_index(rng, 300)
    for query in unit_vectors(rng, 25):
        assert index.search(query, 10).ids() == brute_force_ids(index, query, 10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=12), st.integers())
def test_search_equals_brute_force_property(count, k, seed):
    rng = np.random.default_rng(seed % (2**32))
    index = build_index(rng, count)
    query = rng.standard_normal(DIM)
    assert index.search(query, k).ids() == brute_force_ids(index, query, k)


def test_search_matches_oracle_at_two_thousand_records():
    rng = np.random.default_rng(8)
    index = build_index(rng, 2000)
    for query in unit_vectors(rng, 5):
        assert index.search(query, 25).ids() == brute_force_ids(index, query, 25)


def test_topk_prefix_monotonicity():
    rng = np.random.default_rng(4)
    index = build_index(rng, 64)
    query = rng.standard_normal(DIM)
    previous = []
    for k in range(0, 20):
        ids = index.search(query, k).ids()
        assert ids[: len(previous)] == previous
        previous = ids


def test_round_trip_empty(tmp_path):
    index = VectorIndex("h")
    path = tmp_path / "index.bin"
    index.save(path)
    loaded = VectorIndex.load(path)
    assert len(loaded) == 0
    assert loaded.band_config_hash == "h"


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(5)
    index = build_index(rng, 500)
    path_a = tmp_path / "a.bin"
    path_b = tmp_path / "b.bin"
    index.save(path_a)
    loaded = VectorIndex.load(path_a)
    for record_id in index.ids():
        assert index.vector(record_id).tobytes() == loaded.vector(record_id).tobytes()
    loaded.save(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_version_mismatch(tmp_path):
    path = tmp_path / "index.bin"
    VectorIndex("h").save(path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    header["format_version"] = 99
    path.write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(IndexVersionError):
        VectorIndex.load(path)


def test_corrupt_header(tmp_path):
    path = tmp_path / "index.bin"
    path.write_bytes(b"not json at all\n")
    with pytest.raises(IndexCorruptError):
        VectorIndex.load(path)


def test_truncated_file(tmp_path):
    rng = np.random.default_rng(6)
    index = build_index(rng, 3)
    path = tmp_path / "index.bin"
    index.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(IndexTruncatedError):
        VectorIndex.load(path)


def rewrite_header(file, **changes):
    """Replace header fields of a saved index file in place. A new header
    that fits is padded with spaces to the old one's length, so the blocks
    stay where the header says they are."""
    header_line, body = file.read_bytes().split(b"\n", 1)
    header = {**json.loads(header_line), **changes}
    file.write_bytes(json.dumps(header, sort_keys=True).encode().ljust(len(header_line)) + b"\n" + body)


def block(file, name):
    """The [offset, length] of block `name` of a saved index file."""
    return json.loads(file.read_bytes().split(b"\n", 1)[0])["blocks"][name]


def rewrite_block(file, name, entry):
    """Set the [offset, length] of block `name` in a saved file's header, or
    drop the block for None."""
    blocks = json.loads(file.read_bytes().split(b"\n", 1)[0])["blocks"]
    if entry is None:
        del blocks[name]
    else:
        blocks[name] = entry
    rewrite_header(file, blocks=blocks)


def rewrite_columns(file, **changes):
    """Replace column arrays of a saved index file in place."""
    header_line, columns_line, blocks = file.read_bytes().split(b"\n", 2)
    columns = {**json.loads(columns_line), **changes}
    file.write_bytes(header_line + b"\n" + json.dumps(columns, sort_keys=True).encode() + b"\n" + blocks)


def reference_by_dimension(matrix):
    """The `vectors_by_dim` blocks of a (count, dim) float32 matrix, found
    one dimension at a time: the uint64 offsets of each dimension's 4-byte
    words, and the words. A dimension with at least half of its entries
    nonzero is dense, its words its entries; any other is sparse, its words
    the uint32 numbers of its nonzero rows, then their float32 values."""
    offsets, data = [0], b""
    for column in matrix.T:
        found = np.flatnonzero(column)
        if 2 * len(found) < len(matrix):
            data += found.astype("<u4").tobytes()
            column = column[found]
        data += column.astype("<f4").tobytes()
        offsets.append(len(data) // 4)
    return {"vectors_by_dim.offsets": np.array(offsets, dtype="<u8").tobytes(), "vectors_by_dim.data": data}


def test_save_writes_version_six_layout(tmp_path):
    """Rows in ascending id order: the ids as uint64 offsets and UTF-8
    bytes, then the matrix, its values by dimension (the second
    dimension is sparse, the others dense) and the norms; a header line
    padded with spaces to a multiple of 64 bytes, and every block
    zero-padded to the next 64-byte boundary."""
    index = VectorIndex("testhash", dim=4)
    records = {"b": [1.0, 2.0, 3.0, 4.0], "a/x\u00e9": [0.5, 0.0, -1.0, 2.0], "a-x": [0.0, 0.0, 0.0, 0.0]}
    for record_id, vector in records.items():
        index.insert(record_id, np.array(vector))
    path = tmp_path / "index.bin"
    index.save(path)
    blob = path.read_bytes()
    header_size = blob.index(b"\n") + 1
    order = ["a-x", "a/x\u00e9", "b"]
    texts = [rid.encode() for rid in order]
    parts = {"id.offsets": np.cumsum([0] + [len(t) for t in texts]).astype("<u8").tobytes(),
             "id.data": b"".join(texts)}
    matrix = np.array([records[rid] for rid in order], dtype="<f4")
    parts["vectors"] = matrix.tobytes()
    parts.update(reference_by_dimension(matrix))
    parts["norms"] = np.linalg.norm(matrix.astype(np.float64), axis=1).astype("<f8").tobytes()
    blocks, body = {}, b""
    for name, data in parts.items():
        body += bytes(-(header_size + len(body)) % 64)
        blocks[name] = [header_size + len(body), len(data)]
        body += data
    header = json.dumps({"band_config_hash": "testhash", "blocks": blocks, "count": 3, "dim": 4,
                         "format_version": 6}, sort_keys=True).encode()
    assert header_size % 64 == 0 and header_size - 64 <= len(header) < header_size
    assert blob == header.ljust(header_size - 1) + b"\n" + body


def test_load_then_save_to_the_same_path_is_byte_identical(tmp_path):
    """The loaded index reads its vectors from a mapping of the file it
    overwrites; the save replaces the file instead of truncating it."""
    path = tmp_path / "index.bin"
    build_index(np.random.default_rng(14), 50).save(path)
    before = path.read_bytes()
    VectorIndex.load(path).save(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["index.bin"]


def test_index_loaded_before_a_resave_searches_its_old_bytes(tmp_path):
    rng = np.random.default_rng(15)
    old, new = build_index(rng, 30), build_index(rng, 30)
    path = tmp_path / "index.bin"
    old.save(path)
    loaded = VectorIndex.load(path)
    new.save(path)
    query = rng.standard_normal(DIM)
    assert loaded.search(query, 30) == old.search(query, 30)
    assert all(loaded.vector(i).tobytes() == old.vector(i).tobytes() for i in old.ids())
    assert VectorIndex.load(path).search(query, 30) == new.search(query, 30)


def test_failed_save_leaves_the_target_and_no_stray_file(tmp_path, monkeypatch):
    index = build_index(np.random.default_rng(16), 5)
    (tmp_path / "dir").mkdir()
    with pytest.raises(IsADirectoryError):
        index.save(tmp_path / "dir")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]
    path = tmp_path / "index.bin"
    path.write_bytes(b"previous")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        index.save(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "index.bin"]
    assert path.read_bytes() == b"previous"


def test_loaded_vectors_are_read_only_views(tmp_path):
    """Vectors are read-only in a loaded index and in a built one, and the
    caller's array stays writable."""
    vectors = unit_vectors(np.random.default_rng(17), 4)
    index = VectorIndex("h")
    for i, v in enumerate(vectors):
        index.insert(f"rec-{i:04d}", v)
    path = tmp_path / "index.bin"
    index.save(path)
    loaded = VectorIndex.load(path)
    for lookup in (loaded, index):
        vector = lookup.vector("rec-0002")
        assert not vector.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 1.0
        copy = vector.astype(float)
        copy[0] = 1.0
    assert loaded.vector("rec-0002").tobytes() == index.vector("rec-0002").tobytes()
    assert vectors.flags.writeable and index.vector("rec-0002").tobytes() == vectors[2].astype("<f4").tobytes()


@settings(max_examples=40, deadline=None)
@given(
    distinct=st.integers(min_value=1, max_value=300),
    copies=st.integers(min_value=0, max_value=40),
    zeros=st.integers(min_value=0, max_value=5),
    k=st.integers(min_value=1, max_value=60),
    stems=st.lists(st.sampled_from(["r", "a/", "a-", "a.", "\u00e9/", "\u00e9t\u00e9-", "\U0001f600", "a\u00a0"]),
                   min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stored_norms_and_search_match_in_memory(distinct, copies, zeros, k, stems, seed):
    """Record counts from 1 to 345, whole multiples of 8 and 128 or not,
    with duplicate and all-zero rows, and ids that are not ASCII or whose
    `Path` order differs from their string order (`a/1` before `a-1` as
    paths, after it as strings): the saved-then-loaded index has the same
    ids, in string order, the same vector bytes per id and the same hits and
    similarity bytes as the in-memory one, and its stored norms are bitwise
    `np.linalg.norm` of the float64 rows."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((distinct, DIM)) * rng.uniform(0.01, 100.0, (distinct, 1))
    vectors = np.concatenate([vectors, vectors[rng.integers(0, distinct, copies)], np.zeros((zeros, DIM))])
    index = VectorIndex("h")
    for i in rng.permutation(len(vectors)):
        index.insert(f"{stems[i % len(stems)]}{i}", vectors[i])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.bin"
        index.save(path)
        loaded = VectorIndex.load(path)
        stored = np.frombuffer(path.read_bytes()[-8 * len(index):], dtype="<f8")
    assert loaded.ids() == tuple(sorted(index.ids()))
    assert all(loaded.vector(i).tobytes() == index.vector(i).tobytes() for i in index.ids())
    matrix = np.stack([index.vector(i) for i in loaded.ids()])
    assert stored.tobytes() == np.linalg.norm(matrix.astype(np.float64), axis=1).tobytes()
    for query in (rng.standard_normal(DIM), vectors[rng.integers(0, distinct)]):
        assert hit_pairs(loaded.search(query, k)) == hit_pairs(index.search(query, k))


def test_load_insert_save_load(tmp_path):
    """A loaded index rejects a duplicate id and stays as it was, takes a new
    id, and saves the file the same records built in memory save."""
    rng = np.random.default_rng(18)
    built = build_index(rng, 20)
    built.save(tmp_path / "index.bin")
    loaded = VectorIndex.load(tmp_path / "index.bin")
    with pytest.raises(ValueError, match="duplicate"):
        loaded.insert("rec-0007", np.ones(DIM))
    assert loaded.ids() == built.ids() and len(loaded) == 20
    new = unit_vectors(rng, 1)[0]
    for index in (loaded, built):
        index.insert("rec-0010a", new)
    loaded.save(tmp_path / "loaded.bin")
    built.save(tmp_path / "built.bin")
    assert (tmp_path / "loaded.bin").read_bytes() == (tmp_path / "built.bin").read_bytes()
    reloaded = VectorIndex.load(tmp_path / "loaded.bin")
    assert reloaded.ids() == tuple(sorted(built.ids()))
    assert reloaded.vector("rec-0010a").tobytes() == new.astype("<f4").tobytes()
    query = rng.standard_normal(DIM)
    assert reloaded.search(query, 21) == built.search(query, 21)


def test_lone_surrogate_ids_round_trip(tmp_path):
    """A file name that is not UTF-8 reaches `index` as a string with lone
    surrogates (`os.fsdecode`); such ids and paths are stored, sorted in
    code point order and read back."""
    index = VectorIndex("h", dim=2)
    for i, record_id in enumerate(["\ue000", "a\udcff", "\ud7ff", "a"]):
        index.insert(record_id, np.array([1.0, i]))
    index.save(tmp_path / "index.bin")
    loaded = VectorIndex.load(tmp_path / "index.bin")
    assert loaded.ids() == ("a", "a\udcff", "\ud7ff", "\ue000")
    assert loaded.search(np.array([1.0, 0.0]), 4) == index.search(np.array([1.0, 0.0]), 4)
    assert loaded.vector("a\udcff").tolist() == [1.0, 1.0]


def _replace_bytes(old, new):
    return lambda file: file.write_bytes(file.read_bytes().replace(old, new, 1))


def _cut_tail(size):
    return lambda file: file.write_bytes(file.read_bytes()[:-size])


def _set_norm(value):
    """Overwrite the second of the three stored norms with `value`."""
    def damage(file):
        blob = bytearray(file.read_bytes())
        blob[-16:-8] = np.array([value], dtype="<f8").tobytes()
        file.write_bytes(bytes(blob))
    return damage


def _set_offset(column, row, value):
    """Overwrite offset `row` of a string column."""
    def damage(file):
        start = block(file, f"{column}.offsets")[0] + 8 * row
        blob = bytearray(file.read_bytes())
        blob[start:start + 8] = np.array([value], dtype="<u8").tobytes()
        file.write_bytes(bytes(blob))
    return damage


def _header_only_negative_count(file):
    file.write_bytes(file.read_bytes().split(b"\n", 1)[0] + b"\n")
    rewrite_header(file, count=-3)


def _append_bytes(file):
    file.write_bytes(file.read_bytes() + b"\0")


def older_columns(ids):
    """The string columns of formats 3 to 5 for the records `ids`: each
    path is its id, as `index` wrote it, with source kind `file` and an
    empty span."""
    ids = list(ids)
    return {"id": ids, "path": ids, "source_kind": ["file"] * len(ids), "span": [""] * len(ids)}


def write_v3(index, file, columns):
    """Write the records of `index` named by `columns["id"]`, in that order,
    in the version-3 layout: a JSON header line, one JSON line of the
    column arrays (`older_columns`), the float32 matrix and the float64 row
    norms."""
    ids = columns["id"]
    header = {"band_config_hash": index.band_config_hash, "count": len(ids), "dim": index.dim, "format_version": 3}
    matrix = np.array([index.vector(i) for i in ids], dtype="<f4").reshape(len(ids), index.dim)
    norms = np.linalg.norm(matrix.astype(np.float64), axis=1).astype("<f8")
    file.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                     + json.dumps(columns, sort_keys=True).encode() + b"\n" + matrix.tobytes() + norms.tobytes())


def read_blocks(file):
    """The header of a saved file without its `blocks`, and its (block
    name, bytes) pairs in file order."""
    blob = file.read_bytes()
    header = json.loads(blob.split(b"\n", 1)[0])
    blocks = sorted(header.pop("blocks").items(), key=lambda b: b[1][0])
    return header, [(name, blob[start:start + length]) for name, (start, length) in blocks]


def write_blocks(file, header, parts):
    """Write `header` with a `blocks` table, then `parts`, (block name,
    bytes) pairs, each at the first 64-byte boundary after the header or the
    block before it."""
    size = 0
    while True:  # the header's size moves the blocks, and their offsets its size
        layout, end = {}, size
        for name, data in parts:
            end += -end % 64
            layout[name], end = [end, len(data)], end + len(data)
        line = json.dumps({**header, "blocks": layout}, sort_keys=True).encode()
        if len(line) < size:
            break
        size = len(line) + 1 + -(len(line) + 1) % 64
    out = bytearray(line.ljust(size - 1) + b"\n")
    for name, data in parts:
        out += bytes(layout[name][0] - len(out)) + data
    file.write_bytes(bytes(out))


def write_v5(file, columns):
    """Rewrite a saved file in the version-5 layout: its blocks, with the
    `path`, `source_kind` and `span` columns of `columns` after the ids,
    each as uint64 offsets and UTF-8 bytes."""
    header, parts = read_blocks(file)
    added = []
    for name in ("path", "source_kind", "span"):
        texts = [value.encode() for value in columns[name]]
        added += [(f"{name}.offsets", np.cumsum([0] + [len(t) for t in texts]).astype("<u8").tobytes()),
                  (f"{name}.data", b"".join(texts))]
    write_blocks(file, {**header, "format_version": 5}, [*parts[:2], *added, *parts[2:]])


def write_v4(file):
    """Rewrite a version-5 file in the version-4 layout: the same header and
    blocks without the `vectors_by_dim` ones."""
    header, parts = read_blocks(file)
    write_blocks(file, {**header, "format_version": 4},
                 [(name, data) for name, data in parts if not name.startswith("vectors_by_dim")])


def relabel_as_older(file, version):
    """Rewrite a saved file in the layout of format `version`. A version-5
    file is a version-6 one with the `older_columns` after the ids, a
    version-4 file a version-5 one without the by-dimension blocks, and a
    version-2 file a version-3 one without the norm block. A version-1 body
    (per-record lines) is not rebuilt: `load` refuses an older file at its
    header and reads no further."""
    index = VectorIndex.load(file)
    columns = older_columns(index.ids())
    if version >= 4:
        write_v5(file, columns)
        if version == 4:
            write_v4(file)
        return
    write_v3(index, file, columns)
    if version == 2:
        norm_bytes = 8 * json.loads(file.read_bytes().split(b"\n", 1)[0])["count"]
        file.write_bytes(file.read_bytes()[: -norm_bytes or None])
    rewrite_header(file, format_version=version)


def _older(version, damage):
    """`damage` on a file of format `version`: the version check fires first."""
    def relabel_and_damage(file):
        relabel_as_older(file, version)
        damage(file)
    return relabel_and_damage


# Damage to a version-3 file, which `load` refuses at its header whatever
# the damage (every index built before version 4 is such a file).
_V3_DAMAGE = {
    "negative_count": _header_only_negative_count,
    "boolean_dim": lambda p: rewrite_header(p, dim=True),
    "missing_dim": lambda p: rewrite_header(p, dim=None),
    "hash_not_text": lambda p: rewrite_header(p, band_config_hash=7),
    "column_length_mismatch": lambda p: rewrite_columns(p, span=["1-10"] * 2),
    "missing_column": _replace_bytes(b'"source_kind"', b'"kind"'),
    "column_not_text": lambda p: rewrite_columns(p, path=["a", 2, "c"]),
    "duplicate_id": lambda p: rewrite_columns(p, id=["a", "b", "a"]),
    "columns_missing": lambda p: p.write_bytes(p.read_bytes().split(b"\n")[0] + b"\n"),
    "truncated_norms": _cut_tail(5),
    "truncated_matrix": _cut_tail(3 * 8 + 5),
    "trailing_bytes": _append_bytes,
    "nan_norm": _set_norm(np.nan),
    "infinite_norm": _set_norm(np.inf),
    "minus_infinite_norm": _set_norm(-np.inf),
    "negative_norm": _set_norm(-1.0),
    "count_above_records": lambda p: rewrite_header(p, count=4),
}


def _change_block(name, change):
    """Set the [offset, length] of block `name` to `change` of it."""
    return lambda p: rewrite_block(p, name, change(block(p, name)))


# name -> (damage applied to a saved three-record file, expected error). The
# file's ids are rec-0000 to rec-0002. Its blocks end with the matrix, its
# values by dimension (every entry is nonzero, so every dimension is dense:
# three words each) and the norms. The `v4_` cases damage what version 6
# keeps of the block layout of version 4; the `v5_` cases damage the blocks
# that version 5 added.
CORRUPTIONS = {
    "v4_negative_count": (_header_only_negative_count, IndexCorruptError),
    "v4_boolean_dim": (lambda p: rewrite_header(p, dim=True), IndexCorruptError),
    "v4_missing_dim": (lambda p: rewrite_header(p, dim=None), IndexCorruptError),
    "v4_hash_not_text": (lambda p: rewrite_header(p, band_config_hash=7), IndexCorruptError),
    "v4_count_above_records": (lambda p: rewrite_header(p, count=4), IndexCorruptError),
    # Refused by the block lengths before anything of that size is made.
    "v4_dim_above_blocks": (lambda p: rewrite_header(p, dim=2**60), IndexCorruptError),
    "v4_header_only": (lambda p: p.write_bytes(p.read_bytes().split(b"\n")[0] + b"\n"), IndexTruncatedError),
    "v4_truncated_norms": (_cut_tail(5), IndexTruncatedError),
    "v4_truncated_matrix": (_cut_tail(3 * 8 + 3 * DIM * 4 + 5), IndexTruncatedError),
    "v4_trailing_bytes": (_append_bytes, IndexCorruptError),
    "v4_nan_norm": (_set_norm(np.nan), IndexCorruptError),
    "v4_infinite_norm": (_set_norm(np.inf), IndexCorruptError),
    "v4_minus_infinite_norm": (_set_norm(-np.inf), IndexCorruptError),
    "v4_negative_norm": (_set_norm(-1.0), IndexCorruptError),
    "v4_missing_block": (lambda p: rewrite_block(p, "id.data", None), IndexCorruptError),
    "v4_block_not_a_pair": (lambda p: rewrite_block(p, "norms", block(p, "norms")[:1]), IndexCorruptError),
    "v4_misaligned_block": (lambda p: rewrite_block(p, "id.offsets", [block(p, "id.offsets")[0] + 8, 32]),
                            IndexCorruptError),
    # The norms moved back over the last 24 bytes of the by-dimension data:
    # the layout check refuses the overlap before a value is read.
    "v4_overlapping_block": (_change_block("norms", lambda b: [b[0] - 24, 24]), IndexCorruptError),
    "v4_block_beyond_file": (lambda p: rewrite_block(p, "norms", [block(p, "norms")[0], 32]), IndexTruncatedError),
    "v4_first_offset_not_zero": (_set_offset("id", 0, 1), IndexCorruptError),
    "v4_offset_out_of_range": (_set_offset("id", 1, 2**63), IndexCorruptError),
    "v4_decreasing_offset": (_set_offset("id", 2, 1), IndexCorruptError),
    "v4_last_offset_not_data_size": (_set_offset("id", 3, 23), IndexCorruptError),
    "v4_offset_splits_character": (_replace_bytes(b"0rec-0001", b"\xc3\xa9ec-0001"), IndexCorruptError),
    # Still after rec-0001, so the ids ascend.
    "v4_row_not_utf8": (_replace_bytes(b"rec-0002", b"rec-000\xff"), IndexCorruptError),
    "v4_unsorted_ids": (_replace_bytes(b"rec-0000rec-0001", b"rec-0001rec-0000"), IndexCorruptError),
    "v4_repeated_id": (_replace_bytes(b"rec-0001rec-0002", b"rec-0001rec-0001"), IndexCorruptError),
    "v5_missing_vectors_by_dim": (lambda p: rewrite_block(p, "vectors_by_dim.data", None), IndexCorruptError),
    "v5_truncated_vectors_by_dim": (_cut_tail(3 * 8 + 5), IndexTruncatedError),
    "v5_short_vectors_by_dim": (_change_block("vectors_by_dim.data", lambda b: [b[0], b[1] - 4]),
                                IndexCorruptError),
    "v5_misaligned_vectors_by_dim": (_change_block("vectors_by_dim.data", lambda b: [b[0] + 8, b[1]]),
                                     IndexCorruptError),
    "v5_vectors_by_dim_offset_past_data": (_set_offset("vectors_by_dim", 1, 3 * DIM + 1), IndexCorruptError),
    "v5_vectors_by_dim_offsets_short_of_data": (_set_offset("vectors_by_dim", DIM, 3 * DIM - 1),
                                                IndexCorruptError),
    # Dimension 0 holds one word, not three: sparse, so row numbers and values in pairs.
    "v5_vectors_by_dim_odd_sparse_dimension": (_set_offset("vectors_by_dim", 1, 1), IndexCorruptError),
    **{f"v3_{name}": (_older(3, damage), IndexVersionError) for name, damage in _V3_DAMAGE.items()},
    "v1_negative_count": (_older(1, _header_only_negative_count), IndexVersionError),
    "v2_negative_count": (_older(2, _header_only_negative_count), IndexVersionError),
    "v2_truncated_matrix": (_older(2, _cut_tail(5)), IndexVersionError),
    "v2_trailing_bytes": (_older(2, _append_bytes), IndexVersionError),
    "v2_count_above_records": (_older(2, lambda p: rewrite_header(p, count=4)), IndexVersionError),
}


def write_corrupt_index(path, name):
    """A saved three-record index file with `name`'s damage."""
    build_index(np.random.default_rng(11), 3).save(path)
    CORRUPTIONS[name][0](path)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_file_raises_its_error_kind(tmp_path, name):
    """Every damage makes `load` raise its error kind, except a row that is
    not UTF-8, which raises when a search reads it."""
    path = tmp_path / "index.bin"
    write_corrupt_index(path, name)
    with pytest.raises(CORRUPTIONS[name][1]):
        index = VectorIndex.load(path)
        if name == "v4_row_not_utf8":
            index.search(np.ones(DIM), 3)


def test_rows_are_decoded_only_when_read(tmp_path):
    path = tmp_path / "index.bin"
    write_corrupt_index(path, "v4_row_not_utf8")
    index = VectorIndex.load(path)
    assert index.vector("rec-0001").tobytes() == build_index(np.random.default_rng(11), 3).vector("rec-0001").tobytes()
    with pytest.raises(IndexCorruptError, match=f"^{path}: row 2 of column id is not UTF-8"):
        index.search(np.ones(DIM), 3)


def test_vector_lookup_and_unknown_id(tmp_path):
    """Built and loaded alike, by bisecting the ascending ids."""
    index = VectorIndex("h", dim=4)
    index.insert("m", np.arange(4.0))
    index.insert("c", np.ones(4))
    index.save(tmp_path / "index.bin")
    for lookup in (index, VectorIndex.load(tmp_path / "index.bin")):
        assert lookup.vector("m").tolist() == [0.0, 1.0, 2.0, 3.0]
        assert lookup.vector("c").tolist() == [1.0] * 4
        for missing in ("a", "d", "z", "", "m\0"):
            with pytest.raises(KeyError):
                lookup.vector(missing)


def test_duplicates_across_block_boundaries_tie_exactly():
    """600 rows: 150 vectors under four ids each, inserted in a shuffled
    order so copies sit in different scoring blocks and block tails."""
    rng = np.random.default_rng(12)
    vectors = unit_vectors(rng, 150)
    index = VectorIndex("h")
    for row in rng.permutation(600):
        index.insert(f"u{row % 150:03d}-{row // 150}", vectors[row % 150])
    for query in rng.standard_normal((5, DIM)):
        hits = index.search(query, 45).hits
        assert [h.id for h in hits] == brute_force_ids(index, query, 45)
        by_unit = {}
        for h in hits:
            by_unit.setdefault(h.id[:4], set()).add(h.similarity)
        assert all(len(sims) == 1 for sims in by_unit.values())


@settings(max_examples=60, deadline=None)
@given(
    distinct=st.integers(min_value=1, max_value=12),
    copies=st.integers(min_value=1, max_value=5),
    zeros=st.integers(min_value=0, max_value=3),
    k=st.integers(min_value=0, max_value=80),
    zero_query=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_duplicates_zero_vectors_and_large_k_match_oracle(distinct, copies, zeros, k, zero_query, seed):
    """Copies of one vector tie exactly wherever they are stored, so the k-th
    position can fall inside a group of copies; zero vectors and a zero query
    score 0; k may exceed the record count."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((distinct, DIM))
    rows = [(f"u{u}-{c}", vectors[u]) for u in range(distinct) for c in range(copies)]
    rows += [(f"zero{z}", np.zeros(DIM)) for z in range(zeros)]
    index = VectorIndex("h")
    for i in rng.permutation(len(rows)):
        index.insert(rows[i][0], rows[i][1])
    query = np.zeros(DIM) if zero_query else rng.standard_normal(DIM)
    result = index.search(query, k)
    assert result.ids() == brute_force_ids(index, query, k)
    assert len(result.hits) == min(k, len(rows))
    sims = {}
    for h in result.hits:
        sims.setdefault(h.id.split("-")[0], set()).add(h.similarity)
    assert all(len(values) == 1 for values in sims.values())



FLOAT32_MAX = float(np.finfo(np.float32).max)
# Row kinds of the two-pass property; each draw adds one row.
ROW_KINDS = ("random", "duplicate", "ulp", "zero", "subnormal", "tiny", "huge", "signed", "tie", "sparse")
QUERY_KINDS = ("random", "zero", "row", "tie", "ones", "tiny", "huge", "sparse")
# Nonzero entries of a sparse query: below, at and past one and two bound-pass
# blocks of 128 dimensions (`index` queries hold a median of 65, at most 120).
SPARSE_QUERY_SIZES = (1, 65, 120, 127, 128, 129, 256, 257, 300)


def adversarial_row(kind: str, rows: list[np.ndarray], tie: np.ndarray, rng) -> np.ndarray:
    """A float32 row of `kind`, given the rows drawn so far and the shared
    direction of the near-tie cluster."""
    if kind in ("duplicate", "ulp") and rows:
        row = rows[rng.integers(len(rows))].copy()
        if kind == "ulp":
            j = rng.integers(DIM)
            row[j] = np.nextafter(row[j], np.float32(np.inf))
        return row
    if kind == "zero":
        return np.zeros(DIM, dtype=np.float32)
    if kind == "subnormal":  # a few float32 ulps of 0: products with a unit query underflow to 0
        return (rng.standard_normal(DIM) * 1e-44).astype(np.float32)
    if kind == "tiny":  # norm from a quarter to four times the 2**-100 floor
        return (rng.standard_normal(DIM) * 2.0**-100 / np.sqrt(DIM) * 4.0 ** rng.uniform(-1, 1)).astype(np.float32)
    if kind == "huge":  # one sign near float32's largest value: a float32 dot overflows
        return (rng.uniform(0.5, 1.0, DIM) * FLOAT32_MAX).astype(np.float32)
    if kind == "signed":  # alternating signs: lanes of one sign overflow, and their sum is NaN
        return (np.where(np.arange(DIM) % 2, -1.0, 1.0) * rng.uniform(0.9, 1.0, DIM) * FLOAT32_MAX).astype(np.float32)
    if kind == "tie":  # the shared direction, moved by about one float32 rounding
        return (tie * (1.0 + rng.standard_normal(DIM) * 2.0**-24)).astype(np.float32)
    if kind == "sparse":  # 73 nonzero entries, as `index` rows hold a median of
        return sparse(rng, 73).astype(np.float32)
    return (rng.standard_normal(DIM) * 10.0 ** rng.uniform(-3, 3)).astype(np.float32)


def sparse(rng, size):
    """A vector with `size` nonzero entries in random dimensions."""
    vector = np.zeros(DIM)
    vector[rng.choice(DIM, size, replace=False)] = rng.standard_normal(size)
    return vector


def scored_query(query):
    """The query a search scores and its norm: a nonzero query whose norm
    is below 2**-500 or overflows is divided by its largest absolute entry."""
    query = np.asarray(query, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        norm = np.linalg.norm(query)
    if query.any() and not 2.0**-500 <= norm < np.inf:
        query = query / np.abs(query).max()
        norm = np.linalg.norm(query)
    return query, norm


def exhaustive_hits(index, query, k):
    """Every row scored by `_similarities` against `scored_query(query)`,
    then the first k by a stable sort: ties by row, which is ascending id.
    A search first merges the inserts and joins a built index's rows into
    the one matrix `_similarities` reads."""
    index.search(query, 1)
    query, norm = scored_query(query)
    sims = index._similarities(query, np.arange(len(index)), norm)
    return [(index._ids[row], float.hex(float(sims[row]))) for row in np.argsort(-sims, kind="stable")[:k].tolist()]


def hit_pairs(result):
    return [(h.id, float.hex(h.similarity)) for h in result.hits]


@settings(max_examples=80, deadline=None)
@given(kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=40),
       query_kind=st.sampled_from(QUERY_KINDS), k_draw=st.integers(min_value=0), seed=st.integers(0, 2**32 - 1))
def test_two_pass_search_equals_scoring_every_row(kinds, query_kind, k_draw, seed, tmp_path_factory):
    """Built and loaded, the bound pass keeps every row the exact scoring
    of all rows returns, ties included, over exact duplicates, rows one
    float32 ulp apart, zero rows, sparse rows, rows with subnormal entries
    and rows of norm near the 2**-100 floor, rows whose float32 dot
    overflows or sums to NaN, near-tie clusters larger than k, k from 1 to
    count + 1, the zero query and sparse queries whose nonzero dimensions
    fill less than one, one or more of the bound pass's blocks. Then both
    take copies of every other row: the merge drops the values by
    dimension, and the next search, which derives them again, still equals
    scoring every row."""
    rng = np.random.default_rng(seed)
    tie = rng.standard_normal(DIM)
    rows = []
    for kind in kinds:
        rows.append(adversarial_row(kind, rows, tie, rng))
    k = 1 + k_draw % (len(rows) + 1)
    query = {"zero": np.zeros(DIM), "row": rows[rng.integers(len(rows))].astype(np.float64), "tie": tie,
             "ones": np.ones(DIM), "tiny": rng.standard_normal(DIM) * 1e-160,
             "huge": rng.standard_normal(DIM) * 1e300,
             "sparse": sparse(rng, rng.choice(SPARSE_QUERY_SIZES))}.get(query_kind)
    query = rng.standard_normal(DIM) if query is None else query
    built = VectorIndex("h")
    for i in rng.permutation(len(rows)):
        built.insert(f"r{i:02d}", rows[i])
    path = tmp_path_factory.mktemp("two_pass") / "index.bin"
    built.save(path)
    loaded = VectorIndex.load(path)
    want = exhaustive_hits(built, query, k)
    assert len(want) == min(k, len(rows))
    assert exhaustive_hits(loaded, query, k) == want
    assert hit_pairs(built.search(query, k)) == want
    assert hit_pairs(loaded.search(query, k)) == want
    for index in (built, loaded):
        for i in range(0, len(rows), 2):
            index.insert(f"s{i:02d}", rows[i])
    got = [hit_pairs(index.search(query, k)) for index in (built, loaded)]
    want = exhaustive_hits(built, query, k)
    assert got == [want, want] and exhaustive_hits(loaded, query, k) == want


@pytest.mark.parametrize("dim", [300, DIM])
def test_by_dimension_blocks_hold_the_values_however_the_rows_are_held(dim, tmp_path):
    """The `vectors_by_dim` blocks hold the values of `vectors` dimension by
    dimension (`reference_by_dimension`) whether a merge derived them from a
    built index's row arrays, before or after a search, or from a loaded
    index's rows and inserts, or a load mapped them from the file: every
    index saves the same bytes. The dimensions have from none to all of
    their entries nonzero, exactly and just under half of them included."""
    rng = np.random.default_rng(dim)
    vectors = (rng.standard_normal((346, dim)) * (rng.random((346, dim)) < rng.random(dim))).astype("<f4")
    vectors[:, :5] = 0.0
    vectors[:, 1] = 1.0
    # Half of the first 300 rows (dense), half of all 346 rows (dense), one short of half of 300 (sparse).
    for d, nonzero in ((2, 150), (3, 173), (4, 149)):
        vectors[10:10 + nonzero, d] = rng.standard_normal(nonzero)
    vectors[7], vectors[9] = 0.0, vectors[8]

    def build(rows, stem):
        index = VectorIndex("h", dim=dim)
        for i in rng.permutation(len(rows)):
            index.insert(f"{stem}{i:03d}", rows[i])
        return index

    def saved(index, name):
        index.save(tmp_path / name)
        blob = (tmp_path / name).read_bytes()
        start, length = block(tmp_path / name, "vectors")
        want = reference_by_dimension(np.frombuffer(blob, dtype="<f4", count=length // 4, offset=start)
                                      .reshape(-1, dim))
        assert all(blob[start:start + length] == want[name]
                   for name, (start, length) in ((n, block(tmp_path / name, n)) for n in want))
        return blob

    built, searched = build(vectors[:300], "r"), build(vectors[:300], "r")
    searched.search(rng.standard_normal(dim), 5)
    assert saved(built, "built.bin") == saved(searched, "searched.bin")
    loaded = VectorIndex.load(tmp_path / "built.bin")
    assert saved(loaded, "loaded.bin") == (tmp_path / "built.bin").read_bytes()
    for index in (built, loaded):
        for i, vector in enumerate(vectors[300:]):
            index.insert(f"n{i:03d}", vector)
    assert saved(loaded, "merged.bin") == saved(built, "built_merged.bin")


def test_merge_derives_the_values_by_dimension_one_block_of_dimensions_at_a_time():
    """The merge derives the values by dimension one stacked (128 x count)
    block at a time into the words it keeps: its traced peak passes what it
    keeps, every dense dimension's words included, by less than two such
    blocks."""
    count = 2048
    index = build_index(np.random.default_rng(23), count)
    tracemalloc.start()
    try:
        index.ids()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 128 * count * 4
    assert kept >= count * DIM * 4  # every dimension is dense: its words are its count values
    assert peak - kept < 2 * block


def test_first_search_of_a_built_index_holds_no_second_copy_of_its_rows():
    """A built index is searched where its merged rows are held: the first
    search's traced peak stays below one copy of the rows."""
    count = 2048
    index = build_index(np.random.default_rng(23), count)
    index.ids()  # merged before tracing, so the search's own allocations are measured
    tracemalloc.start()
    try:
        index.search(unit_vectors(np.random.default_rng(24), 1)[0], 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < count * DIM * 4


def test_row_number_beyond_the_count_raises_when_the_bound_pass_reads_it(tmp_path):
    """`load` trusts the by-dimension data to hold the matrix's values and
    reads no row number: one past the last record is found, and refused,
    when a search's bound pass reads it (k below the count)."""
    index = VectorIndex("h")
    for i in range(3):  # one nonzero entry each, in dimensions 0 to 2: all sparse
        index.insert(f"rec-{i}", np.eye(DIM)[i])
    path = tmp_path / "index.bin"
    index.save(path)
    start = block(path, "vectors_by_dim.data")[0]  # dimension 0: row number 0, then its value
    blob = bytearray(path.read_bytes())
    blob[start:start + 4] = np.array([3], dtype="<u4").tobytes()
    path.write_bytes(bytes(blob))
    loaded = VectorIndex.load(path)
    assert sorted(loaded.search(np.eye(DIM)[0], 3).ids()) == ["rec-0", "rec-1", "rec-2"]  # every row, no bound pass
    with pytest.raises(IndexCorruptError, match=f"^{path}: block vectors_by_dim.data holds a row number >= the count"):
        loaded.search(np.eye(DIM)[0], 1)


def test_rows_without_a_bound_are_always_candidates(tmp_path):
    """A row whose float32 product overflows in any summation order and a
    row of norm below the floor have no bound, so they are candidates for
    every k; here both outscore every ordinary row. A zero row gets [0, 0],
    and a row whose float32 product is NaN (alternating signs, on kernels
    that sum in several lanes) gets no bound; neither may lift the k-th
    lower end over an ordinary row's exact score."""
    rng = np.random.default_rng(27)
    specials = {"huge": adversarial_row("huge", [], None, rng),
                "signed": adversarial_row("signed", [], None, rng),
                "subnormal": np.abs(adversarial_row("subnormal", [], None, rng)),
                "zero": np.zeros(DIM)}
    index = VectorIndex("h")
    for name, row in specials.items():
        index.insert(name, row)
    for i in range(200):
        index.insert(f"r{i:03d}", rng.standard_normal(DIM) + 0.5)
    index.save(tmp_path / "index.bin")
    loaded = VectorIndex.load(tmp_path / "index.bin")
    query = np.ones(DIM)
    for current in (index, loaded):
        assert [h.id for h in current.search(query, 2).hits] == ["huge", "subnormal"]
        candidates = {current._ids[row] for row in current._candidates(query, 1, np.linalg.norm(query))}
        assert {"huge", "subnormal"} <= candidates and "zero" not in candidates and len(candidates) < 10
        for k in (1, 3, 5, 204, 205):
            assert hit_pairs(current.search(query, k)) == exhaustive_hits(current, query, k)

@settings(max_examples=30, deadline=None)
@given(
    before=st.integers(min_value=0, max_value=20),
    after=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=0, max_value=70),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_insert_after_load_matches_oracle(before, after, k, seed):
    """A loaded index holds exactly its records; inserting more grows it."""
    rng = np.random.default_rng(seed)
    index = build_index(rng, before)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.bin"
        index.save(path)
        loaded = VectorIndex.load(path)
    for i, v in enumerate(unit_vectors(rng, after)):
        loaded.insert(f"new-{i:04d}", v)
        index.insert(f"new-{i:04d}", v)
    assert len(loaded) == before + after
    assert all(loaded.vector(i).tobytes() == index.vector(i).tobytes() for i in index.ids())
    query = rng.standard_normal(DIM)
    assert loaded.search(query, k).ids() == brute_force_ids(loaded, query, k)
    assert loaded.search(query, k) == index.search(query, k)


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(st.text(max_size=12), max_size=20, unique=True),
    band_hash=st.text(max_size=16),
    dim=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_save_load_save_is_byte_identical(records, band_hash, dim, seed):
    rng = np.random.default_rng(seed)
    index = VectorIndex(band_hash, dim=dim)
    for record_id in records:
        index.insert(record_id, rng.standard_normal(dim))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.bin", Path(tmp) / "b.bin"
        index.save(first)
        loaded = VectorIndex.load(first)
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.band_config_hash == band_hash and loaded.dim == dim
    assert loaded.ids() == tuple(sorted(index.ids()))
    everything = len(records)
    assert loaded.search(np.ones(dim), everything) == index.search(np.ones(dim), everything)


def build_at_once(records, dim):
    """One build of `records`, (id, vector) pairs."""
    index = VectorIndex("h", dim=dim)
    for record_id, vector in records:
        index.insert(record_id, vector)
    return index


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.one_of(st.integers(min_value=1, max_value=20),
                             st.sampled_from(["search", "vector", "ids", "reload"])), max_size=10),
    stems=st.lists(st.sampled_from(["r", "a/", "a-", "\u00e9", "\U0001f600"]), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_inserts_reads_and_reloads_in_any_order_match_one_build(steps, stems, seed):
    """Batches of inserts (an integer step inserts that many records), reads
    (`search`, `vector`, `ids`) and save->load round trips, in any order:
    every read, and the index at the end, give the same ids, vector bytes,
    hits and similarity bytes as one build of the records inserted so far,
    and the hits are the oracle's. Vectors are small integers, so ties and
    zero rows are common, and ids arrive out of order."""
    rng = np.random.default_rng(seed)
    dim, records = 6, []
    index = VectorIndex("h", dim=dim)
    with tempfile.TemporaryDirectory() as tmp:
        for step in [*steps, "search", "vector", "ids"]:
            if isinstance(step, int):
                for n in rng.permutation(step) + len(records):
                    record = (f"{stems[n % len(stems)]}{n}", rng.integers(-2, 3, dim).astype(float))
                    index.insert(*record)
                    records.append(record)
                with pytest.raises(ValueError, match="duplicate"):
                    index.insert(records[0][0], np.zeros(dim))
                continue
            built = build_at_once(records, dim)
            if step == "search":
                query = rng.integers(-2, 3, dim).astype(float)
                result = index.search(query, len(records))
                assert hit_pairs(result) == hit_pairs(built.search(query, len(records)))
                assert result.ids() == brute_force_ids(built, query, len(records))
            elif step == "vector":
                assert all(index.vector(i).tobytes() == built.vector(i).tobytes() for i, _ in records)
                with pytest.raises(KeyError):
                    index.vector("missing")
            elif step == "ids":
                assert index.ids() == built.ids() == tuple(sorted(i for i, _ in records))
            else:
                index.save(Path(tmp) / "index.bin")
                index = VectorIndex.load(Path(tmp) / "index.bin")
            assert len(index) == len(records)
