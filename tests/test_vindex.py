import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmux.vindex import (
    IndexCorruptError,
    IndexHashMismatchError,
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
        index.insert(f"rec-{i:04d}", v, RecordMetadata(path=f"src/f{i}.java", span="1-10"))
    return index


def write_v1(index, path):
    """Write `index` in the version-1 layout: a header line, then per record
    a JSON metadata line carrying the band hash and the float32 vector."""
    header = {"band_config_hash": index.band_config_hash, "count": len(index),
              "dim": index.dim, "format_version": 1}
    hits = {h.id: h.metadata for h in index.search(np.zeros(index.dim), len(index)).hits}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for record_id in index.ids():
            meta = hits[record_id]
            record = {"band_config_hash": index.band_config_hash, "id": record_id, "path": meta.path,
                      "source_kind": meta.source_kind, "span": meta.span}
            fh.write(json.dumps(record, sort_keys=True).encode() + b"\n")
            fh.write(index.vector(record_id).tobytes())


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
    index.insert("a", np.ones(DIM), RecordMetadata(path="a.java"))
    assert len(index) == 1


def test_duplicate_id_rejected_and_index_unchanged():
    index = VectorIndex("h")
    index.insert("a", np.ones(DIM), RecordMetadata(path="a.java"))
    with pytest.raises(ValueError, match="duplicate"):
        index.insert("a", np.zeros(DIM), RecordMetadata(path="b.java"))
    assert len(index) == 1
    assert index.ids() == ("a",)


def test_dimension_mismatch_rejected():
    index = VectorIndex("h")
    with pytest.raises(ValueError, match="shape"):
        index.insert("a", np.ones(4), RecordMetadata(path="a.java"))


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
        index.insert(record_id, v, RecordMetadata(path=record_id))
    result = index.search(v, 3)
    assert result.ids() == ["aa", "mm", "zz"]
    sims = [h.similarity for h in result.hits]
    assert sims == sorted(sims, reverse=True)


@pytest.mark.parametrize("count", [1, 5, 127, 128, 129, 300])
def test_similarity_norms_are_rowwise_linalg_norm(count, monkeypatch):
    """The row norms `_similarities` divides by are bitwise
    `np.linalg.norm(matrix, axis=1)` in float64, a pairwise `add.reduce`
    along each row; a per-row `np.linalg.norm(row)` differs from it in the
    last bit for some rows."""
    rng = np.random.default_rng(count)
    vectors = rng.standard_normal((count, DIM)) * rng.uniform(0.01, 100.0, (count, 1))
    vectors[1::4] = vectors[::4][: len(vectors[1::4])]  # duplicate rows
    vectors[2::7] = 0.0
    index = VectorIndex("h")
    for i, vector in enumerate(vectors):
        index.insert(f"r{i}", vector, RecordMetadata(path="p"))
    sqrt, divided_by = np.sqrt, []

    def recording_sqrt(x):
        divided_by.append(sqrt(x))
        return divided_by[-1]

    monkeypatch.setattr(np, "sqrt", recording_sqrt)
    index._similarities(rng.standard_normal(DIM))
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


def test_record_hash_mismatch(tmp_path):
    rng = np.random.default_rng(7)
    index = build_index(rng, 2)
    path = tmp_path / "index.bin"
    write_v1(index, path)
    blob = path.read_bytes().replace(b'"band_config_hash": "testhash", "id": "rec-0001"',
                                     b'"band_config_hash": "othrhash", "id": "rec-0001"')
    path.write_bytes(blob)
    with pytest.raises(IndexHashMismatchError):
        VectorIndex.load(path)


def rewrite_header(file, **changes):
    """Replace header fields of a saved index file in place."""
    header_line, body = file.read_bytes().split(b"\n", 1)
    header = {**json.loads(header_line), **changes}
    file.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)


def rewrite_columns(file, **changes):
    """Replace column arrays of a saved version-2 index file in place."""
    header_line, columns_line, matrix = file.read_bytes().split(b"\n", 2)
    columns = {**json.loads(columns_line), **changes}
    file.write_bytes(header_line + b"\n" + json.dumps(columns, sort_keys=True).encode() + b"\n" + matrix)


def test_save_writes_version_two_layout(tmp_path):
    rng = np.random.default_rng(9)
    index = build_index(rng, 3)
    path = tmp_path / "index.bin"
    index.save(path)
    header_line, columns_line, matrix = path.read_bytes().split(b"\n", 2)
    assert json.loads(header_line) == {"band_config_hash": "testhash", "count": 3, "dim": DIM, "format_version": 2}
    assert json.loads(columns_line) == {
        "id": ["rec-0000", "rec-0001", "rec-0002"],
        "path": ["src/f0.java", "src/f1.java", "src/f2.java"],
        "source_kind": ["file"] * 3,
        "span": ["1-10"] * 3,
    }
    assert matrix == b"".join(index.vector(i).astype("<f4").tobytes() for i in index.ids())


def test_version_one_file_loads_and_resaves_as_version_two(tmp_path):
    rng = np.random.default_rng(10)
    index = build_index(rng, 40)
    v1, v2 = tmp_path / "v1.bin", tmp_path / "v2.bin"
    write_v1(index, v1)
    loaded = VectorIndex.load(v1)
    assert loaded.ids() == index.ids()
    assert all(loaded.vector(i).tobytes() == index.vector(i).tobytes() for i in index.ids())
    query = rng.standard_normal(DIM)
    assert loaded.search(query, 40) == index.search(query, 40)
    loaded.save(v2)
    index.save(tmp_path / "direct.bin")
    assert v2.read_bytes() == (tmp_path / "direct.bin").read_bytes()


def _replace_bytes(old, new):
    return lambda file: file.write_bytes(file.read_bytes().replace(old, new, 1))


def _truncate_matrix(file):
    file.write_bytes(file.read_bytes()[:-5])


def _list_metadata(file):
    header_line, _, rest = file.read_bytes().split(b"\n", 2)
    file.write_bytes(header_line + b"\n[1,2]\n" + rest)


def _header_only_negative_count(file):
    file.write_bytes(file.read_bytes().split(b"\n", 1)[0] + b"\n")
    rewrite_header(file, count=-3)


def _append_bytes(file):
    file.write_bytes(file.read_bytes() + b"\0")


# name -> (writer, damage applied to the written file, expected error)
CORRUPTIONS = {
    "v1_metadata_is_a_list": ("v1", _list_metadata, IndexCorruptError),
    "v1_negative_count": ("v1", _header_only_negative_count, IndexCorruptError),
    "v2_negative_count": ("v2", _header_only_negative_count, IndexCorruptError),
    "v2_boolean_dim": ("v2", lambda p: rewrite_header(p, dim=True), IndexCorruptError),
    "v2_missing_dim": ("v2", lambda p: rewrite_header(p, dim=None), IndexCorruptError),
    "v2_hash_not_text": ("v2", lambda p: rewrite_header(p, band_config_hash=7), IndexCorruptError),
    "v2_truncated_matrix": ("v2", _truncate_matrix, IndexTruncatedError),
    "v2_count_above_records": ("v2", lambda p: rewrite_header(p, count=4), IndexCorruptError),
    "v2_column_length_mismatch": ("v2", lambda p: rewrite_columns(p, span=["1-10"] * 2), IndexCorruptError),
    "v2_missing_column": ("v2", _replace_bytes(b'"source_kind"', b'"kind"'), IndexCorruptError),
    "v2_column_not_text": ("v2", lambda p: rewrite_columns(p, path=["a", 2, "c"]), IndexCorruptError),
    "v2_duplicate_id": ("v2", lambda p: rewrite_columns(p, id=["a", "b", "a"]), IndexCorruptError),
    "v2_trailing_bytes": ("v2", _append_bytes, IndexCorruptError),
    "v2_columns_missing": ("v2", lambda p: p.write_bytes(p.read_bytes().split(b"\n")[0] + b"\n"),
                           IndexTruncatedError),
}


def write_corrupt_index(path, name):
    """A three-record index file in `name`'s layout with `name`'s damage."""
    writer, damage, _ = CORRUPTIONS[name]
    index = build_index(np.random.default_rng(11), 3)
    (write_v1 if writer == "v1" else VectorIndex.save)(index, path)
    damage(path)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_file_raises_its_error_kind(tmp_path, name):
    path = tmp_path / "index.bin"
    write_corrupt_index(path, name)
    with pytest.raises(CORRUPTIONS[name][2]):
        VectorIndex.load(path)


def test_vector_lookup_and_unknown_id():
    index = VectorIndex("h", dim=4)
    index.insert("a", np.arange(4.0), RecordMetadata(path="a"))
    assert index.vector("a").tolist() == [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(KeyError):
        index.vector("missing")


def test_duplicates_across_block_boundaries_tie_exactly():
    """600 rows: 150 vectors under four ids each, inserted in a shuffled
    order so copies sit in different scoring blocks and block tails."""
    rng = np.random.default_rng(12)
    vectors = unit_vectors(rng, 150)
    index = VectorIndex("h")
    for row in rng.permutation(600):
        index.insert(f"u{row % 150:03d}-{row // 150}", vectors[row % 150], RecordMetadata(path=""))
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
        index.insert(rows[i][0], rows[i][1], RecordMetadata(path=rows[i][0]))
    query = np.zeros(DIM) if zero_query else rng.standard_normal(DIM)
    result = index.search(query, k)
    assert result.ids() == brute_force_ids(index, query, k)
    assert len(result.hits) == min(k, len(rows))
    sims = {}
    for h in result.hits:
        sims.setdefault(h.id.split("-")[0], set()).add(h.similarity)
    assert all(len(values) == 1 for values in sims.values())


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
        loaded.insert(f"new-{i:04d}", v, RecordMetadata(path=f"n{i}"))
        index.insert(f"new-{i:04d}", v, RecordMetadata(path=f"n{i}"))
    assert len(loaded) == before + after
    assert all(loaded.vector(i).tobytes() == index.vector(i).tobytes() for i in index.ids())
    query = rng.standard_normal(DIM)
    assert loaded.search(query, k).ids() == brute_force_ids(loaded, query, k)
    assert loaded.search(query, k) == index.search(query, k)


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(
        st.tuples(st.text(max_size=12), st.text(max_size=12), st.text(max_size=6), st.text(max_size=6)),
        max_size=20,
        unique_by=lambda r: r[0],
    ),
    band_hash=st.text(max_size=16),
    dim=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_save_load_save_is_byte_identical(records, band_hash, dim, seed):
    rng = np.random.default_rng(seed)
    index = VectorIndex(band_hash, dim=dim)
    for record_id, path, span, kind in records:
        index.insert(record_id, rng.standard_normal(dim), RecordMetadata(path=path, span=span, source_kind=kind))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.bin", Path(tmp) / "b.bin"
        index.save(first)
        loaded = VectorIndex.load(first)
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.band_config_hash == band_hash and loaded.dim == dim
    assert loaded.ids() == index.ids()
    everything = len(records)
    assert loaded.search(np.ones(dim), everything) == index.search(np.ones(dim), everything)
