"""Round-trip tests for :mod:`repro.core.flushio`.

write_local_profile / write_root_profiles → read_profile must return
the exact matrices that were written, and the ``#`` header metadata
(kind, rank, comm_size, flags) must survive the trip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flushio
from repro.core.constants import Flags
from repro.core.errors import TraceSchemaError


def _local_vectors(n, seed=0):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 1000, size=n).astype(np.uint64)
    sizes = counts * rng.integers(1, 4096, size=n).astype(np.uint64)
    return counts, sizes


class TestLocalRoundTrip:
    def test_matrix_equality(self, tmp_path):
        counts, sizes = _local_vectors(6)
        base = str(tmp_path / "prof")
        path = flushio.write_local_profile(base, 3, counts, sizes,
                                           Flags.ALL_COMM)
        assert path == str(tmp_path / "prof.3.prof")

        prof = flushio.read_profile(path)
        assert prof["kind"] == "local"
        data = prof["data"]
        assert data.shape == (6, 4)
        assert (data[:, 0] == 3).all()  # src column is the writer's rank
        np.testing.assert_array_equal(data[:, 1], np.arange(6))
        np.testing.assert_array_equal(data[:, 2], counts)
        np.testing.assert_array_equal(data[:, 3], sizes)

    def test_header_metadata(self, tmp_path):
        counts, sizes = _local_vectors(4)
        path = flushio.write_local_profile(str(tmp_path / "m"), 2, counts,
                                           sizes, Flags.P2P_ONLY)
        meta = flushio.read_profile(path)["meta"]
        assert meta["rank"] == 2
        assert meta["comm_size"] == 4
        assert meta["flags"] == "P2P_ONLY"
        assert isinstance(meta["rank"], int)
        assert isinstance(meta["comm_size"], int)

    def test_loads_with_numpy_loadtxt(self, tmp_path):
        counts, sizes = _local_vectors(5)
        path = flushio.write_local_profile(str(tmp_path / "t"), 0, counts,
                                           sizes, Flags.ALL_COMM)
        table = np.loadtxt(path, dtype=np.uint64)
        np.testing.assert_array_equal(
            table, flushio.read_profile(path)["data"])


class TestRootRoundTrip:
    def test_matrix_equality(self, tmp_path):
        n = 5
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 100, size=(n, n)).astype(np.uint64)
        sizes = counts * 64
        cpath, spath = flushio.write_root_profiles(
            str(tmp_path / "root"), 0, counts, sizes, Flags.ALL_COMM)
        assert cpath == str(tmp_path / "root_counts.0.prof")
        assert spath == str(tmp_path / "root_sizes.0.prof")

        cprof = flushio.read_profile(cpath)
        sprof = flushio.read_profile(spath)
        assert cprof["kind"] == "root-counts"
        assert sprof["kind"] == "root-sizes"
        np.testing.assert_array_equal(cprof["data"], counts)
        np.testing.assert_array_equal(sprof["data"], sizes)

    def test_header_metadata(self, tmp_path):
        n = 3
        zeros = np.zeros((n, n), dtype=np.uint64)
        cpath, _ = flushio.write_root_profiles(
            str(tmp_path / "h"), 4, zeros, zeros,
            Flags.P2P_ONLY | Flags.COLL_ONLY)
        meta = flushio.read_profile(cpath)["meta"]
        assert meta["comm_size"] == n
        assert meta["flags"] == "P2P_ONLY|COLL_ONLY"
        assert "rank" not in meta  # root files carry no per-rank field

    def test_flat_matrix_input(self, tmp_path):
        # write_root_profiles reshapes (n*n,) input to (n, n).
        n = 4
        counts = np.arange(n * n, dtype=np.uint64)
        cpath, _ = flushio.write_root_profiles(
            str(tmp_path / "f"), 0, counts.reshape(n, n), counts,
            Flags.ALL_COMM)
        np.testing.assert_array_equal(
            flushio.read_profile(cpath)["data"], counts.reshape(n, n))


class TestErrors:
    def test_missing_directory(self, tmp_path):
        counts, sizes = _local_vectors(2)
        with pytest.raises(FileNotFoundError, match="has to exist"):
            flushio.write_local_profile(
                str(tmp_path / "nope" / "x"), 0, counts, sizes,
                Flags.ALL_COMM)

    def test_not_a_profile(self, tmp_path):
        p = tmp_path / "plain.txt"
        p.write_text("1 2 3 4\n")
        with pytest.raises(ValueError, match="not an MPI_Monitoring"):
            flushio.read_profile(str(p))


HEAD = b"# MPI_Monitoring profile schema=1\n# kind=local rank=0 comm_size=2\n"


@pytest.mark.parametrize("body, match", [
    (HEAD + b"1 -2\n", "unsigned 64-bit"),
    (HEAD + b"0 1 " + b"9" * 30 + b" 4\n", "unsigned 64-bit"),
    (HEAD + b"0 0 1 8\n0 1 1\n", "unequal width"),
    (HEAD + b"0 1 x 8\n", "not integers"),
    (HEAD.replace(b"comm_size=2", b"comm_size=q"), "comm_size=q"),
    (HEAD + b"0 1 \xff 8\n", "not ASCII"),
], ids=["negative", "past-uint64", "ragged", "not-an-integer",
        "comm-size", "not-ascii"])
def test_a_malformed_profile_is_a_value_error_naming_it(tmp_path, body,
                                                         match):
    path = tmp_path / "bad.prof"
    path.write_bytes(body)
    with pytest.raises(ValueError, match=match) as err:
        flushio.read_profile(str(path))
    assert type(err.value) is ValueError and str(path) in str(err.value)


def test_an_unreadable_schema_is_a_schema_error(tmp_path):
    path = tmp_path / "bad.prof"
    path.write_bytes(HEAD.replace(b"schema=1", b"schema=one"))
    with pytest.raises(TraceSchemaError, match="schema=one"):
        flushio.read_profile(str(path))


_TOKENS = st.sampled_from(
    ["0", "1", "-2", "7", "18446744073709551615", "18446744073709551616",
     "9" * 30, "x", "1_0", "#", "kind=local", "schema=1", "schema=2",
     "rank=q", "comm_size=3", "\t", "\xe9"])


@settings(max_examples=300, deadline=None)
@given(body=st.one_of(
    st.binary(max_size=200),
    st.lists(st.lists(_TOKENS, max_size=5).map(" ".join), max_size=6).map(
        lambda lines: "\n".join(lines).encode("utf-8"))))
def test_any_bytes_load_as_a_profile_or_refuse(tmp_path_factory, body):
    """A file's bytes give a profile dict, or a ValueError naming the
    file, or a TraceSchemaError — never anything else."""
    path = tmp_path_factory.mktemp("prof") / "p.prof"
    path.write_bytes(body)
    try:
        prof = flushio.read_profile(str(path))
    except TraceSchemaError:
        return
    except ValueError as exc:
        assert type(exc) is ValueError and str(path) in str(exc)
        return
    assert isinstance(prof, dict) and prof["data"].dtype == np.uint64


class TestAtomicWrite:
    def test_creates_file(self, tmp_path):
        target = tmp_path / "out.json"
        with flushio.atomic_write(str(target)) as fh:
            fh.write("payload")
        assert target.read_text() == "payload"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        with flushio.atomic_write(str(target)) as fh:
            fh.write("new")
        assert target.read_text() == "new"

    def test_failure_leaves_original_and_no_litter(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("original")
        with pytest.raises(RuntimeError, match="boom"):
            with flushio.atomic_write(str(target)) as fh:
                fh.write("half-writ")
                raise RuntimeError("boom")
        assert target.read_text() == "original"
        # The partial temp file was cleaned up, not left beside it.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_no_partial_file_on_failed_fresh_write(self, tmp_path):
        target = tmp_path / "fresh.json"
        with pytest.raises(RuntimeError):
            with flushio.atomic_write(str(target)) as fh:
                fh.write("x")
                raise RuntimeError("die")
        assert list(tmp_path.iterdir()) == []
