"""Trace persistence: exact round-trips and schema gating."""

import json

import numpy as np
import pytest

from repro.core.errors import TraceSchemaError
from repro.replay.schema import (COLUMN_LAYOUT, KINDS, SCHEMA_VERSION,
                                 ReplayTrace)
from tests.replay.test_columnar import assert_same_columns


def test_dump_load_roundtrip_is_exact(fig5_trace, tmp_path):
    path = str(tmp_path / "t.trace")
    fig5_trace.dump(path)
    back = ReplayTrace.load(path)
    assert back.world_size == fig5_trace.world_size
    assert back.seed == fig5_trace.seed
    assert back.binding == fig5_trace.binding
    assert back.topology == fig5_trace.topology
    assert back.params == fig5_trace.params
    assert back.monitoring_overhead == fig5_trace.monitoring_overhead
    assert back.clocks == fig5_trace.clocks  # floats, bit-for-bit
    assert_same_columns(back, fig5_trace)
    assert back.meta == fig5_trace.meta


def test_byte_matrix_roundtrip(fig5_trace, tmp_path):
    path = str(tmp_path / "t.trace")
    fig5_trace.dump(path)
    back = ReplayTrace.load(path)
    assert np.array_equal(back.byte_matrix(), fig5_trace.byte_matrix())
    assert np.array_equal(back.byte_matrix(monitored_only=True),
                          fig5_trace.byte_matrix(monitored_only=True))


def test_file_is_schema_2_columns(fig5_trace, tmp_path):
    path = str(tmp_path / "t.trace")
    fig5_trace.dump(path)
    raw = open(path, "rb").read()
    assert raw.startswith(b"# repro.replay trace schema=2\n# header {")
    assert SCHEMA_VERSION == 2
    magic, hdr, data = _split(raw)
    # Data section 8-byte aligned, and exactly n_events rows long.
    assert (len(raw) - len(data)) % 8 == 0
    assert len(data) == 39 * hdr["n_events"] == 39 * len(fig5_trace.events)
    assert hdr["columns"] == [list(c) for c in COLUMN_LAYOUT]
    # Readable by hand: each column is a plain little-endian array.
    n = hdr["n_events"]
    t = np.frombuffer(data, dtype="<f8", count=n)
    assert t.max() == max(ev[-2] for ev in fig5_trace.events
                          if ev[0] in "SRF")


def _split(raw: bytes):
    magic, header, data = raw.split(b"\n", 2)
    assert header.startswith(b"# header ")
    return magic, json.loads(header[len(b"# header "):]), data


def _join(magic: bytes, hdr: dict, data: bytes) -> bytes:
    return (magic + b"\n# header "
            + json.dumps(hdr, separators=(",", ":")).encode() + b"\n" + data)


def _poke(data: bytes, n: int, column: str, row: int, value) -> bytes:
    """``data`` with one slot of one column overwritten."""
    offset = 0
    for name, dt in COLUMN_LAYOUT:
        if name == column:
            cell = np.array([value], dtype=dt).tobytes()
            at = offset + row * len(cell)
            return data[:at] + cell + data[at + len(cell):]
        offset += n * np.dtype(dt).itemsize
    raise KeyError(column)


def _first_row(data: bytes, n: int, kind: str) -> int:
    kinds = np.frombuffer(data, dtype="|u1", count=n, offset=36 * n)
    return int(np.flatnonzero(kinds == KINDS.index(kind))[0])


def _mangle_schema(magic, hdr, data):
    return _join(magic.replace(b"schema=2", b"schema=3"), hdr, data)


def _mangle_n_events(magic, hdr, data):
    return _join(magic, dict(hdr, n_events=hdr["n_events"] - 1), data)


def _mangle_layout(magic, hdr, data):
    return _join(magic, dict(hdr, columns=hdr["columns"][::-1]), data)


def _mangle_header_shape(magic, hdr, data):
    return _join(magic, [hdr], data)


def _mangle_header_key(magic, hdr, data):
    return _join(magic, {k: v for k, v in hdr.items() if k != "binding"},
                 data)


def _drop_largest_clock(magic, hdr, data):
    clocks = list(hdr["clocks"])
    clocks.remove(max(clocks, key=float.fromhex))
    return _join(magic, dict(hdr, clocks=clocks), data)


#: Headers whose per-rank lists disagree with their own world size.
#: Both loaded before, into a wrong recorded makespan or a book every
#: replay of which fails.
SHORT_HEADERS = {
    "largest clock dropped": _drop_largest_clock,
    "binding one short":
        lambda m, h, d: _join(m, dict(h, binding=h["binding"][:-1]), d),
}


#: Bindings no run can have.  Each loaded before, and an exact replay,
#: which builds no network, answered with the recorded clocks.
BAD_BINDINGS = {
    "two ranks on one PU": lambda m, h, d: _join(
        m, dict(h, binding=h["binding"][:1] * 2 + h["binding"][2:]), d),
    "a PU outside the topology": lambda m, h, d: _join(
        m, dict(h, binding=[10 ** 6] + h["binding"][1:]), d),
    "a negative PU": lambda m, h, d: _join(
        m, dict(h, binding=[-1] + h["binding"][1:]), d),
}


def _poker(column, kind, value, *more_kinds):
    """Overwrite ``column`` in the first row of ``kind`` (and of each of
    ``more_kinds``) with ``value``."""
    def mangle(magic, hdr, data):
        n = hdr["n_events"]
        for k in (kind,) + more_kinds:
            data = _poke(data, n, column, _first_row(data, n, k), value)
        return _join(magic, hdr, data)
    return mangle


BAD_FILES = {
    "schema=3": _mangle_schema,
    "n_events disagrees with the columns": _mangle_n_events,
    "a column one byte long": lambda m, h, d: _join(m, h, d + b"\0"),
    "a column one byte short": lambda m, h, d: _join(m, h, d[:-1]),
    "columns of unequal length":            # one `t` slot missing
        lambda m, h, d: _join(m, h, d[8:]),
    "no columns at all": lambda m, h, d: _join(m, h, b""),
    "text garbage after the header": lambda m, h, d: _join(
        m, h, b"S 0 1 8 p2p p2p 0 0x0p+0 0x0p+0\n"),
    "unknown column layout": _mangle_layout,
    "header is not an object": _mangle_header_shape,
    "header lacks a field": _mangle_header_key,
    "header is not JSON": lambda m, h, d: m + b"\n# header {nope\n" + d,
    **SHORT_HEADERS,
    **BAD_BINDINGS,
    # An empty world has no makespan: every replay and search fails.
    "empty world": lambda m, h, d: _join(
        m, dict(h, world_size=0, binding=[], clocks=[], n_events=0,
                colls=[]), b""),
    "unknown kind code": _poker("kind", "S", 9),
    "unknown category code": _poker("cat", "S", 7),
    "unknown monitored-category code": _poker("mcat", "S", 200),
    "send without a wire category": _poker("cat", "S", 0),
    "rank out of range": _poker("rank", "R", 48),
    "negative rank": _poker("rank", "F", -1),
    "peer out of range": _poker("peer", "S", 4800),
    "negative size": _poker("nbytes", "S", -5),
    "sequence number out of range": _poker("seq", "R", 2 ** 31 - 1),
    "collective index out of range": _poker("peer", "B", 10 ** 6),
    "NaN gap": _poker("gap", "R", float("nan")),
    "+inf issue time": _poker("t", "S", float("inf")),
    "-inf gap": _poker("gap", "F", float("-inf")),
    # Each finite, together past the float range: a rank's clock adds up
    # its gaps, and no recorded run has an infinite clock.
    "gaps past the float range": _poker("gap", "S", 1e308, "R", "F"),
    # A finish and its rank's header clock are one number: a file where
    # they differ, even by the last bit, states two makespans.
    "a finish off its header clock": _poker("t", "F", 0.5),
    "a header clock one ulp off its finish": lambda m, h, d: _join(
        m, dict(h, clocks=[np.nextafter(float.fromhex(h["clocks"][0]),
                                        np.inf).hex()] + h["clocks"][1:]),
        d),
}


@pytest.mark.parametrize("what", sorted(BAD_FILES))
def test_bad_file_raises_schema_error_naming_the_path(what, fig5_trace,
                                                      tmp_path):
    good = str(tmp_path / "good.trace")
    fig5_trace.dump(good)
    bad = str(tmp_path / "bad.trace")
    open(bad, "wb").write(BAD_FILES[what](*_split(open(good, "rb").read())))
    with pytest.raises(TraceSchemaError, match="bad.trace"):
        ReplayTrace.load(bad)


def test_future_schema_rejected(fig5_trace, tmp_path):
    path = str(tmp_path / "t.trace")
    fig5_trace.dump(path)
    raw = open(path, "rb").read()
    token = f"schema={SCHEMA_VERSION}".encode()
    assert raw.count(token, 0, 64) == 1
    mangled = str(tmp_path / "future.trace")
    open(mangled, "wb").write(raw.replace(
        token, f"schema={SCHEMA_VERSION + 1}".encode(), 1))
    with pytest.raises(TraceSchemaError, match="schema 3 is not supported"):
        ReplayTrace.load(mangled)


def test_schema_1_file_refused(fig5_trace, tmp_path):
    """The text format (one line per event, times as ``float.hex``) is
    no longer read: the file is refused, not parsed."""
    path = str(tmp_path / "t.trace")
    fig5_trace.dump(path)
    _magic, hdr, _data = _split(open(path, "rb").read())
    old = str(tmp_path / "old.trace")
    open(old, "wb").write(_join(
        b"# repro.replay trace schema=1", dict(hdr, schema=1, n_events=2),
        b"S 0 1 8 p2p p2p 0 0x0.0p+0 0x0.0p+0\nR 1 0 0x0.0p+0 0x0.0p+0\n"))
    with pytest.raises(TraceSchemaError,
                       match=r"old\.trace: trace schema 1 is not supported"):
        ReplayTrace.load(old)


def test_missing_schema_token_rejected(tmp_path):
    path = str(tmp_path / "bare.trace")
    open(path, "w").write("# repro.replay trace\n")
    with pytest.raises(TraceSchemaError):
        ReplayTrace.load(path)


class TestSiblingReaders:
    """The satellite migration: every on-disk reader gates on schema."""

    def test_flush_profile_gate(self, tmp_path):
        from repro.core.flushio import (PROFILE_SCHEMA, read_profile,
                                        write_local_profile)

        path = write_local_profile(
            str(tmp_path / "p"), 0,
            np.array([1, 2], dtype=np.uint64),
            np.array([10, 20], dtype=np.uint64), 0)
        assert f"schema={PROFILE_SCHEMA}" in open(path).readline()
        prof = read_profile(path)
        assert prof["kind"] == "local"
        assert prof["data"].tolist() == [[0, 0, 1, 10], [0, 1, 2, 20]]

        mangled = str(tmp_path / "p.bad.prof")
        open(mangled, "w").write(
            open(path).read().replace(f"schema={PROFILE_SCHEMA}",
                                      "schema=99"))
        with pytest.raises(TraceSchemaError):
            read_profile(mangled)
