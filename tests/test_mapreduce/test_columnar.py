"""Columnar block payloads: construction, durability, storage adoption."""

import pickle

import pytest

from repro.geometry import Point, Rectangle, vectorized
from repro.mapreduce import Block, FileSystem
from repro.mapreduce.columnar import (
    ColumnarPayload,
    block_payload_checksum,
    payload_of,
)
from repro.mapreduce.storage import run_fsck

POINTS = [Point(float(i), float(i) * 2.0) for i in range(40)]
RECTS = [
    Rectangle(float(i), float(i), float(i) + 1.0, float(i) + 2.0)
    for i in range(25)
]


class TestFromRecords:
    def test_points_transpose(self):
        payload = ColumnarPayload.from_records(POINTS)
        assert payload.kind == "point"
        assert payload.count == len(POINTS)
        assert payload.materialize() == POINTS

    def test_rects_transpose(self):
        payload = ColumnarPayload.from_records(RECTS)
        assert payload.kind == "rect"
        assert payload.materialize() == RECTS

    def test_empty_and_mixed_are_not_columnar(self):
        assert ColumnarPayload.from_records([]) is None
        assert ColumnarPayload.from_records([POINTS[0], RECTS[0]]) is None
        assert ColumnarPayload.from_records([("tag", POINTS[0])]) is None

    def test_point_subclass_is_rejected(self):
        class Tagged(Point):
            pass

        assert ColumnarPayload.from_records([Tagged(1.0, 2.0)]) is None

    def test_materialize_yields_plain_floats(self):
        payload = ColumnarPayload.from_records(POINTS)
        rebuilt = payload.materialize()
        assert all(type(p.x) is float and type(p.y) is float for p in rebuilt)


class TestBytesAndChecksum:
    def test_buffer_round_trip(self):
        payload = ColumnarPayload.from_records(RECTS)
        buf = bytearray(payload.nbytes + 16)
        end = payload.write_into(buf, offset=16)
        assert end == 16 + payload.nbytes
        view = ColumnarPayload.from_buffer("rect", payload.count, buf, 16)
        assert view.materialize() == RECTS
        assert view.checksum() == payload.checksum()

    def test_pickle_round_trip_is_portable(self):
        payload = ColumnarPayload.from_records(POINTS)
        clone = pickle.loads(pickle.dumps(payload))
        assert clone.kind == payload.kind
        assert clone.count == payload.count
        assert clone.materialize() == POINTS
        assert clone.checksum() == payload.checksum()

    def test_checksum_is_backend_independent(self, monkeypatch):
        monkeypatch.setenv(vectorized.VECTORIZE_ENV_VAR, "1")
        preferred = ColumnarPayload.from_records(POINTS).checksum()
        monkeypatch.setenv(vectorized.VECTORIZE_ENV_VAR, "0")
        fallback = ColumnarPayload.from_records(POINTS).checksum()
        assert preferred == fallback

    def test_checksum_separates_kind_and_count(self):
        # Same raw bytes, different record interpretation: the header
        # keeps the CRCs apart.
        pts = [Point(1.0, 2.0), Point(3.0, 4.0)]
        rect = [Rectangle(1.0, 3.0, 2.0, 4.0)]
        a = ColumnarPayload.from_records(pts)
        b = ColumnarPayload.from_records(rect)
        assert a.checksum() != b.checksum()


class TestStorageAdoption:
    def build_fs(self):
        fs = FileSystem(default_block_capacity=16)
        fs.create_file("pts", list(POINTS))
        return fs

    def test_seal_attaches_payload_when_enabled(self, monkeypatch):
        monkeypatch.setenv(vectorized.VECTORIZE_ENV_VAR, "1")
        fs = self.build_fs()
        for block in fs.get("pts").blocks:
            payload = getattr(block, "columnar", None)
            assert payload is not None
            assert block.checksum == payload.checksum()

    def test_seal_skips_payload_when_disabled(self, monkeypatch):
        monkeypatch.setenv(vectorized.VECTORIZE_ENV_VAR, "0")
        fs = self.build_fs()
        for block in fs.get("pts").blocks:
            assert getattr(block, "columnar", None) is None
            # Checksums still cover the columnar bytes: sealing mode must
            # not change what fsck verifies later.
            assert block.checksum == block_payload_checksum(block)

    @pytest.mark.parametrize("seal_mode,check_mode", [
        ("1", "0"), ("0", "1"), ("1", "1"), ("0", "0"),
    ])
    def test_fsck_passes_across_modes(self, monkeypatch, seal_mode, check_mode):
        monkeypatch.setenv(vectorized.VECTORIZE_ENV_VAR, seal_mode)
        fs = self.build_fs()
        monkeypatch.setenv(vectorized.VECTORIZE_ENV_VAR, check_mode)
        report = run_fsck(fs)
        assert report.healthy, report.issues

    def test_fsck_still_detects_mutation(self, monkeypatch):
        monkeypatch.setenv(vectorized.VECTORIZE_ENV_VAR, "1")
        fs = self.build_fs()
        block = fs.get("pts").blocks[0]
        block.records[0] = Point(-999.0, -999.0)
        report = run_fsck(fs)
        assert not report.healthy


class TestPayloadOf:
    def make_block(self):
        return Block(
            records=list(POINTS),
            columnar=ColumnarPayload.from_records(POINTS),
        )

    def test_returns_payload_when_fresh(self, monkeypatch):
        monkeypatch.setenv(vectorized.VECTORIZE_ENV_VAR, "1")
        block = self.make_block()
        assert payload_of(block, len(POINTS)) is block.columnar

    def test_none_when_disabled(self, monkeypatch):
        monkeypatch.setenv(vectorized.VECTORIZE_ENV_VAR, "0")
        assert payload_of(self.make_block(), len(POINTS)) is None

    def test_none_when_stale(self, monkeypatch):
        monkeypatch.setenv(vectorized.VECTORIZE_ENV_VAR, "1")
        block = self.make_block()
        block.records.append(Point(0.0, 0.0))
        assert payload_of(block, len(block.records)) is None

    def test_none_without_payload(self, monkeypatch):
        monkeypatch.setenv(vectorized.VECTORIZE_ENV_VAR, "1")
        assert payload_of(Block(records=list(POINTS)), len(POINTS)) is None
