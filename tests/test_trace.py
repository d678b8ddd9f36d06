"""Tests for memory-op records: ``load``/``store`` build (addr, size, is_store) tuples."""

from repro.sim import load, store


class TestMemOp:
    def test_constructors(self):
        assert load(8) == (8, 8, False)
        assert store(8) == (8, 8, True)
        assert store(8, 64) == (8, 64, True)

    def test_is_store(self):
        assert store(0)[2] is True
        assert load(0)[2] is False
