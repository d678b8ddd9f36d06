"""Tests for machine assembly and the min-clock runner."""

import pytest

from repro.sim import Machine, NoSnapshot, load, store

from tests.util import RandomWorkload, ScriptedWorkload, tiny_config


class TestAssembly:
    def test_default_machine(self):
        machine = Machine()
        assert machine.config.num_cores == 16
        assert len(machine.hierarchy.l1s) == 16
        assert len(machine.hierarchy.vds) == 8
        assert len(machine.hierarchy.llc) == machine.config.llc_slices

    def test_store_log_capture_opt_in(self):
        assert Machine(tiny_config()).hierarchy.store_log is None
        assert Machine(tiny_config(), capture_store_log=True).hierarchy.store_log == []


class TestRunner:
    def test_too_many_threads_rejected(self):
        machine = Machine(tiny_config())
        with pytest.raises(ValueError):
            machine.run(RandomWorkload(num_threads=64))

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            machine = Machine(tiny_config())
            result = machine.run(RandomWorkload(num_threads=4, txns_per_thread=200, seed=5))
            results.append((result.cycles, result.stores, result.transactions))
        assert results[0] == results[1]

    def test_max_transactions_budget(self):
        machine = Machine(tiny_config())
        result = machine.run(
            RandomWorkload(num_threads=4, txns_per_thread=1000), max_transactions=50
        )
        assert result.transactions == 50

    def test_min_clock_interleaving_balances_threads(self):
        """Equal-cost threads should retire comparable transaction counts."""
        machine = Machine(tiny_config())
        result = machine.run(
            RandomWorkload(num_threads=4, txns_per_thread=300, shared_fraction=0.0)
        )
        clocks = list(result.per_thread_cycles.values())
        assert max(clocks) < min(clocks) * 1.5

    def test_cycles_is_max_thread_clock(self):
        machine = Machine(tiny_config())
        result = machine.run(RandomWorkload(num_threads=4, txns_per_thread=100))
        assert result.cycles == max(result.per_thread_cycles.values())

    def test_global_stall_applies_to_all_cores(self):
        machine = Machine(tiny_config())

        class Stalling(RandomWorkload):
            def access_batches(self, tid):
                for i, txn in enumerate(super().access_batches(tid)):
                    if tid == 0 and i == 5:
                        machine.stall_all_cores_until(10**7)
                    yield txn

        result = machine.run(Stalling(num_threads=4, txns_per_thread=20))
        assert all(clock >= 10**7 for clock in result.per_thread_cycles.values())

    def test_empty_workload(self):
        machine = Machine(tiny_config())

        class Empty:
            num_threads = 2

            def access_batches(self, tid):
                return iter(())

        result = machine.run(Empty())
        assert result.transactions == 0
        assert result.cycles == 0

    def test_uneven_thread_lengths(self):
        scripts = [
            [[store(0x1000 + 64 * i)] for i in range(50)],
            [[load(0x9000)]],
        ]
        machine = Machine(tiny_config())
        result = machine.run(ScriptedWorkload(scripts))
        assert result.transactions == 51

    def test_run_result_nvm_bytes_accessor(self):
        from repro.core import NVOverlay

        machine = Machine(tiny_config(), scheme=NVOverlay())
        result = machine.run(RandomWorkload(num_threads=4, txns_per_thread=100))
        assert result.nvm_bytes() == machine.nvm.bytes_written()
        assert result.nvm_bytes("data") == machine.nvm.bytes_written("data")
