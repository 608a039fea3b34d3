"""Tests for GenImmix and the Kingsguard collector family."""

import pytest

from repro.core.collectors import (
    ALL_COLLECTOR_NAMES,
    GenImmixCollector,
    KingsguardCollector,
    collector_config,
    create_collector,
    space_socket_table,
)

from tests.conftest import build_test_vm


class TestConfigs:
    def test_all_configurations_exist(self):
        # The paper's eight, plus the Crystal Gazer extension and the
        # observer-size sweep's two KG-W variants.
        assert set(ALL_COLLECTOR_NAMES) == {
            "PCM-Only", "KG-N", "KG-B", "KG-N+LOO", "KG-B+LOO",
            "KG-W", "KG-W-LOO", "KG-W-MDO", "KG-CG", "KG-W@1x", "KG-W@4x",
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            collector_config("KG-X")

    def test_pcm_only_binds_everything_to_pcm(self):
        config = collector_config("PCM-Only")
        assert not config.nursery_in_dram
        assert not config.boot_in_dram
        assert config.thread_socket == 1

    def test_kg_collectors_run_on_socket0(self):
        for name in ALL_COLLECTOR_NAMES:
            if name != "PCM-Only":
                assert collector_config(name).thread_socket == 0

    def test_kgb_nursery_is_3x(self):
        assert collector_config("KG-B").nursery_factor == 3
        assert collector_config("KG-N").nursery_factor == 1

    def test_kgw_has_observer_and_dram_spaces(self):
        config = collector_config("KG-W")
        assert config.has_observer
        assert config.dram_mature and config.dram_los
        assert config.mdo and config.loo

    def test_observer_size_variants_differ_from_kgw_only_in_size(self):
        from dataclasses import replace

        kgw = collector_config("KG-W")
        assert kgw.observer_factor == 2
        for factor in (1, 4):
            variant = collector_config(f"KG-W@{factor}x")
            assert variant == replace(kgw, name=f"KG-W@{factor}x",
                                      observer_factor=factor)

    def test_kgw_ablations(self):
        assert not collector_config("KG-W-LOO").loo
        assert collector_config("KG-W-LOO").mdo
        assert not collector_config("KG-W-MDO").mdo
        assert collector_config("KG-W-MDO").loo

    def test_factory_classes(self):
        assert isinstance(create_collector("PCM-Only"), GenImmixCollector)
        assert isinstance(create_collector("KG-W"), KingsguardCollector)

    def test_table1_rendering(self):
        text = space_socket_table(["KG-N", "KG-W", "KG-W-MDO"])
        assert "Nursery" in text and "Metadata" in text


class TestHeapConstruction:
    def test_kgn_spaces(self):
        vm = build_test_vm("KG-N")
        names = set(vm.heap.spaces)
        assert "observer" not in names
        assert "mature.dram" not in names
        assert {"nursery", "boot", "mature.pcm", "large.pcm"} <= names

    def test_kgw_spaces(self):
        vm = build_test_vm("KG-W")
        names = set(vm.heap.spaces)
        assert {"observer", "mature.dram", "large.dram"} <= names

    def test_pcm_only_nursery_on_pcm_node(self):
        vm = build_test_vm("PCM-Only")
        assert vm.nursery.node == 1
        assert vm.boot.node == 1

    def test_kgn_nursery_on_dram_node(self):
        vm = build_test_vm("KG-N")
        assert vm.nursery.node == 0
        assert vm.heap.space("mature.pcm").node == 1

    def test_mdo_metadata_placement(self):
        with_mdo = build_test_vm("KG-W")
        without = build_test_vm("KG-W-MDO")
        assert with_mdo.heap.space("metadata.pcm").node == 0
        assert without.heap.space("metadata.pcm").node == 1


class TestMinorCollection:
    def test_reachable_objects_survive(self, kgn_vm):
        ctx = kgn_vm.mutator()
        obj = ctx.alloc(scalar_bytes=32, num_refs=1)
        child = ctx.alloc(scalar_bytes=32)
        ctx.write_ref(obj, 0, child)
        ctx.add_root(obj)
        kgn_vm.minor_collect()
        assert obj.space == "mature.pcm"
        assert child.space == "mature.pcm"
        assert obj.refs[0] is child

    def test_unreachable_objects_die(self, kgn_vm):
        ctx = kgn_vm.mutator()
        ctx.alloc(scalar_bytes=32)
        kgn_vm.minor_collect()
        assert kgn_vm.stats.objects_promoted == 0
        assert kgn_vm.nursery.objects == []

    def test_remset_keeps_young_referent_alive(self, kgn_vm):
        ctx = kgn_vm.mutator()
        old = ctx.alloc(scalar_bytes=16, num_refs=1)
        ctx.add_root(old)
        kgn_vm.minor_collect()
        young = ctx.alloc(scalar_bytes=16)
        ctx.write_ref(old, 0, young)
        root_index = 0
        kgn_vm.roots[root_index] = old  # old stays rooted
        kgn_vm.minor_collect()
        assert young.space == "mature.pcm"

    def test_nursery_reset_after_collection(self, kgn_vm):
        ctx = kgn_vm.mutator()
        obj = ctx.alloc(scalar_bytes=32)
        ctx.add_root(obj)
        kgn_vm.minor_collect()
        assert kgn_vm.nursery.bytes_used == 0

    def test_large_nursery_survivor_promotes_to_los(self, vm):
        # KG-W: LOO large objects that survive tenure into the PCM LOS.
        ctx = vm.mutator()
        obj = ctx.alloc(scalar_bytes=vm.nursery.size // 16, large=True)
        ctx.add_root(obj)
        vm.minor_collect()
        assert obj.space == "large.pcm"


class TestObserverCollection:
    def test_written_objects_tenure_to_dram_mature(self, vm):
        ctx = vm.mutator()
        written = ctx.alloc(scalar_bytes=32)
        unwritten = ctx.alloc(scalar_bytes=32)
        ctx.add_root(written)
        ctx.add_root(unwritten)
        vm.minor_collect()
        assert written.space == "observer"
        ctx.write_scalar(written)
        vm.collector.minor_collect(vm, force_observer=True)
        assert written.space == "mature.dram"
        assert unwritten.space == "mature.pcm"

    def test_dead_observer_objects_not_tenured(self, vm):
        ctx = vm.mutator()
        obj = ctx.alloc(scalar_bytes=32)
        index = ctx.add_root(obj)
        vm.minor_collect()
        ctx.clear_root(index)
        vm.collector.minor_collect(vm, force_observer=True)
        assert vm.stats.observer_collections == 1
        assert obj.space == "observer"  # stale; the object was dropped
        assert obj not in list(vm.heap.space("mature.pcm").live_objects())


class TestFullCollection:
    def test_dead_mature_objects_swept(self, kgn_vm):
        ctx = kgn_vm.mutator()
        live = ctx.alloc(scalar_bytes=32)
        dead = ctx.alloc(scalar_bytes=32)
        live_root = ctx.add_root(live)
        dead_root = ctx.add_root(dead)
        kgn_vm.minor_collect()
        ctx.clear_root(dead_root)
        kgn_vm.full_collect()
        mature = list(kgn_vm.heap.space("mature.pcm").live_objects())
        assert live in mature
        assert dead not in mature
        assert kgn_vm.stats.full_gcs == 1

    def test_marking_writes_metadata(self, kgn_vm):
        ctx = kgn_vm.mutator()
        obj = ctx.alloc(scalar_bytes=32)
        ctx.add_root(obj)
        kgn_vm.minor_collect()
        node = kgn_vm.kernel.machine.nodes[1]
        kgn_vm.full_collect()
        kgn_vm.kernel.machine.flush_all(
            [t.core_path for t in kgn_vm.gc_threads])
        assert node.writes_by_tag.get("metadata.pcm", 0) >= 1

    def test_cycle_of_garbage_collected(self, kgn_vm):
        ctx = kgn_vm.mutator()
        a = ctx.alloc(scalar_bytes=16, num_refs=1)
        b = ctx.alloc(scalar_bytes=16, num_refs=1)
        ctx.write_ref(a, 0, b)
        ctx.write_ref(b, 0, a)
        index = ctx.add_root(a)
        kgn_vm.minor_collect()
        ctx.clear_root(index)
        kgn_vm.full_collect()
        mature = list(kgn_vm.heap.space("mature.pcm").live_objects())
        assert a not in mature and b not in mature

    def test_dead_large_objects_swept(self, kgn_vm):
        ctx = kgn_vm.mutator()
        from repro.runtime.objectmodel import LOS_THRESHOLD
        obj = ctx.alloc(scalar_bytes=LOS_THRESHOLD + 64)
        index = ctx.add_root(obj)
        ctx.clear_root(index)
        kgn_vm.full_collect()
        assert obj not in list(
            kgn_vm.heap.space("large.pcm").live_objects())


class TestLargeObjectMigration:
    def test_written_pcm_large_migrates_to_dram(self, vm):
        ctx = vm.mutator()
        from repro.runtime.objectmodel import LOS_THRESHOLD
        obj = ctx.alloc(scalar_bytes=8 * LOS_THRESHOLD)  # too big for LOO
        assert obj.space == "large.pcm"
        ctx.add_root(obj)
        for _ in range(vm.collector.LARGE_MIGRATION_WRITES):
            ctx.write_scalar(obj)
        vm.full_collect()
        assert obj.space == "large.dram"
        assert vm.stats.large_migrations == 1

    def test_unwritten_pcm_large_stays(self, vm):
        ctx = vm.mutator()
        from repro.runtime.objectmodel import LOS_THRESHOLD
        obj = ctx.alloc(scalar_bytes=8 * LOS_THRESHOLD)
        ctx.add_root(obj)
        vm.full_collect()
        assert obj.space == "large.pcm"

    def test_kgn_never_migrates(self, kgn_vm):
        ctx = kgn_vm.mutator()
        from repro.runtime.objectmodel import LOS_THRESHOLD
        obj = ctx.alloc(scalar_bytes=8 * LOS_THRESHOLD)
        ctx.add_root(obj)
        for _ in range(8):
            ctx.write_scalar(obj)
        kgn_vm.full_collect()
        assert obj.space == "large.pcm"
        assert kgn_vm.stats.large_migrations == 0
