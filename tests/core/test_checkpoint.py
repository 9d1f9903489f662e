"""Checkpoint/resume: persistence, recording policy, search equivalence."""

import pickle

import pytest

from repro import lazymc
from repro.checkpoint import (
    Checkpointer,
    SearchCheckpoint,
    discard_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.core import LazyMCConfig
from repro.graph.generators import camouflaged_clique
from repro.service.worker import _sink_to


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "search.ckpt"
        ckpt = SearchCheckpoint(clique=[3, 1, 4], work=1759, cursor=5,
                                seed_done=True)
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back == ckpt

    def test_missing_file_loads_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.ckpt") is None

    def test_corrupt_file_loads_none(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_bytes(b"\x80\x05 not a pickle at all")
        assert load_checkpoint(path) is None

    def test_truncated_pickle_loads_none(self, tmp_path):
        path = tmp_path / "half.ckpt"
        save_checkpoint(SearchCheckpoint(clique=[1, 2]), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert load_checkpoint(path) is None

    def test_foreign_pickle_loads_none(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        assert load_checkpoint(path) is None

    def test_atomic_write_leaves_no_temp_litter(self, tmp_path):
        path = tmp_path / "search.ckpt"
        for work in range(5):
            save_checkpoint(SearchCheckpoint(work=work), path)
        assert [p.name for p in tmp_path.iterdir()] == ["search.ckpt"]
        assert load_checkpoint(path).work == 4

    def test_discard_is_idempotent(self, tmp_path):
        path = tmp_path / "search.ckpt"
        save_checkpoint(SearchCheckpoint(), path)
        discard_checkpoint(path)
        assert not path.exists()
        discard_checkpoint(path)  # second call must not raise


class TestCheckpointer:
    def test_interval_throttles_offers(self):
        recorded = []
        cp = Checkpointer(recorded.append, interval_work=100)
        assert cp.offer(SearchCheckpoint(work=0))
        assert not cp.offer(SearchCheckpoint(work=50))
        assert cp.offer(SearchCheckpoint(work=150))
        assert cp.recorded == 2 and len(recorded) == 2

    def test_force_bypasses_throttle(self):
        recorded = []
        cp = Checkpointer(recorded.append, interval_work=10**9)
        cp.offer(SearchCheckpoint(work=0))
        assert not cp.offer(SearchCheckpoint(work=5))
        assert cp.offer(SearchCheckpoint(work=5, complete=True), force=True)
        assert len(recorded) == 2

    def test_to_path_persists(self, tmp_path):
        path = tmp_path / "cp.ckpt"
        cp = Checkpointer(_sink_to(str(path)))
        cp.offer(SearchCheckpoint(clique=[7], work=42))
        assert load_checkpoint(path).clique == [7]


@pytest.fixture(scope="module")
def graph():
    # Dense enough that the sweep hands 54 neighborhoods to the
    # sub-solvers, so a resumed run re-dispatches some of them.
    g, _ = camouflaged_clique(80, 0.5, 10, seed=1)
    return g


class TestLazyMCResume:
    def test_checkpointing_run_is_bit_identical(self, graph):
        base = lazymc(graph)
        snaps = []
        cp = Checkpointer(snaps.append, interval_work=0)
        checked = lazymc(graph, checkpointer=cp)
        assert checked.omega == base.omega
        assert checked.clique == base.clique
        assert checked.counters.work == base.counters.work
        assert snaps and snaps[-1].complete
        assert snaps[-1].work == base.counters.work

    def test_resume_from_every_snapshot_matches(self, graph):
        base = lazymc(graph)
        assert base.funnel.searched > 0
        snaps = []
        lazymc(graph, checkpointer=Checkpointer(snaps.append))
        assert len(snaps) > 2 and snaps[-1].complete
        for ckpt in snaps:
            resumed = lazymc(graph, resume=ckpt)
            assert resumed.omega == base.omega
            assert resumed.clique == base.clique
            assert resumed.counters.work >= ckpt.work

    def test_resume_continues_work_counter(self, graph):
        base = lazymc(graph)
        snaps = []
        lazymc(graph, checkpointer=Checkpointer(snaps.append))
        mid = snaps[len(snaps) // 2]
        resumed = lazymc(graph, resume=mid)
        # Fast-forwarded counter: the resumed run reports total work done
        # across both attempts, and never less than the snapshot's.
        assert resumed.counters.work >= mid.work
        assert resumed.counters.work <= 2 * base.counters.work

    def test_resume_from_complete_checkpoint_is_cheap(self, graph):
        base = lazymc(graph)
        snaps = []
        lazymc(graph, checkpointer=Checkpointer(snaps.append))
        final = snaps[-1]
        assert final.complete
        resumed = lazymc(graph, resume=final)
        assert resumed.omega == base.omega

    def test_default_path_untouched_without_checkpointing(self, graph):
        # Guard for the acceptance criterion: no checkpointer, no resume
        # => exactly the pre-existing code path, bit-identical counters.
        a = lazymc(graph)
        b = lazymc(graph)
        assert a.clique == b.clique and a.counters.work == b.counters.work

    def test_budgeted_run_checkpoint_then_resume_completes(self, graph):
        base = lazymc(graph)
        snaps = []
        cfg = LazyMCConfig(max_work=base.counters.work // 2)
        partial = lazymc(graph, config=cfg, checkpointer=Checkpointer(snaps.append))
        assert partial.timed_out and snaps
        resumed = lazymc(graph, resume=snaps[-1])
        assert not resumed.timed_out and resumed.omega == base.omega
