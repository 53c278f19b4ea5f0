"""Batch executor: window costing, prefix fusion, worker pool, runner."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import repro
from repro.cluster import ClusterDeployment, ClusterTopology, NodeRegistry, NodeSpec
from repro.cluster.executor import ClusterExecutor
from repro.cluster.orchestrator import PlacementPlan, Segment
from repro.core.catalog import Block, Path
from repro.core.task import QualityLevel
from repro.dnn.compile import compile_module
from repro.dnn.graph import NamedModule
from repro.dnn.layers import Linear, ReLU
from repro.dnn.resnet import BLOCK_NAMES, build_resnet18
from repro.serving.executor import (
    BatchExecutor,
    BlockwiseRunner,
    WindowReport,
    _window_costs,
)
from repro.serving.queueing import ServingRequest
from tests.oracles import eager_forward, path_groups, per_request_window_costs

QUALITY = QualityLevel(name="full", bits_per_image=350_000.0)

# the arithmetic below is written for a batch law of 0.5 on every block
HALF = {"batch_marginal": 0.5}
TRUNK = (
    Block("base:g1", "base", compute_time_s=0.010, memory_gb=0.2, **HALF),
    Block("base:g2", "base", compute_time_s=0.008, memory_gb=0.2, **HALF),
)
HEAD_A = Block("a:g3", "a", compute_time_s=0.004, memory_gb=0.1, **HALF)
HEAD_B = Block("b:g3", "b", compute_time_s=0.006, memory_gb=0.1, **HALF)
PATH_A = Path("a", "a", 1, TRUNK + (HEAD_A,), accuracy=0.9, quality=QUALITY)
PATH_B = Path("b", "b", 2, TRUNK + (HEAD_B,), accuracy=0.8, quality=QUALITY)
#: same head block cost but no shared trunk (cloned block ids)
PATH_C = Path(
    "c", "c", 3,
    (
        Block("c:g1", "c", compute_time_s=0.010, memory_gb=0.2, **HALF),
        Block("c:g2", "c", compute_time_s=0.008, memory_gb=0.2, **HALF),
        Block("c:g3", "c", compute_time_s=0.004, memory_gb=0.1, **HALF),
    ),
    accuracy=0.9,
    quality=QUALITY,
)


def with_law(path: Path, batch_marginal: float) -> Path:
    """``path`` over the same blocks under another batch law."""
    return replace(
        path,
        blocks=tuple(replace(b, batch_marginal=batch_marginal) for b in path.blocks),
    )


def request(path: Path, request_id: int = 0) -> ServingRequest:
    return ServingRequest(
        task_id=path.task_id,
        request_id=request_id,
        path=path,
        created_at=0.0,
        deadline_at=1.0,
        bits=350_000.0,
    )


class TestWindowCosts:
    def test_single_request_no_discount(self):
        merged, unmerged, merges = _window_costs(path_groups([request(PATH_A)]))
        assert merged == pytest.approx(PATH_A.compute_time_s)
        assert unmerged == pytest.approx(PATH_A.compute_time_s)
        assert merges == 0

    def test_same_path_batching_sublinear(self):
        reqs = [request(PATH_A, i) for i in range(3)]
        merged, unmerged, merges = _window_costs(path_groups(reqs))
        # batch of 3 through every block: c · (1 + 2·0.5) = 2c
        assert merged == pytest.approx(2 * PATH_A.compute_time_s)
        assert unmerged == pytest.approx(merged)  # same path: nothing to merge
        assert merges == 0

    def test_shared_prefix_fused_once(self):
        reqs = [request(PATH_A, 0), request(PATH_B, 1)]
        merged, unmerged, merges = _window_costs(path_groups(reqs))
        trunk = sum(b.compute_time_s for b in TRUNK)
        heads = HEAD_A.compute_time_s + HEAD_B.compute_time_s
        # trunk runs once over the union batch of 2, heads separately
        assert merged == pytest.approx(trunk * 1.5 + heads)
        assert unmerged == pytest.approx(2 * trunk + heads)
        assert merged < unmerged
        assert merges == 2  # g1 and g2 nodes each fuse two paths

    def test_disjoint_paths_gain_nothing(self):
        reqs = [request(PATH_A, 0), request(PATH_C, 1)]
        merged, unmerged, merges = _window_costs(path_groups(reqs))
        assert merged == pytest.approx(unmerged)
        assert merges == 0

    def test_efficiency_one_is_serial(self):
        path_a, path_b = with_law(PATH_A, 1.0), with_law(PATH_B, 1.0)
        reqs = [request(path_a, 0), request(path_a, 1), request(path_b, 2)]
        _, unmerged, _ = _window_costs(path_groups(reqs))
        assert unmerged == pytest.approx(
            2 * PATH_A.compute_time_s + PATH_B.compute_time_s
        )

    def test_precision_separate_trunks_never_merge(self):
        """int8 catalog variants live in a ``base:int8:`` block namespace,
        so the prefix trie (here and in the cluster hop-0 fusion, which
        reuses ``_window_costs``) can never fuse an fp32 batch with an
        int8 one — the block-id sequences differ from the first hop."""
        trunk_q = (
            Block("base:int8:g1", "base:int8", 0.005, 0.05, batch_marginal=0.63),
            Block("base:int8:g2", "base:int8", 0.004, 0.05, batch_marginal=0.63),
        )
        head_q = Block("a:int8:g3", "a:int8", 0.002, 0.02, batch_marginal=0.63)
        path_q = Path(
            "a-int8", "a:int8", 1, trunk_q + (head_q,),
            accuracy=0.895, quality=QUALITY,
        )
        reqs = [request(PATH_A, 0), request(path_q, 1)]
        merged, unmerged, merges = _window_costs(path_groups(reqs))
        assert merges == 0
        assert merged == pytest.approx(unmerged)
        # sanity: the same shape with a *shared* trunk does merge
        _, _, fp32_merges = _window_costs(
            path_groups([request(PATH_A, 0), request(PATH_B, 1)])
        )
        assert fp32_merges > 0


    def test_shared_path_split_differently(self):
        # two tasks share PATH_A; placement kept task 1's whole path on n0
        # and split task 2's after the trunk, so n0 runs [g1 g2 g3] for one
        # and [g1 g2] for the other.  The unmerged tally used to be keyed
        # by path id alone and charged both batches the last one's blocks.
        def node_costs(prefix_cache):
            plan = PlacementPlan(
                segments_by_task={
                    1: (Segment("n0", PATH_A.blocks),),
                    2: (
                        Segment("n0", TRUNK, egress_bits=64_000.0),
                        Segment("n1", (HEAD_A,)),
                    ),
                }
            )
            registry = NodeRegistry.from_topology(
                ClusterTopology(nodes=(NodeSpec(node_id="n0"), NodeSpec(node_id="n1")))
            )
            executor = ClusterExecutor(
                deployment=ClusterDeployment(registry=registry, plan=plan),
                prefix_cache=prefix_cache,
            )
            reqs = [request(PATH_A, i) for i in range(3)]
            reqs[0].task_id = 1
            reqs[1].task_id = reqs[2].task_id = 2
            report = executor.dispatch(reqs, now=0.0)
            executor.fill_hops()
            return reqs[0].hops[1].duration_s, report

        trunk = sum(b.compute_time_s for b in TRUNK)
        head = HEAD_A.compute_time_s
        # n0, unshared: one request through the whole path, two (at 1.5x)
        # through the trunk; the last hop adds task 2's head at 1.5x
        n0_unshared = (trunk + head) + 1.5 * trunk
        hop0_s, unfused = node_costs(prefix_cache=False)
        assert hop0_s == pytest.approx(n0_unshared)
        assert unfused.compute_s == pytest.approx(n0_unshared + 1.5 * head)
        # fused: the trunk once over all three (2x), the head once
        hop0_s, fused = node_costs(prefix_cache=True)
        assert hop0_s == pytest.approx(2.0 * trunk + head)
        assert fused.saved_s == pytest.approx(n0_unshared - (2.0 * trunk + head))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_grouped_costing_equals_per_request_trie(self, data):
        # shuffled windows over paths that share prefixes, share ids across
        # different block sequences (per-node segments) and repeat as equal
        # but distinct tuples, every block under a law of its own: same
        # floats as the request-by-request walk
        pool = [
            Block(f"s{i}", "d", compute_time_s=c, memory_gb=0.1, batch_marginal=m)
            for i, (c, m) in enumerate(
                ((0.010, 0.5), (0.008, 0.88), (0.004, 0.0), (0.006, 1.2),
                 (0.0031, 0.63), (0.0007, 1.0))
            )
        ]
        sequences = data.draw(
            st.lists(
                st.lists(st.sampled_from(pool), min_size=1, max_size=5).map(tuple),
                min_size=1,
                max_size=5,
            )
        )
        paths = [
            Path(data.draw(st.sampled_from("abc")), "d", 1, blocks, 0.9, QUALITY)
            for blocks in sequences
        ]
        reqs = [
            request(path, i)
            for i, path in enumerate(
                data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=24))
            )
        ]
        # the cluster costs per-node segments: any cut of each path's blocks
        cuts = {id(path): data.draw(st.integers(1, len(path.blocks))) for path in paths}
        assert _window_costs(path_groups(reqs)) == per_request_window_costs(reqs)
        segment_groups = [
            (path_id, blocks[: cuts[id(path)]], n)
            for (path_id, blocks, n), path in zip(
                path_groups(reqs), {id(r.path): r.path for r in reqs}.values()
            )
        ]
        assert _window_costs(segment_groups) == per_request_window_costs(
            reqs, lambda r: r.path.blocks[: cuts[id(r.path)]]
        )


class TestBatchExecutor:
    def test_dispatch_stamps_requests(self):
        executor = BatchExecutor()
        reqs = [request(PATH_A, 0), request(PATH_B, 1)]
        report = executor.dispatch(reqs, now=1.0)
        assert report.started_at == pytest.approx(1.0)
        assert report.finished_at == pytest.approx(1.0 + report.compute_s)
        for r in reqs:
            assert r.started_at == pytest.approx(1.0)
            assert r.compute_time_s == pytest.approx(report.compute_s / 2)

    def test_cache_disabled_charges_unshared(self):
        reqs = [request(PATH_A, 0), request(PATH_B, 1)]
        on = BatchExecutor(prefix_cache=True).dispatch(list(reqs), 0.0)
        off = BatchExecutor(prefix_cache=False).dispatch(list(reqs), 0.0)
        assert on.compute_s < off.compute_s
        assert off.compute_s == pytest.approx(on.unshared_compute_s)
        assert off.prefix_merges == 0

    def test_single_worker_serializes_windows(self):
        executor = BatchExecutor(num_workers=1)
        first = executor.dispatch([request(PATH_A, 0)], now=0.0)
        second = executor.dispatch([request(PATH_A, 1)], now=0.0)
        assert second.started_at == pytest.approx(first.finished_at)

    def test_worker_pool_overlaps_windows(self):
        executor = BatchExecutor(num_workers=2)
        first = executor.dispatch([request(PATH_A, 0)], now=0.0)
        second = executor.dispatch([request(PATH_A, 1)], now=0.0)
        assert first.started_at == second.started_at == pytest.approx(0.0)
        assert executor.utilization(first.finished_at) == pytest.approx(1.0)

    def test_equal_free_times_pick_lowest_worker(self):
        # three idle workers: windows land on worker 0, 1, 2 in that
        # order; then two workers free up at the same instant and the
        # lower index wins again
        executor = BatchExecutor(num_workers=3)
        for worker in range(3):
            executor.dispatch([request(PATH_A, worker)], now=0.0)
            assert [t > 0.0 for t in executor.pool.free_at] == [
                w <= worker for w in range(3)
            ]
        assert len(set(executor.pool.free_at)) == 1
        executor.dispatch([request(PATH_C, 3), request(PATH_C, 4)], now=0.0)
        assert executor.pool.free_at[0] > executor.pool.free_at[1]
        executor.dispatch([request(PATH_A, 5)], now=0.0)
        assert executor.pool.free_at[1] > executor.pool.free_at[2]

    def test_saved_accounting(self):
        executor = BatchExecutor(prefix_cache=True)
        report = executor.dispatch([request(PATH_A, 0), request(PATH_B, 1)], 0.0)
        assert executor.compute_saved_s == pytest.approx(report.saved_s)
        assert executor.total_compute_s == pytest.approx(report.compute_s)

    def test_fusing_a_superlinear_block_is_reported_as_a_loss(self):
        # a block that measures worse than serial (CONFIG A in fp32) costs
        # more fused than split: the saving is negative and booked as such
        path_a, path_b = with_law(PATH_A, 1.2), with_law(PATH_B, 1.2)
        executor = BatchExecutor()
        report = executor.dispatch([request(path_a, 0), request(path_b, 1)], 0.0)
        trunk = sum(b.compute_time_s for b in TRUNK)
        assert report.compute_s == pytest.approx(
            2.2 * trunk + HEAD_A.compute_time_s + HEAD_B.compute_time_s
        )
        assert report.saved_s == pytest.approx(-0.2 * trunk)
        assert report.prefix_merges == 2
        assert executor.compute_saved_s == report.saved_s < 0.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            BatchExecutor().dispatch([], 0.0)

    @pytest.mark.parametrize("kwargs", [{"num_workers": 0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BatchExecutor(**kwargs)


@st.composite
def windows(draw):
    """A random window, executor and pool state: (executor, requests, now)."""
    # two families of paths (a path's family is its first block): heads of
    # varying depth on one of two trunks, some paths repeated as requests;
    # every block under a batch law of its own, worse than serial included
    laws = st.sampled_from((0.0, 0.3, 0.5, 1.0, 1.2))
    trunks = [
        [Block(f"{family}:g{i}", family, compute_time_s=c, memory_gb=0.1,
               batch_marginal=draw(laws))
         for i, c in enumerate(costs)]
        for family, costs in (("base", (0.010, 0.008)), ("other", (0.007,)))
    ]
    heads = draw(st.lists(
        st.tuples(
            st.integers(0, 1), st.integers(1, 2),
            st.sampled_from((0.002, 0.004, 0.0061)), laws,
        ),
        min_size=1, max_size=5,
    ))
    paths = [
        Path(
            f"p{i}", "d", i,
            tuple(trunks[family][:depth])
            + (Block(f"h{i}", "d", compute_time_s=head, memory_gb=0.1,
                     batch_marginal=law),),
            accuracy=0.9, quality=QUALITY,
        )
        for i, (family, depth, head, law) in enumerate(heads)
    ]
    now = draw(st.sampled_from((0.0, 1.0, 2.5)))
    requests = [
        ServingRequest(
            task_id=path.task_id, request_id=i, path=path, created_at=now - 0.05,
            deadline_at=now + draw(st.sampled_from((0.02, 0.035, 0.05, 0.08, 0.3))),
            bits=1.0,
        )
        for i, path in enumerate(
            draw(st.lists(st.sampled_from(paths), min_size=1, max_size=16))
        )
    ]
    executor = BatchExecutor(
        num_workers=draw(st.integers(1, 6)),
        prefix_cache=draw(st.booleans()),
        result_return_s=draw(st.sampled_from((0.0, 0.002))),
    )
    executor.pool.free_at = [
        now + draw(st.sampled_from((-1.0, 0.0, 0.004, 0.5)))
        for _ in range(executor.num_workers)
    ]
    return executor, requests, now


def _families(members) -> set[str]:
    return {r.path.blocks[0].block_id for r in members}


class TestWindowCut:
    """The dispatch rule: a window is cut into jobs over the workers."""

    @settings(max_examples=300, deadline=None)
    @given(window=windows())
    def test_cut_invariants(self, window):
        executor, requests, now = window
        free_at = executor.pool.free_at
        jobs = executor.cut(requests, now)
        # a partition of the window, at most one job per worker
        assert sorted(r.request_id for job in jobs for r in job.members) == [
            r.request_id for r in requests
        ]
        assert 1 <= len(jobs) <= executor.num_workers
        # every job is charged what the trie charges its members ...
        for job in jobs:
            merged, unmerged, merges = _window_costs(path_groups(job.members))
            charged = merged if executor.prefix_cache else unmerged
            assert job.costs.cost == pytest.approx(charged, rel=1e-12)
            assert job.costs.unshared == pytest.approx(unmerged, rel=1e-12)
            assert job.costs.merges == merges
        # ... so, while no block is worse than serial, cutting costs GPU
        # time, but never more than not batching
        whole, whole_unmerged, _ = _window_costs(path_groups(requests))
        if all(b.batch_marginal <= 1.0 for r in requests for b in r.path.blocks):
            total = sum(job.costs.cost for job in jobs)
            assert (whole if executor.prefix_cache else whole_unmerged) <= total + 1e-12
            assert total <= sum(r.path.compute_time_s for r in requests) + 1e-12
        if executor.num_workers == 1 or len(requests) == 1:
            # nothing to cut, or to cut over: the window as it came, for
            # the earliest-free worker, floats and all
            (job,) = jobs
            assert job.members is requests and job.worker is None
            assert (job.costs.cost, job.costs.unshared) == (
                whole if executor.prefix_cache else whole_unmerged, whole_unmerged
            )
            return
        # workers are taken soonest start first: idle ones, then as they free
        starts = [max(now, free_at[job.worker]) for job in jobs]
        assert len({job.worker for job in jobs}) == len(jobs)
        assert starts == sorted(starts)
        untaken = set(range(executor.num_workers)) - {job.worker for job in jobs}
        assert all(max(now, free_at[w]) >= starts[-1] for w in untaken)
        # EDF inside a job, and a family's jobs are consecutive in EDF order
        last_deadline: dict[str, float] = {}
        for job in jobs:
            deadlines = [r.deadline_at for r in job.members]
            assert deadlines == sorted(deadlines)
            family = job.members[0].path.blocks[0].block_id
            assert last_deadline.get(family, 0.0) <= deadlines[0]
            last_deadline[family] = max(
                r.deadline_at for r in job.members if _families([r]) == {family}
            )
        workers_ran_out = len(jobs) == executor.num_workers
        event(f"jobs={min(len(jobs), 3)} ran_out={workers_ran_out} "
              f"mixed={len(_families(jobs[-1].members)) > 1} "
              f"queued={starts[-1] > now}")
        # strangers (no shared first block, nothing for the trie to fuse)
        # meet only in the job opened last, once every worker is taken
        assert all(len(_families(job.members)) == 1 for job in jobs[:-1])
        assert workers_ran_out or len(_families(jobs[-1].members)) == 1
        # a job fits its tightest member's slack on the worker it was cut
        # for, unless no worker was left to open the next job on
        for job, start in zip(jobs, starts):
            slack = job.members[0].deadline_at - (start + executor.result_return_s)
            assert job.slack_s == slack
            if len(job.members) > 1 and not workers_ran_out:
                assert job.costs.cost <= slack

    def test_cost_memo_is_bounded_and_starts_over(self, monkeypatch):
        from repro.serving.executor import _JobCosts

        monkeypatch.setattr(_JobCosts, "LIMIT", 8)
        executor = BatchExecutor(num_workers=2)
        paths = (PATH_A, PATH_B, PATH_C)
        for size in range(2, 12):
            reqs = [request(paths[i % 3], i) for i in range(size)]
            for r in reqs:
                r.deadline_at = 10.0
            jobs = executor.cut(reqs, now=0.0)
            assert len(executor._memo._by_groups) <= 8
            for job in jobs:
                merged, unmerged, merges = _window_costs(path_groups(job.members))
                assert job.costs.cost == pytest.approx(merged, rel=1e-12)
                assert (job.costs.merges, len(job.members)) == (
                    merges, sum(job.costs.groups[1::2])
                )

    @settings(max_examples=200, deadline=None)
    @given(window=windows())
    def test_dispatch_books_every_job_on_its_own_worker(self, window):
        executor, requests, now = window
        free_before = list(executor.pool.free_at)
        report = executor.dispatch(requests, now)
        assert report.requests == len(requests)
        assert report.compute_s == pytest.approx(
            sum(r.compute_time_s for r in requests), rel=1e-9
        )
        assert report.started_at == min(r.started_at for r in requests)
        assert report.finished_at == max(r.service_done_at for r in requests)
        taken = [
            w for w, (before, after) in
            enumerate(zip(free_before, executor.pool.free_at)) if after != before
        ]
        if executor.num_workers == 1 or len(requests) == 1:
            # one job on the earliest-free worker: the old rule
            whole, unmerged, merges = _window_costs(path_groups(requests))
            cost = whole if executor.prefix_cache else unmerged
            start = max(now, min(free_before))
            assert taken == [free_before.index(min(free_before))]
            assert report == WindowReport(
                requests=len(requests), compute_s=cost, unshared_compute_s=unmerged,
                prefix_merges=merges if executor.prefix_cache else 0,
                started_at=start, finished_at=start + cost,
            )
            assert all(
                (r.started_at, r.service_done_at, r.compute_time_s)
                == (start, start + cost, cost / len(requests))
                for r in requests
            )
            return
        # cut: a job starts when its worker is free and holds it to its finish
        assert {max(now, free_before[w]) for w in taken} == {
            r.started_at for r in requests
        }
        assert {executor.pool.free_at[w] for w in taken} == {
            r.service_done_at for r in requests
        }


class TestBlockwiseRunner:
    """The runner runs compiled plans; the eager forward of the path's
    modules (``tests/oracles.py``) is the oracle their outputs are
    compared against."""

    @staticmethod
    def _eager(modules, path, x):
        for block in path.blocks:
            x = eager_forward(modules[block.block_id], x)
        return x

    def _runner(self):
        trunk = NamedModule(
            "t", Linear(4, 8, rng=np.random.default_rng(1)), ReLU()
        )
        head_a = NamedModule("a", Linear(8, 3, rng=np.random.default_rng(2)))
        head_b = NamedModule("b", Linear(8, 2, rng=np.random.default_rng(3)))
        modules = {"base:g1": trunk, "a:g3": head_a, "b:g3": head_b}
        trunk_block = Block("base:g1", "base", compute_time_s=0.01, memory_gb=0.1)
        path_a = Path(
            "a", "a", 1,
            (trunk_block, Block("a:g3", "a", compute_time_s=0.002, memory_gb=0.1)),
            accuracy=0.9, quality=QUALITY,
        )
        path_b = Path(
            "b", "b", 2,
            (trunk_block, Block("b:g3", "b", compute_time_s=0.002, memory_gb=0.1)),
            accuracy=0.8, quality=QUALITY,
        )
        runner = BlockwiseRunner(modules=modules, cacheable=frozenset({"base:g1"}))
        return runner, path_a, path_b, modules

    def test_matches_direct_execution(self):
        runner, path_a, _, modules = self._runner()
        x = np.random.default_rng(0).normal(size=(1, 4))
        np.testing.assert_allclose(
            runner.run(path_a, x, input_key=1), self._eager(modules, path_a, x),
            atol=1e-5,
        )

    def test_shared_trunk_cached_across_paths(self):
        runner, path_a, path_b, modules = self._runner()
        x = np.random.default_rng(0).normal(size=(1, 4))
        out_a = runner.run(path_a, x, input_key=7)
        out_b = runner.run(path_b, x, input_key=7)
        assert runner.cache_hits == 1 and runner.cache_misses == 1
        np.testing.assert_allclose(out_b, self._eager(modules, path_b, x), atol=1e-5)
        assert out_a.shape == (1, 3) and out_b.shape == (1, 2)

    def test_distinct_inputs_do_not_share(self):
        runner, path_a, path_b, _ = self._runner()
        x = np.random.default_rng(0).normal(size=(1, 4))
        runner.run(path_a, x, input_key=1)
        runner.run(path_b, x, input_key=2)
        assert runner.cache_hits == 0 and runner.cache_misses == 2

    def test_clear_resets_cache(self):
        runner, path_a, path_b, _ = self._runner()
        x = np.random.default_rng(0).normal(size=(1, 4))
        runner.run(path_a, x, input_key=1)
        runner.clear()
        runner.run(path_b, x, input_key=1)
        assert runner.cache_hits == 0

    def test_missing_module_raises(self):
        runner, path_a, _, _ = self._runner()
        runner.modules.pop("a:g3")
        with pytest.raises(KeyError):
            runner.run(path_a, np.zeros((1, 4)))

    def test_cache_capacity_evicts_lru(self):
        runner, path_a, _, _ = self._runner()
        runner.cache_capacity = 2
        x = np.random.default_rng(0).normal(size=(1, 4))
        for key in (1, 2, 3):
            runner.run(path_a, x, input_key=key)
        assert runner.cache_evictions == 1
        assert len(runner._cache) == 2
        # key 1 was evicted: running it again misses; 3 still hits
        runner.run(path_a, x, input_key=1)
        assert runner.cache_hits == 0
        runner.run(path_a, x, input_key=3)
        assert runner.cache_hits == 1

    def test_cache_hit_refreshes_recency(self):
        runner, path_a, _, _ = self._runner()
        runner.cache_capacity = 2
        x = np.random.default_rng(0).normal(size=(1, 4))
        runner.run(path_a, x, input_key=1)
        runner.run(path_a, x, input_key=2)
        runner.run(path_a, x, input_key=1)  # hit: 1 becomes most recent
        runner.run(path_a, x, input_key=3)  # evicts 2, not 1
        runner.run(path_a, x, input_key=1)
        assert runner.cache_hits == 2

    def test_unbounded_cache_never_evicts(self):
        runner, path_a, _, _ = self._runner()
        runner.cache_capacity = None
        x = np.random.default_rng(0).normal(size=(1, 4))
        for key in range(400):
            runner.run(path_a, x, input_key=key)
        assert runner.cache_evictions == 0
        assert len(runner._cache) == 400

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BlockwiseRunner(modules={}, cache_capacity=0)

    def test_compiled_blocks_match_eager(self):
        runner, path_a, path_b, modules = self._runner()
        x = np.random.default_rng(0).normal(size=(2, 4)).astype(np.float32)
        for path in (path_a, path_b):
            np.testing.assert_allclose(
                runner.run(path, x, input_key=5),
                self._eager(modules, path, x),
                atol=1e-5,
            )
        # one plan per (block, shape): trunk + both heads
        assert len(runner._compiled) == 3
        runner.clear_compiled()
        assert not runner._compiled

    def test_there_is_no_eager_mode(self):
        with pytest.raises(ValueError, match="compile_blocks=False"):
            BlockwiseRunner(modules={}, compile_blocks=False)

    def test_eviction_order_is_oldest_first(self):
        runner, path_a, _, _ = self._runner()
        runner.cache_capacity = 3
        x = np.random.default_rng(0).normal(size=(1, 4))
        for key in (1, 2, 3, 4, 5):
            runner.run(path_a, x, input_key=key)
        assert runner.cache_evictions == 2
        # 1 and 2 left in insertion order; 3..5 remain resident
        assert [key for key, _n, _precision, _prefix in runner._cache] == [3, 4, 5]

    def test_precision_tagged_cache_never_crosses_formats(self):
        """Regression: fp32 and int8 runs sharing one activation store
        must never serve each other's trunk activations.  The old
        ``(input_key, prefix)`` key (no precision tag) would hit here
        and hand the int8 path an fp32-exact tensor."""
        runner, path_a, _, modules = self._runner()
        x = np.random.default_rng(0).normal(size=(2, 4)).astype(np.float32)
        out_fp32 = runner.run(path_a, x, input_key=9)
        quantized = BlockwiseRunner(
            modules=modules,
            cacheable=frozenset({"base:g1"}),
            quantize="int8",
            _cache=runner._cache,  # one shared activation store
        )
        out_int8 = quantized.run(path_a, x, input_key=9)
        assert quantized.cache_hits == 0 and quantized.cache_misses == 1
        # matches an isolated int8 runner bit for bit (nothing leaked in)
        isolated = BlockwiseRunner(
            modules=modules, cacheable=frozenset({"base:g1"}), quantize="int8"
        )
        np.testing.assert_array_equal(
            out_int8, isolated.run(path_a, x, input_key=9)
        )
        # both precisions resident under distinct keys
        assert {(k, p) for k, _n, p, _prefix in runner._cache} == {
            (9, "fp32"),
            (9, "int8"),
        }
        # and the quantized trunk output genuinely differs from fp32
        assert not np.allclose(out_int8, out_fp32, atol=1e-7)

    def test_reused_key_with_another_batch_size_misses(self):
        """Regression: the prefix key had no batch size, so an 8-sample
        input under a key last used for one sample got that sample's
        trunk activation — and one row of logits — back."""
        runner, path_a, _, modules = self._runner()
        rng = np.random.default_rng(0)
        x1, x8 = rng.normal(size=(1, 4)), rng.normal(size=(8, 4))
        runner.run(path_a, x1, input_key=7)
        out = runner.run(path_a, x8, input_key=7)
        assert runner.cache_hits == 0 and runner.cache_misses == 2
        np.testing.assert_allclose(out, self._eager(modules, path_a, x8), atol=1e-5)
        # both inputs stay resident under the one key
        runner.run(path_a, x1, input_key=7)
        runner.run(path_a, x8, input_key=7)
        assert runner.cache_hits == 2

    def test_quantize_validation(self):
        with pytest.raises(ValueError):
            BlockwiseRunner(modules={}, quantize="int4")
        runner = BlockwiseRunner(modules={}, quantize="int8")
        assert runner.compile_blocks and runner.precision == "int8"

    def test_clear_compiled_keeps_cached_activations(self):
        runner, path_a, _, _ = self._runner()
        x = np.random.default_rng(0).normal(size=(1, 4)).astype(np.float32)
        runner.run(path_a, x, input_key=7)
        assert runner._compiled and runner._cache
        runner.clear_compiled()
        assert not runner._compiled
        # activation cache untouched: the next run still hits the trunk
        runner.run(path_a, x, input_key=7)
        assert runner.cache_hits == 1


    def test_default_key_names_no_input(self):
        """Regression: ``input_key`` defaulted to 0, so a second, different
        input of the same batch size run without a key got the first
        one's trunk activation — and so the first one's output — back."""
        runner, path_a, _, modules = self._runner()
        rng = np.random.default_rng(0)
        x1, x2 = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        out1, out2 = runner.run(path_a, x1), runner.run(path_a, x2)
        np.testing.assert_allclose(out2, self._eager(modules, path_a, x2), atol=1e-5)
        assert not np.array_equal(out1, out2)
        # no key: the cache is neither read nor filled nor counted
        counters = (runner.cache_hits, runner.cache_misses, runner.cache_evictions)
        assert counters == (0, 0, 0) and not runner._cache and runner.cache_bytes == 0
        # ... not even when an explicit key made the trunk resident
        runner.run(path_a, x1, input_key=0)
        np.testing.assert_array_equal(runner.run(path_a, x2), out2)
        assert (runner.cache_hits, runner.cache_misses, len(runner._cache)) == (0, 1, 1)
        np.testing.assert_array_equal(runner.run(path_a, x1, input_key=0), out1)
        assert runner.cache_hits == 1

    def test_cache_bytes_counts_resident_entries(self):
        runner, path_a, _, _ = self._runner()
        runner.cache_capacity = 2
        x = np.random.default_rng(0).normal(size=(3, 4))
        for key in (1, 2, 3):
            runner.run(path_a, x, input_key=key)
        # two resident (3, 8) float32 trunk outputs, the third evicted
        assert runner.cache_bytes == 2 * 3 * 8 * 4
        runner.clear()
        assert runner.cache_bytes == 0


class TestBranchPointCache:
    """An activation is stored only where a second path can pick it up:
    at the end of a path's cacheable prefix and where a known path leaves
    it.  Three paths over the four-block trunk ``stem..layer3``: ``early``
    leaves it after block 2, ``late`` and ``twin`` after block 4."""

    TRUNK = BLOCK_NAMES[:4]

    def _deployment(self, **runner_kwargs):
        models = {
            owner: build_resnet18(num_classes=10, input_size=16, width=8, seed=seed)
            for seed, owner in enumerate(("base", "early", "late", "twin"))
        }
        modules = {
            f"{owner}:{name}": model.blocks[name]
            for owner, model in models.items()
            for name in BLOCK_NAMES
        }

        def path(owner, shared):
            ids = [
                f"{'base' if i < shared else owner}:{name}"
                for i, name in enumerate(BLOCK_NAMES)
            ]
            blocks = tuple(Block(bid, owner, 0.001, 0.01) for bid in ids)
            return Path(owner, owner, 1, blocks, 0.9, QUALITY)

        paths = {"early": path("early", 2), "late": path("late", 4), "twin": path("twin", 4)}
        cacheable = frozenset(f"base:{name}" for name in self.TRUNK)
        runner = BlockwiseRunner(modules=modules, cacheable=cacheable, **runner_kwargs)
        plain = BlockwiseRunner(modules=modules, **runner_kwargs)  # caches nothing
        x = np.random.default_rng(5).standard_normal(
            (2, *models["base"].input_shape), dtype=np.float32
        )
        return runner, plain, paths, x

    @staticmethod
    def _stored(runner):
        """``(input key, prefix length)`` of every resident entry, in LRU order."""
        return [(key, len(prefix)) for key, _n, _precision, prefix in runner._cache]

    @pytest.mark.parametrize("quantize", [None, "int8"])
    def test_only_branch_points_and_deepest_prefixes_are_stored(self, quantize):
        runner, plain, paths, x = self._deployment(quantize=quantize)
        outs = {name: plain.run(path, x) for name, path in paths.items()}
        assert not plain._cache

        def run(name, key):
            np.testing.assert_array_equal(runner.run(paths[name], x, input_key=key), outs[name])

        # alone, a path keeps its whole cacheable prefix and nothing else
        run("late", 1)
        assert self._stored(runner) == [(1, 4)]
        # a newly seen path misses once where nobody had a reason to store ...
        run("early", 1)
        assert (runner.cache_hits, runner.cache_misses) == (0, 2)
        assert self._stored(runner) == [(1, 4), (1, 2)]
        # ... and from then on the branch point is kept: block 2 and block 4
        run("late", 2)
        assert self._stored(runner)[2:] == [(2, 2), (2, 4)]
        run("early", 2)  # partial sharing: picks the trunk up at block 2
        run("twin", 2)  # first sight, and block 4 is already resident
        assert (runner.cache_hits, runner.cache_misses) == (2, 3)
        # every path seen: a fresh input stores the two branch points once
        for name in ("twin", "early", "late"):
            run(name, 3)
        assert sorted(self._stored(runner)) == [
            (1, 2), (1, 4), (2, 2), (2, 4), (3, 2), (3, 4)
        ]
        assert (runner.cache_hits, runner.cache_misses) == (4, 4)
        assert runner.cache_bytes == sum(a.nbytes for a in runner._cache.values()) > 0

    def test_capacity_counts_entries_and_evicts_oldest_first(self):
        runner, _, paths, x = self._deployment(cache_capacity=3)
        runner.run(paths["early"], x, input_key=0)
        runner.clear()  # drops the entry, not the path
        assert not runner._cache and runner.cache_bytes == 0
        for key in (1, 2):
            runner.run(paths["late"], x, input_key=key)
        # two entries per run (blocks 2 and 4) although early never ran since
        assert self._stored(runner) == [(1, 4), (2, 2), (2, 4)]
        assert runner.cache_evictions == 1
        runner.run(paths["early"], x, input_key=1)  # (1, 2) is gone: a miss
        assert (runner.cache_hits, runner.cache_misses) == (0, 4)
        assert self._stored(runner) == [(2, 2), (2, 4), (1, 2)]

    def test_uncacheable_block_ends_the_prefix(self):
        """A branch point past the first fine-tuned block is not stored."""
        runner, _, paths, x = self._deployment()
        runner.cacheable = frozenset({"base:stem"})
        for name in ("late", "twin"):  # they part after block 4
            runner.run(paths[name], x, input_key=1)
        assert self._stored(runner) == [(1, 1)]
        assert (runner.cache_hits, runner.cache_misses) == (1, 1)


def test_serving_is_one_in_process_route():
    """No process pool behind the runner: nothing to select, nothing loaded."""
    with pytest.raises(TypeError):
        BlockwiseRunner(modules={}, parallel=None)
    probe = "import sys, repro.serving; sys.exit('multiprocessing' in sys.modules)"
    src = pathlib.Path(repro.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert done.returncode == 0


class TestInt8BlockCalibration:
    """An int8 runner compiles block by block, but each block calibrates
    on what the blocks before it make of the calibration batch."""

    def _model_path(self, seed=0, dnn_id="m"):
        model = build_resnet18(num_classes=10, input_size=16, width=16, seed=seed)
        blocks = tuple(
            Block(f"{dnn_id}:{name}", dnn_id, compute_time_s=0.001, memory_gb=0.01)
            for name in BLOCK_NAMES
        )
        modules = {f"{dnn_id}:{name}": model.blocks[name] for name in BLOCK_NAMES}
        return model, Path(dnn_id, dnn_id, 1, blocks, 0.9, QUALITY), modules

    def test_runner_matches_the_whole_model_int8_plan(self):
        """Regression: every block used to calibrate its activation scales
        on N(0, 1) noise at its own input shape.  Chained, the scales are
        the whole-model plan's, and the dequantize -> quantize round trip
        at a block boundary is exact — so the logits, not only top-1,
        are the whole-model plan's."""
        model, path, modules = self._model_path()
        x = np.random.default_rng(3).standard_normal(
            (64, *model.input_shape), dtype=np.float32
        )
        whole = compile_module(model, quantize="int8").forward(x)
        runner = BlockwiseRunner(modules=modules, quantize="int8")
        out = runner.run(path, x, input_key=1)
        np.testing.assert_array_equal(out.argmax(axis=1), whole.argmax(axis=1))
        np.testing.assert_array_equal(out, whole)
        # and two fresh runners agree bit for bit
        again = BlockwiseRunner(modules=modules, quantize="int8")
        np.testing.assert_array_equal(again.run(path, x, input_key=1), out)

    def test_two_prefixes_give_one_block_two_calibrations(self):
        model, path, modules = self._model_path()
        _, other, other_modules = self._model_path(seed=1, dnn_id="o")
        modules.update(other_modules)
        # the other trunk, then this model's layer4 + head
        grafted = Path(
            "g", "g", 2, other.blocks[:4] + path.blocks[4:], 0.9, QUALITY
        )
        runner = BlockwiseRunner(modules=modules, quantize="int8")
        x = np.zeros((1, *model.input_shape), dtype=np.float32)
        runner.run(path, x, input_key=1)
        runner.run(grafted, x, input_key=2)
        layer4 = [plan for key, plan in runner._compiled.items() if key[0] == "m:layer4"]
        assert len(layer4) == 2
        assert layer4[0].input_scale != layer4[1].input_scale
        # an fp32 runner calibrates nothing: one plan per (block, shape)
        fp32 = BlockwiseRunner(modules=modules)
        fp32.run(path, x, input_key=1)
        fp32.run(grafted, x, input_key=2)
        assert len(fp32._compiled) == 10
