"""Cluster fabric: nodes, placement, cluster serving, fault injection."""

from __future__ import annotations

import copy
import gc
import json
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterDeployment,
    ClusterNode,
    ClusterOrchestrator,
    ClusterTopology,
    Hop,
    LinkSpec,
    NodeRegistry,
    NodeSpec,
    default_topology,
)
from repro.cluster import executor as cluster_executor_module
from repro.cluster.executor import ClusterExecutor
from repro.cluster.orchestrator import PlacementPlan, Segment
from repro.core.catalog import Block, Path
from repro.core.heuristic import OffloaDNNSolver
from repro.core.task import QualityLevel
from repro.obs import ObsSession, jsonl_lines
from repro.serving import ServingConfig, ServingRuntime
from repro.serving.executor import WindowReport
from repro.serving.queueing import DropReason, ServingRequest
from repro.workloads.smallscale import serving_small_scale_problem
from tests.oracles import (
    encode_frame,
    per_request_cluster_dispatch,
    replicated_serving_problem,
)


def _runtime(duration_s: float = 2.0, seed: int = 0) -> ServingRuntime:
    problem = serving_small_scale_problem(5, seed=seed)
    config = ServingConfig(duration_s=duration_s, seed=seed)
    return ServingRuntime.from_problem(
        problem, config, solver=OffloaDNNSolver(slice_margin_rbs=2)
    )


def _deploy(runtime: ServingRuntime, topology: ClusterTopology, **knobs):
    return ClusterDeployment.place(
        runtime.problem, runtime.solution, runtime.tickets, topology, **knobs
    )


# -- node + registry -------------------------------------------------------


def test_node_spec_validation():
    with pytest.raises(ValueError):
        NodeSpec(node_id="")
    with pytest.raises(ValueError):
        NodeSpec(node_id="n", tier="fog")
    with pytest.raises(ValueError):
        NodeSpec(node_id="n", cpu_scale=0.0)
    with pytest.raises(ValueError):
        NodeSpec(node_id="n", failure_rate=1.0)


def test_cluster_node_execute_and_clamped_utilization():
    node = ClusterNode(spec=NodeSpec(node_id="n", num_workers=2))
    # both workers busy [0, 2]; a third job queues behind worker 0
    assert node.execute(2.0, 0.0) == (0, 0.0, 2.0)
    assert node.execute(2.0, 0.0) == (1, 0.0, 2.0)
    assert node.execute(1.0, 0.0) == (0, 2.0, 3.0)
    assert node.busy_workers(1.0) == 2
    assert max(node.pool.free_at) == 3.0
    # horizon at t=1: both workers saturated; tails never push past 1.0
    assert node.utilization(1.0) == 1.0
    # horizon at t=4: 5 busy worker-seconds over 8 available
    assert node.utilization(4.0) == pytest.approx(5.0 / 8.0)
    node.reset()
    assert node.busy_time_s == 0.0 and node.segments_executed == 0


def test_cluster_node_equal_free_times_pick_lowest_worker():
    node = ClusterNode(spec=NodeSpec(node_id="n", num_workers=3))
    for worker in range(3):
        node.execute(1.0, 0.0)
        assert [t > 0.0 for t in node.pool.free_at] == [
            w <= worker for w in range(3)
        ]
    # all free again at t = 1: worker 0 takes the next job, then 1
    node.execute(2.0, 0.0)
    node.execute(1.0, 0.0)
    assert node.pool.free_at == [3.0, 2.0, 1.0]


def test_cluster_node_scaled_cost():
    fast = ClusterNode(spec=NodeSpec(node_id="f", cpu_scale=4.0))
    assert fast.scaled_cost(1.0) == pytest.approx(0.25)


def test_topology_save_load_roundtrip(tmp_path):
    topology = default_topology(2, cloud=True, fp16_activations=True)
    path = tmp_path / "nodes.json"
    topology.save(path)
    loaded = ClusterTopology.load(path)
    assert loaded == topology
    assert any(spec.tier == "cloud" for spec in loaded.nodes)


def test_topology_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        ClusterTopology(nodes=())
    spec = NodeSpec(node_id="n")
    with pytest.raises(ValueError):
        ClusterTopology(nodes=(spec, spec))
    # a typo'd endpoint used to load: the link was never used and the
    # default link carried its traffic
    nodes = (NodeSpec(node_id="edge0"), NodeSpec(node_id="edge1"))
    with pytest.raises(ValueError, match="'egde1'"):
        ClusterTopology(nodes=nodes, links=(LinkSpec(src="edge0", dst="egde1"),))
    link = LinkSpec(src="edge0", dst="edge1")
    with pytest.raises(ValueError, match="two links for 'edge0' -> 'edge1'"):
        ClusterTopology(
            nodes=nodes, links=(link, LinkSpec(src="edge0", dst="edge1", latency_s=0.5))
        )
    # the reverse direction is its own link
    ClusterTopology(nodes=nodes, links=(link, LinkSpec(src="edge1", dst="edge0")))
    # malformed nodes.json documents: a ValueError naming the field, where
    # AttributeError / KeyError / TypeError tracebacks used to escape (and
    # a string of resident blocks became the set of its characters)
    one = [{"node_id": "n"}]
    for document, names in (
        (one, "topology document"),
        ({"nodes": [{"tier": "edge"}]}, r"nodes\[0\].*node_id"),
        ({"nodes": ["n"]}, r"nodes\[0\]"),
        ({"nodes": [{"node_id": "n", "resident_blocks": "trunk"}]},
         r"nodes\[0\]\.resident_blocks"),
        ({"nodes": one, "default_link": {"latency": 0.5}}, "default_link.*latency"),
        ({"nodes": one, "default_link": {"src": "n", "dst": "n"}},
         "default_link.*dst.*src"),
        ({"nodes": one, "default_link": [0.5]}, "default_link"),
        ({"nodes": one, "links": [{"src": "n"}]}, r"links\[0\].*dst"),
    ):
        with pytest.raises(ValueError, match=names):
            ClusterTopology.from_dict(document)


def test_topology_document_fields_are_type_checked():
    # each of these used to load as something else: 2.7 workers as 2, true
    # as 1, the string "false" as True, an unknown key as the default (one
    # worker), a numeric id or block list as given; or to escape as a bare
    # TypeError, or to name the wrong thing
    def with_node(**fields):
        document = default_topology(1).to_dict()
        document["nodes"][0].update(fields)
        return document

    base = default_topology(1).to_dict()
    for document, names in (
        (with_node(num_workers=2.7), r"nodes\[0\]\.num_workers must be an integer"),
        (with_node(num_workers=True), r"nodes\[0\]\.num_workers must be an integer"),
        (with_node(cpu_workers=4), r"nodes\[0\] takes .*'cpu_workers'"),
        (with_node(node_id=5), r"nodes\[0\]\.node_id must be a string"),
        (with_node(resident_blocks=[1, 2]), r"nodes\[0\]\.resident_blocks"),
        (with_node(cpu_scale=float("nan")), r"nodes\[0\]\.cpu_scale must be a finite"),
        (with_node(tier="fog"), r"nodes\[0\]: tier"),
        ({**base, "fp16_activations": "false"}, "fp16_activations must be true or false"),
        ({**base, "default_link": {"bandwidth_bps": "1e9"}},
         r"default_link\.bandwidth_bps must be a finite number"),
        ({**base, "default_link": {"stall_rate": 1.5}}, "default_link: stall_rate"),
        ({**base, "nodes": {"edge0": {}}}, "nodes must be a list, got dict"),
        ({**base, "links": [{"src": "edge0", "dst": "edge0", "latency": 1}]},
         r"links\[0\] takes .*'latency'"),
        ({**base, "links": [{"src": "edge0", "dst": 0}]}, r"links\[0\]\.dst must be a string"),
        ({**base, "int8_activation": True}, "topology document takes .*'int8_activation'"),
        ({"links": []}, r"topology document is missing \['nodes'\]"),
    ):
        with pytest.raises(ValueError, match=names):
            ClusterTopology.from_dict(document)


#: what a fuzzed ``nodes.json`` error message must name
_FIELD = r"nodes|links|default_link|topology|_activations"
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
_PLAUSIBLE = st.sampled_from(
    (None, True, False, 0, 1, 2, 4, 0.25, 0.5, 1.5, 100.0, 1e9, "edge", "cloud",
     "edge0", "edge1", "cloud0", [], ["base:g1"], {})
)
_LINK = ("bandwidth_bps", "latency_s", "stall_rate", "stall_factor")
#: (where, key) of one edit: every field a document may hold, and a typo
#: or a misplaced key in each place
_EDITS = (
    [("node", key) for key in ("node_id", "tier", "cpu_scale", "memory_gb",
                               "num_workers", "resident_blocks", "failure_rate",
                               "cpu_workers")]
    + [("link", key) for key in ("src", "dst", *_LINK, "latency")]
    + [("default_link", key) for key in (*_LINK, "src")]
    + [("document", key) for key in ("nodes", "links", "default_link",
                                     "fp16_activations", "int8_activations",
                                     "int8_activation")]
)


@settings(max_examples=400, deadline=None)
@given(
    cloud=st.booleans(),
    edits=st.lists(
        st.tuples(st.sampled_from(_EDITS), st.none() | _PLAUSIBLE | _JSON, st.integers(0, 3)),
        min_size=1, max_size=3,
    ),
)
def test_topology_document_loads_as_written_or_names_the_field(cloud, edits):
    # any edit of a valid nodes.json either raises a ValueError naming where
    # the document is wrong or loads into exactly what it says: every value
    # it holds reads back from the topology, which round-trips unchanged
    document = default_topology(2, cloud=cloud).to_dict()
    for (where, key), value, index in edits:
        if where == "document":
            target = document
        elif where == "default_link":
            target = document.get("default_link")
        else:
            entries = document.get("nodes" if where == "node" else "links")
            target = entries[index % len(entries)] if isinstance(entries, list) and entries else None
        if not isinstance(target, dict):
            continue
        if value is None and key in target and index % 2:
            del target[key]
        else:
            # a copy: a drawn ``{}`` or ``[]`` is one shared object, which a
            # later edit could write into (a cycle, or the next example's draw)
            target[key] = copy.deepcopy(value)
    try:
        topology = ClusterTopology.from_dict(json.loads(json.dumps(document)))
    except ValueError as error:
        event("rejected")
        assert re.search(_FIELD, str(error)), error
        return
    event("loaded")
    assert ClusterTopology.from_dict(topology.to_dict()) == topology
    written = topology.to_dict()

    def read_back(held: dict, loaded: dict) -> None:
        for key, value in held.items():
            if key == "resident_blocks" and value is not None:
                value = sorted(set(value))
            got = loaded[key]
            # equal, and a bool only where the document held one (1 == True)
            assert got == value and isinstance(got, bool) == isinstance(value, bool), (
                key, value, got
            )

    for key in ("fp16_activations", "int8_activations"):
        if key in document:
            assert written[key] is document[key]
    read_back(document.get("default_link", {}), written["default_link"])
    for kind in ("nodes", "links"):
        for held, loaded in zip(document.get(kind, []), written[kind], strict=True):
            read_back(held, loaded)


def test_registry_eligibility_and_least_loaded():
    registry = NodeRegistry()
    registry.register(NodeSpec(node_id="a", resident_blocks=frozenset({"b1", "b2"})))
    registry.register(NodeSpec(node_id="b", resident_blocks=frozenset({"b1"})))
    registry.register(NodeSpec(node_id="c"))  # hosts everything
    eligible = [n.node_id for n in registry.eligible_nodes(["b1", "b2"])]
    assert eligible == ["a", "c"]
    registry.node("a").execute(1.0, 0.0)
    assert registry.least_loaded(["b1", "b2"]).node_id == "c"
    assert registry.least_loaded(["b1", "b2"], exclude="c").node_id == "a"
    # "c" advertises the full repository, so it hosts even "b9";
    # excluding it leaves only the explicit resident sets, which don't
    assert registry.least_loaded(["b9"]).node_id == "c"
    assert registry.least_loaded(["b9"], exclude="c") is None


def test_validate_residency_rejects_unknown_blocks():
    runtime = _runtime()
    topology = ClusterTopology(
        nodes=(NodeSpec(node_id="n", resident_blocks=frozenset({"no-such"})),)
    )
    with pytest.raises(ValueError, match="unknown blocks"):
        _deploy(runtime, topology)


# -- placement -------------------------------------------------------------


def test_placement_covers_admitted_tasks_and_is_deterministic():
    runtime = _runtime()
    topology = default_topology(3)
    first = _deploy(runtime, topology)
    second = _deploy(runtime, topology)
    assert first.plan.segments_by_task == second.plan.segments_by_task
    admitted = {
        tid for tid, ticket in runtime.tickets.items() if ticket.admitted
    }
    assert set(first.plan.segments_by_task) == admitted
    # segments partition each path's block sequence in order
    for task_id, segments in first.plan.segments_by_task.items():
        path = runtime.solution.assignment(
            next(t for t in runtime.problem.tasks if t.task_id == task_id)
        ).path
        flattened = tuple(b for seg in segments for b in seg.blocks)
        assert flattened == path.blocks
        assert segments[-1].egress_bits == 0.0


def _nodes_used(plan) -> set[str]:
    return {seg.node_id for segs in plan.segments_by_task.values() for seg in segs}


def test_placement_single_node_never_splits():
    runtime = _runtime()
    deployment = _deploy(runtime, default_topology(1))
    assert deployment.plan.split_tasks == 0
    assert _nodes_used(deployment.plan) == {"edge0"}


def test_orchestrator_max_segments_one_disables_splits():
    runtime = _runtime()
    registry = NodeRegistry.from_topology(default_topology(3))
    orchestrator = ClusterOrchestrator(registry=registry, max_segments=1)
    plan = orchestrator.place(runtime.problem, runtime.solution, runtime.tickets)
    assert plan.split_tasks == 0
    assert len(_nodes_used(plan)) > 1  # still load-balances whole paths


# -- cluster serving through the runtime -----------------------------------


def test_one_node_cluster_matches_batch_executor_exactly():
    runtime = _runtime()
    baseline = runtime.run()
    runtime.cluster = _deploy(runtime, default_topology(1))
    clustered = runtime.run()
    assert clustered.completed == baseline.completed
    for task_id, base_task in baseline.tasks.items():
        clu = clustered.tasks[task_id]
        assert clu.completed == base_task.completed
        assert clu.latency.p50_s == pytest.approx(base_task.latency.p50_s, abs=0)
        assert clu.latency.p95_s == pytest.approx(base_task.latency.p95_s, abs=0)


def _local_and_one_node_logs(num_workers: int, prefix_cache: bool):
    """(window reports, stamps of completed requests) of the local executor
    and of a one-node fabric with the same pool, on mixed-path windows."""
    runtime = _runtime().with_config(
        poisson=True, batch_window_s=0.1, num_workers=num_workers,
        prefix_cache=prefix_cache,
    )
    logs = []
    topology = default_topology(1, num_workers=num_workers)
    for cluster in (None, _deploy(runtime, topology)):
        runtime.cluster = cluster
        runtime.run()
        stamps = [
            (r.request_id, r.dispatched_at, r.started_at, r.compute_time_s,
             r.completed_at)
            for r in runtime.last_requests
            if r.completed
        ]
        logs.append((runtime.executor.windows, stamps))
    return logs


@pytest.mark.parametrize("prefix_cache", [True, False])
def test_one_node_cluster_books_the_same_ledger_as_batch_executor(prefix_cache):
    # one dispatch rule: a one-node fabric cuts its hop-0 group with the
    # local executor's cut and books it through the same loop, so on a
    # stream of mixed-path windows it logs the same WindowReport sequence
    # and stamps every request like the plain executor, to the last bit,
    # at any worker count
    for num_workers in (1, 2, 3):
        local, fabric = _local_and_one_node_logs(num_workers, prefix_cache)
        windows, stamps = local
        # the log is exact tuples, which the cyclic collector untracks
        assert {type(w) for w in windows} == {tuple}
        reports = [WindowReport._make(w) for w in windows]
        assert max(w.requests for w in reports) >= 3 and len(stamps) >= 25
        assert prefix_cache == any(w.prefix_merges for w in reports)
        assert fabric == local
        # with more than one worker, windows are cut: members of one window
        # (same dispatch instant) do not all finish together
        finishes: dict[float, set[float]] = {}
        for _request_id, dispatched_at, _started, _share, completed_at in stamps:
            finishes.setdefault(dispatched_at, set()).add(completed_at)
        assert (max(map(len, finishes.values())) >= 2) == (num_workers > 1)


def test_a_node_cuts_its_hop_zero_group_over_its_workers():
    # two nodes of two workers: task 1's trunk on n0, its head on n1.  Four
    # requests that cannot share one job within their slack are cut onto
    # both of n0's workers; each job's requests stream to n1 when their own
    # job is done, not when the slower one is
    trunk = (
        Block("base:g1", "base", compute_time_s=0.010, memory_gb=0.2, batch_marginal=0.5),
        Block("base:g2", "base", compute_time_s=0.008, memory_gb=0.2, batch_marginal=0.5),
    )
    head = Block("a:g3", "a", compute_time_s=0.004, memory_gb=0.1, batch_marginal=0.5)
    path = Path("a", "a", 1, trunk + (head,), accuracy=0.9, quality=QualityLevel("full", 1.0))
    plan = PlacementPlan(
        segments_by_task={
            1: (Segment("n0", trunk, egress_bits=64_000.0), Segment("n1", (head,))),
        }
    )
    registry = NodeRegistry.from_topology(
        ClusterTopology(
            nodes=(
                NodeSpec(node_id="n0", num_workers=2),
                NodeSpec(node_id="n1", num_workers=2),
            )
        )
    )
    executor = ClusterExecutor(
        deployment=ClusterDeployment(registry=registry, plan=plan),
        result_return_s=0.002,
    )
    # one request's trunk fits its slack, two fused do not
    deadline = sum(b.compute_time_s for b in trunk) + 0.004
    requests = [
        ServingRequest(
            task_id=1, request_id=i, path=path, created_at=0.0,
            deadline_at=deadline, bits=1.0,
        )
        for i in range(4)
    ]
    report = executor.dispatch(requests, now=0.0)
    assert all(r.hops is None for r in requests)  # rows until read
    executor.fill_hops()

    hop0_done = {r.request_id: r.hops[1].end_s for r in requests}
    assert len(set(hop0_done.values())) == 2
    assert {h.where for r in requests for h in r.hops if h.kind == "exec"} == {"n0", "n1"}
    assert registry.node("n0").busy_workers(0.0) == 2
    for r in requests:
        queue, exec0, transfer = r.hops[:3]
        assert (queue.kind, exec0.kind, transfer.kind) == ("queue", "exec", "transfer")
        assert exec0.end_s == hop0_done[r.request_id] and transfer.start_s == exec0.end_s
        assert r.service_done_at == r.hops[-1].end_s
    # the sub-batch of the early job finishes the path first
    early = min(hop0_done, key=hop0_done.get)
    late = max(hop0_done, key=hop0_done.get)
    assert requests[early].service_done_at < requests[late].service_done_at
    assert report.finished_at == max(r.service_done_at for r in requests)
    assert report.started_at == 0.0


def test_multi_node_serves_same_admitted_set_as_single_node():
    runtime = _runtime()
    baseline = runtime.run()
    served_single = {
        r.request_id for r in runtime.last_requests if r.completed
    }
    runtime.cluster = _deploy(runtime, default_topology(3))
    clustered = runtime.run()
    served_cluster = {
        r.request_id for r in runtime.last_requests if r.completed
    }
    assert served_cluster == served_single
    assert clustered.offered == baseline.offered


def test_three_node_trace_is_byte_identical_across_runs():
    lines: list[list[str]] = []
    for _ in range(2):
        runtime = _runtime()
        runtime.cluster = _deploy(runtime, default_topology(3))
        obs = ObsSession()
        runtime.obs = obs
        runtime.run()
        lines.append(jsonl_lines([obs.virtual]))
    assert lines[0] == lines[1]
    assert any('"hop.transfer"' in line for line in lines[0])
    assert any('"hop.exec"' in line for line in lines[0])


def test_cluster_run_reports_qos_hops_and_streamed_bytes():
    runtime = _runtime()
    runtime.cluster = _deploy(runtime, default_topology(3))
    metrics = runtime.run()
    qos = runtime.executor.qos
    assert metrics.completed > 0
    assert qos.hop_counts.get("exec", 0) > 0
    if runtime.cluster.plan.split_tasks:
        assert qos.hop_counts.get("transfer", 0) > 0
        assert qos.bytes_streamed > 0
    for row in qos.node_rows(metrics.duration_s):
        util_pct = row[-1]
        assert 0.0 <= util_pct <= 100.0


def _four_node_runtime(seed: int = 1) -> ServingRuntime:
    config = ServingConfig(
        duration_s=4.0, poisson=True, seed=seed, batch_window_s=0.1
    )
    runtime = ServingRuntime.from_problem(
        replicated_serving_problem(2), config,
        solver=OffloaDNNSolver(slice_margin_rbs=10),
    )
    runtime.cluster = _deploy(runtime, default_topology(4))
    return runtime


def _hop_records() -> list:
    return [o for o in gc.get_objects() if isinstance(o, (Hop, WindowReport))]


def test_a_run_books_hops_as_rows_and_builds_them_on_first_read():
    # the fabric writes each batch-hop as a row of one table and each window
    # as an exact tuple: a run leaves no Hop and no WindowReport for the
    # cyclic collector to scan; reading last_requests turns each batch's rows
    # into one Hop list shared by its requests
    runtime = _four_node_runtime()
    gc.collect()
    before = _hop_records()
    runtime.run()
    known = {id(o) for o in before}
    assert [o for o in _hop_records() if id(o) not in known] == []
    qos = runtime.executor.qos
    assert len(qos.hops.rows) == sum(qos.hop_counts.values())

    records = runtime.last_requests
    served = [r for r in records if r.drop_reason is None and r.hops]
    by_batch: dict[tuple, list] = {}
    for r in served:
        by_batch.setdefault((r.task_id, r.dispatched_at), []).append(r)
    assert max(map(len, by_batch.values())) >= 2
    for mates in by_batch.values():
        assert all(r.hops is mates[0].hops for r in mates)
    # the count of the fabric that built a Hop list per request during the
    # run: 875 hops over 197 served requests
    assert (sum(len(r.hops) for r in served), len(served)) == (875, 197)
    # counted per batch-hop: each shared list once, whatever its batch size
    lists = {id(r.hops): r.hops for r in records if r.hops}
    assert sum(map(len, lists.values())) == sum(qos.hop_counts.values())
    assert qos.bytes_streamed == sum(
        h.nbytes for hops in lists.values() for h in hops
    )
    assert {type(row) for row in qos.hops.rows} == {Hop}  # rows became Hops
    assert runtime.last_requests is records  # filled once


def test_hops_read_after_a_second_run_are_that_runs():
    # records are recycled between runs: a run whose hops were never read
    # leaves nothing in the next run's records
    fresh = _four_node_runtime(seed=2)
    fresh.run()
    expected = [repr(r.hops) for r in fresh.last_requests]
    runtime = _four_node_runtime()
    runtime.run()  # never read
    runtime.config = fresh.config
    runtime.run()
    assert [repr(r.hops) for r in runtime.last_requests] == expected


# -- int8 activation streams ------------------------------------------------


def test_topology_int8_roundtrip_and_exclusivity(tmp_path):
    topology = default_topology(2, int8_activations=True)
    assert ClusterTopology.from_dict(topology.to_dict()).int8_activations
    path = tmp_path / "nodes.json"
    topology.save(path)
    assert ClusterTopology.load(path).int8_activations
    registry = NodeRegistry.from_topology(topology)
    assert registry.router.int8_activations
    with pytest.raises(ValueError):
        default_topology(2, fp16_activations=True, int8_activations=True)


def test_int8_router_charges_quarter_payload():
    from repro.cluster.stream import LinkSpec as StreamLinkSpec
    from repro.cluster.stream import StreamRouter
    spec = StreamLinkSpec(src="*", dst="*")
    fp32 = StreamRouter(default_spec=spec)
    int8 = StreamRouter(default_spec=spec, int8_activations=True)
    _, _, fp32_bytes = fp32.transfer_bits("a", "b", 32_000.0, 0.0)
    _, _, int8_bytes = int8.transfer_bits("a", "b", 32_000.0, 0.0)
    # 37-byte 4-D header; int8 adds the 4-byte scale
    assert fp32_bytes == 37 + 4000
    assert int8_bytes == 41 + 1000
    # self-hops stay free in every mode
    assert int8.transfer_bits("a", "a", 32_000.0, 0.0) == (0.0, False, 0)


@given(
    shape=st.tuples(*[st.integers(min_value=0, max_value=6)] * 4),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["fp32", "fp16", "int8"]),
)
@settings(max_examples=120, deadline=None)
def test_frame_nbytes_is_the_encoded_frame_size(shape, seed, mode):
    """The router prices a hop at exactly the bytes the encoder writes for
    a 4-D float32 activation, in each activation mode."""
    from repro.cluster.stream import LinkSpec as StreamLinkSpec
    from repro.cluster.stream import StreamRouter

    activation = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
    router = StreamRouter(
        default_spec=StreamLinkSpec(src="*", dst="*"),
        fp16_activations=mode == "fp16",
        int8_activations=mode == "int8",
    )
    frame = encode_frame(
        activation, downcast_fp16=mode == "fp16", quantize_int8=mode == "int8"
    )
    assert router.frame_nbytes(activation.nbytes * 8) == len(frame)


def test_int8_cluster_streams_fewer_bytes_same_service():
    runtime = _runtime()
    runtime.cluster = _deploy(runtime, default_topology(3))
    baseline = runtime.run()
    assert runtime.cluster.plan.split_tasks > 0
    fp32_bytes = runtime.executor.qos.bytes_streamed
    assert fp32_bytes > 0

    quantized = _runtime()
    quantized.cluster = _deploy(
        quantized, default_topology(3, int8_activations=True)
    )
    metrics = quantized.run()
    int8_bytes = quantized.executor.qos.bytes_streamed
    assert metrics.offered == baseline.offered
    assert metrics.completed > 0
    # payloads quarter; headers keep the ratio just above 1/4
    assert 0 < int8_bytes < 0.3 * fp32_bytes


# -- fault injection: bounded retry and the two drop reasons ---------------


def test_dispatch_failure_retries_on_second_node_without_drops():
    runtime = _runtime()
    topology = ClusterTopology(
        nodes=(
            NodeSpec(node_id="flaky", failure_rate=0.5),
            NodeSpec(node_id="solid"),
        ),
        default_link=LinkSpec(src="*", dst="*"),
    )
    baseline = runtime.run()
    runtime.cluster = _deploy(runtime, topology)
    metrics = runtime.run()
    registry = runtime.cluster.registry
    assert registry.node("flaky").dispatch_failures > 0
    # the retry target never fails, so every request still completes
    assert metrics.completed == baseline.completed
    total_drops = sum(
        t.drops[DropReason.REMOTE_ERROR] + t.drops[DropReason.TRANSFER_TIMEOUT]
        for t in metrics.tasks.values()
    )
    assert total_drops == 0


def test_remote_error_drops_when_retry_also_fails():
    runtime = _runtime()
    topology = ClusterTopology(
        nodes=(
            NodeSpec(node_id="a", failure_rate=0.9),
            NodeSpec(node_id="b", failure_rate=0.9),
        ),
        default_link=LinkSpec(src="*", dst="*"),
    )
    runtime.cluster = _deploy(runtime, topology)
    metrics = runtime.run()
    remote = sum(
        t.drops[DropReason.REMOTE_ERROR] for t in metrics.tasks.values()
    )
    assert remote > 0
    # dropped requests never complete and never linger as outstanding
    assert metrics.completed + remote + sum(
        t.drops[DropReason.ADMISSION]
        + t.drops[DropReason.QUEUE_FULL]
        + t.drops[DropReason.DEADLINE]
        + t.drops[DropReason.TRANSFER_TIMEOUT]
        for t in metrics.tasks.values()
    ) == metrics.offered


def test_transfer_timeout_drops_when_link_keeps_stalling():
    runtime = _runtime()
    topology = ClusterTopology(
        nodes=(NodeSpec(node_id="a"), NodeSpec(node_id="b")),
        default_link=LinkSpec(
            src="*", dst="*", stall_rate=0.9, stall_factor=1000.0
        ),
    )
    runtime.cluster = _deploy(runtime, topology, transfer_timeout_s=0.01)
    assert runtime.cluster.plan.split_tasks > 0  # transfers do happen
    metrics = runtime.run()
    timeouts = sum(
        t.drops[DropReason.TRANSFER_TIMEOUT] for t in metrics.tasks.values()
    )
    assert timeouts > 0
    # the QoS monitor saw the sender-side retries
    assert runtime.executor.qos.hop_counts.get("retry", 0) > 0


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 50),
    failure_rate=st.sampled_from((0.3, 0.6)),
    stall_rate=st.sampled_from((0.3, 0.6)),
    prefix_cache=st.booleans(),
    poisson=st.booleans(),
)
def test_faulty_run_is_identical_through_the_per_request_dispatcher(
    seed, failure_rate, stall_rate, prefix_cache, poisson
):
    # four nodes of different speeds, every dispatch and every transfer a
    # seeded draw: the lean dispatcher (routes read, costs memoized, one hop
    # record per batch) must make the same draws in the same order and
    # leave the same records as the dispatcher that redid it all per request
    topology = ClusterTopology(
        nodes=tuple(
            NodeSpec(node_id=f"n{i}", cpu_scale=1.0 + 0.5 * i, failure_rate=failure_rate)
            for i in range(4)
        ),
        default_link=LinkSpec(
            src="*", dst="*", bandwidth_bps=2e8, stall_rate=stall_rate,
            stall_factor=200.0,
        ),
    )
    config = ServingConfig(
        duration_s=3.0, seed=seed, poisson=poisson, prefix_cache=prefix_cache
    )
    outcomes = []
    for dispatch in (ClusterExecutor.dispatch, per_request_cluster_dispatch):
        runtime = ServingRuntime.from_problem(
            replicated_serving_problem(2), config,
            solver=OffloaDNNSolver(slice_margin_rbs=10),
        )
        runtime.cluster = _deploy(runtime, topology)
        runtime.obs = ObsSession()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ClusterExecutor, "dispatch", dispatch)
            metrics = runtime.run()
        qos = runtime.executor.qos
        outcomes.append(
            (
                repr(metrics),
                [
                    (r.request_id, r.started_at, r.completed_at, r.compute_time_s,
                     r.drop_reason, r.service_done_at, repr(r.hops))
                    for r in runtime.last_requests
                ],
                runtime.executor.windows,
                (qos.hop_counts, qos.bytes_streamed, qos.node_rows(3.0), qos.link_rows()),
                jsonl_lines([runtime.obs.virtual]),
            )
        )
    drops = {r.drop_reason for r in runtime.last_requests}
    assert runtime.cluster.plan.split_tasks > 0 and drops & {
        DropReason.REMOTE_ERROR, DropReason.TRANSFER_TIMEOUT
    }
    assert outcomes[0] == outcomes[1]


#: the mixed-fault fabric: nodes that cannot fail beside nodes that can,
#: steady links beside stalling ones
MIXED_FAULT = ClusterTopology(
    nodes=(
        NodeSpec("n0"),
        NodeSpec("n1", cpu_scale=1.5, failure_rate=0.4),
        NodeSpec("n2", cpu_scale=2.0),
        NodeSpec("n3", failure_rate=0.3),
    ),
    links=(
        LinkSpec("n1", "n2", stall_rate=0.4, stall_factor=200.0),
        LinkSpec("n3", "n2", stall_rate=0.3, stall_factor=200.0),
    ),
    default_link=LinkSpec(src="*", dst="*", bandwidth_bps=5e8),
)


@pytest.mark.parametrize("seed", [1, 4])
def test_mixed_fault_run_is_identical_through_the_per_request_dispatcher(seed):
    # nodes that cannot fail beside nodes that can, steady links beside
    # stalling ones: the compiled routes use a node and a link as placed
    # (no draw) and hand the rest to the helpers, including a later hop
    # that streams from a retry node the route did not place there
    topology = MIXED_FAULT
    config = ServingConfig(duration_s=3.0, seed=seed, poisson=True)
    outcomes = []
    for dispatch in (ClusterExecutor.dispatch, per_request_cluster_dispatch):
        runtime = ServingRuntime.from_problem(
            replicated_serving_problem(4), config,
            solver=OffloaDNNSolver(slice_margin_rbs=10),
        )
        runtime.cluster = _deploy(runtime, topology)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ClusterExecutor, "dispatch", dispatch)
            metrics = runtime.run()
        qos = runtime.executor.qos
        outcomes.append(
            (
                repr(metrics),
                [
                    (r.request_id, r.started_at, r.completed_at, r.compute_time_s,
                     r.drop_reason, r.service_done_at, repr(r.hops))
                    for r in runtime.last_requests
                ],
                runtime.executor.windows,
                (qos.hop_counts, qos.bytes_streamed, qos.node_rows(3.0), qos.link_rows()),
            )
        )
    nodes = runtime.cluster.registry.nodes
    assert nodes["n1"].dispatch_failures and nodes["n3"].dispatch_failures
    links = runtime.cluster.registry.router.links
    assert links["n1", "n2"].stalls + links["n3", "n2"].stalls > 0
    # some transfer left a node its route did not place the segment before
    placed = {
        (a.node_id, b.node_id)
        for segments in runtime.cluster.plan.segments_by_task.values()
        for a, b in zip(segments, segments[1:])
    }
    assert any(link.transfers for pair, link in links.items() if pair not in placed)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "shape, topology, replicas, config",
    [
        # several jobs per node: windows of several requests on 2-worker
        # nodes are cut, and each (task, job) sub-batch walks on its own
        (
            "multi_worker", default_topology(2, num_workers=2), 4,
            dict(duration_s=10.0, seed=2, poisson=True, batch_window_s=0.05),
        ),
        # cluster_chain's shape: four one-worker nodes, mostly one-task windows
        (
            "chain", default_topology(4), 2,
            dict(duration_s=30.0, seed=7, poisson=True, load_factor=1.0),
        ),
        ("mixed_fault", MIXED_FAULT, 4, dict(duration_s=3.0, seed=1, poisson=True)),
    ],
)
def test_traced_run_is_identical_through_the_per_request_dispatcher(
    shape, topology, replicas, config, monkeypatch
):
    # the dispatcher that builds containers only for the shapes that need
    # them, and stamps each request once, against the one that regroups
    # every window per node and per (task, job)
    cut_jobs: list[int] = []
    cut = cluster_executor_module.cut_window

    def counted_cut(*args):
        jobs = cut(*args)
        cut_jobs.append(len(jobs))
        return jobs

    monkeypatch.setattr(cluster_executor_module, "cut_window", counted_cut)
    outcomes = []
    for dispatch in (ClusterExecutor.dispatch, per_request_cluster_dispatch):
        runtime = ServingRuntime.from_problem(
            replicated_serving_problem(replicas), ServingConfig(**config),
            solver=OffloaDNNSolver(slice_margin_rbs=10),
        )
        runtime.cluster = _deploy(runtime, topology)
        runtime.obs = ObsSession()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ClusterExecutor, "dispatch", dispatch)
            metrics = runtime.run()
        qos = runtime.executor.qos
        duration = config["duration_s"]
        outcomes.append(
            (
                repr(metrics),
                [
                    (r.request_id, r.dispatched_at, r.started_at, r.completed_at,
                     r.compute_time_s, r.drop_reason, r.service_done_at, repr(r.hops))
                    for r in runtime.last_requests
                ],
                runtime.executor.windows,
                (qos.hop_counts, qos.bytes_streamed, qos.node_rows(duration),
                 qos.link_rows()),
                jsonl_lines([runtime.obs.virtual]),
            )
        )
    assert runtime.cluster.plan.split_tasks > 0
    sizes = [w[0] for w in runtime.executor.windows]
    if shape == "multi_worker":
        assert sum(jobs > 1 for jobs in cut_jobs) >= 5  # the product cut them
    elif shape == "chain":
        assert sizes.count(1) > 0.8 * len(sizes)
    else:
        assert {r.drop_reason for r in runtime.last_requests} & {
            DropReason.REMOTE_ERROR, DropReason.TRANSFER_TIMEOUT
        }
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "knob, value",
    [
        ("transfer_timeout_s", 0.0),
        ("transfer_timeout_s", -0.05),
        ("transfer_timeout_s", float("nan")),
        ("retry_penalty_s", -1.0),
        ("retry_penalty_s", float("nan")),
        ("retry_penalty_s", float("inf")),
    ],
)
def test_deployment_refuses_timings_that_run_time_backwards(knob, value):
    # a negative retry penalty starts execution before its dispatch, a
    # negative timeout books hops of negative duration, and a NaN timeout
    # silently loses every stalled transfer
    runtime = _runtime()
    with pytest.raises(ValueError, match=knob):
        _deploy(runtime, default_topology(3), **{knob: value})
    deployment = _deploy(runtime, default_topology(3))
    with pytest.raises(ValueError, match=knob):
        ClusterDeployment(deployment.registry, deployment.plan, **{knob: value})


def test_deployment_waits_out_stalls_with_an_infinite_timeout():
    runtime = _runtime()
    topology = ClusterTopology(
        nodes=(NodeSpec(node_id="a"), NodeSpec(node_id="b")),
        default_link=LinkSpec(src="*", dst="*", stall_rate=0.5, stall_factor=20.0),
    )
    runtime.cluster = _deploy(runtime, topology, transfer_timeout_s=float("inf"))
    metrics = runtime.run()
    assert runtime.cluster.registry.router.links["a", "b"].stalls > 0
    assert runtime.executor.qos.hop_counts.get("retry", 0) == 0
    timeouts = [t.drops[DropReason.TRANSFER_TIMEOUT] for t in metrics.tasks.values()]
    assert not any(timeouts)
    for request in runtime.last_requests:
        assert all(hop.end_s >= hop.start_s for hop in request.hops or ())


def test_single_node_runtime_unaffected_by_new_fields():
    """Non-cluster runs record no hops and no net drops."""
    runtime = _runtime(duration_s=1.0)
    metrics = runtime.run()
    assert metrics.completed > 0
    for row in metrics.summary_rows():
        assert row[-1] == 0  # net-drop column exists and is zero


# -- CLI -------------------------------------------------------------------


def test_cli_serve_cluster(capsys):
    from repro.cli import main

    assert main(["serve-sim", "--cluster", "2", "--duration", "1"]) == 0
    out = capsys.readouterr().out
    assert "cluster: 2 nodes" in out
    assert "edge0" in out and "edge1" in out


def test_cli_rejects_workers_with_a_cluster(capsys):
    from repro.cli import main

    # node worker counts come from the topology, so --workers must be
    # refused, not silently ignored
    assert main(["serve-sim", "--cluster", "2", "--workers", "4", "--duration", "1"]) == 2
    captured = capsys.readouterr()
    assert "--workers" in captured.err and "topology" in captured.err
    assert captured.out == ""
    assert main(["serve-sim", "--workers", "2", "--duration", "1"]) == 0


def test_cli_reports_an_unloadable_topology(tmp_path, capsys):
    from repro.cli import main

    typo = default_topology(2).to_dict()
    typo["links"] = [{"src": "edge0", "dst": "egde1", "latency_s": 0.5}]
    (tmp_path / "typo.json").write_text(json.dumps(typo))
    (tmp_path / "broken.json").write_text("{\"nodes\": [")
    for name, message in (
        ("typo.json", "'egde1'"),
        ("missing.json", "No such file"),
        ("broken.json", "Expecting value"),
    ):
        argv = ["serve-sim", "--cluster", str(tmp_path / name), "--duration", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""


def test_cli_serve_sim_cluster_topology_file(tmp_path, capsys):
    from repro.cli import main

    nodes = tmp_path / "nodes.json"
    default_topology(2, cloud=True).save(nodes)
    assert main(["serve-sim", "--cluster", str(nodes), "--duration", "1"]) == 0
    out = capsys.readouterr().out
    assert "cluster: 3 nodes" in out
    assert "cloud0" in out
