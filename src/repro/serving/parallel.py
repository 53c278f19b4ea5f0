"""Multi-core parallel inference backend for the serving runtime.

Every real forward pass in the repo — :class:`BlockwiseRunner`, the
profiler, the benchmarks — runs on a single core, while the hardware the
paper targets (an edge platform with compute budget ``C`` shared across
tasks) exploits all of them.  This module is the data-parallel answer:

**Shared-memory weight arenas.**  :class:`WeightArena` publishes every
parameter tensor and compiled-plan weight layout of a block dictionary
*once* into one :mod:`multiprocessing.shared_memory` segment.  The
object graph (modules, compiled plans) is pickled with a persistent-id
hook that swaps each ``ndarray`` for an arena slot, so the payload
shipped to workers is structure only — workers attach the segment and
rebuild the arrays as zero-copy read-only views.  No weight bytes are
pickled per call, and ``k`` workers share one copy of the model.

**Persistent process pool.**  :class:`ParallelBackend` owns a spawn-safe
worker pool whose initializer attaches the arena.  ``run_path`` shards a
batch along the sample axis (never across blocks, so per-request results
are bit-identical to serial execution), runs each shard's full block
sequence in one worker round-trip, and concatenates in order.  BLAS
threading is pinned to one thread inside workers so process parallelism
and BLAS threads don't oversubscribe the cores.  With ``num_procs=1``,
or where shared memory is unavailable (sandboxes without ``/dev/shm``),
the backend degrades to an in-process serial engine with the same API.

Sharding is at *block granularity along the batch axis*: a shard runs
the same block sequence over a slice of the samples, so the shared-trunk
prefix-cache semantics of :class:`BlockwiseRunner` (memoized activations
at frozen-prefix boundaries) are preserved — the runner memoizes in the
parent and hands each block's remaining batch to the backend.
"""

from __future__ import annotations

import atexit
import io
import os
import pickle
import weakref
from dataclasses import dataclass

import numpy as np

from repro.dnn.layers import Layer

try:  # restricted interpreters may lack _multiprocessing/shm support
    import multiprocessing as _mp
    from multiprocessing import shared_memory as _shm

    _MP_IMPORTED = True
except ImportError:  # pragma: no cover - exercised only on exotic builds
    _MP_IMPORTED = False

__all__ = [
    "shared_memory_available",
    "pin_blas_threads",
    "ArenaSpec",
    "WeightArena",
    "ParallelBackend",
    "BLAS_THREAD_VARS",
]

#: environment variables that control BLAS/OpenMP thread pools
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_SHM_AVAILABLE: bool | None = None


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` actually works here.

    Some sandboxes import the module fine but fail at segment creation
    (no ``/dev/shm``, seccomp).  The probe result is cached.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        if not _MP_IMPORTED:
            _SHM_AVAILABLE = False
        else:
            try:
                seg = _shm.SharedMemory(create=True, size=16)
            except Exception:
                _SHM_AVAILABLE = False
            else:
                seg.close()
                try:
                    seg.unlink()
                except Exception:
                    pass
                _SHM_AVAILABLE = True
    return _SHM_AVAILABLE


def _spawn_main_importable() -> bool:
    """True when the spawn start method can re-import ``__main__``.

    ``spawn`` children bootstrap by re-importing the parent's main
    module.  When the parent runs from a pipe/heredoc (``python -`` or
    an interactive session), ``__main__.__file__`` points at a
    non-existent path and every worker dies at startup — the pool then
    respawns them forever.  Detect that up front and fall back to
    serial execution instead.
    """
    import __main__

    main_file = getattr(__main__, "__file__", None)
    if main_file is None:  # interactive / embedded: spawn uses a stub main
        return True
    return os.path.exists(main_file)


class pin_blas_threads:
    """Context manager pinning BLAS thread-count env vars to ``n``.

    Worker processes inherit the parent's environment at spawn time and
    numpy reads these variables at import, so wrapping pool creation in
    this context pins every worker's BLAS pool — one process per core,
    one BLAS thread per process, no oversubscription.
    """

    def __init__(self, n: int = 1) -> None:
        self.n = n
        self._saved: dict[str, str | None] = {}

    def __enter__(self) -> "pin_blas_threads":
        for var in BLAS_THREAD_VARS:
            self._saved[var] = os.environ.get(var)
            os.environ[var] = str(self.n)
        return self

    def __exit__(self, *exc) -> None:
        for var, value in self._saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


# ----------------------------------------------------------------------
# shared-memory weight arena

#: arena slots are aligned so views start on cache-line boundaries
_ALIGN = 64

#: segment names created by THIS process (their resource-tracker entry
#: must survive a same-process attach; see :meth:`WeightArena.attach`)
_OWNED_SEGMENTS: set[str] = set()


@dataclass(frozen=True)
class ArenaSpec:
    """Everything a worker needs to attach an arena.

    ``slots`` lays out the segment: one ``(offset, shape, dtype)`` entry
    per distinct tensor.  ``payload`` is the structure-only pickle whose
    persistent ids index into ``slots``.  The spec itself is tiny (no
    weight bytes) and is shipped once, at pool startup.
    """

    shm_name: str
    slots: tuple[tuple[int, tuple[int, ...], str], ...]
    payload: bytes
    total_bytes: int


class _ArenaPickler(pickle.Pickler):
    """Pickles an object graph, diverting every ndarray to an arena slot."""

    def __init__(self, file, arrays: list[np.ndarray], index: dict[int, int]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._arrays = arrays
        self._index = index

    def persistent_id(self, obj):
        if isinstance(obj, np.ndarray):
            if obj.dtype == object:
                raise TypeError("object arrays cannot live in a weight arena")
            slot = self._index.get(id(obj))
            if slot is None:
                slot = len(self._arrays)
                self._index[id(obj)] = slot
                self._arrays.append(obj)
            return slot
        return None


class _ArenaUnpickler(pickle.Unpickler):
    """Resolves persistent ids back to shared-memory array views."""

    def __init__(self, file, views: list[np.ndarray]):
        super().__init__(file)
        self._views = views

    def persistent_load(self, pid):
        return self._views[pid]


class WeightArena:
    """One shared-memory segment holding a model's tensors exactly once.

    :meth:`publish` (parent side) walks an arbitrary picklable object
    graph — block dictionaries, compiled plans — deduplicates its
    ``ndarray`` leaves by identity, copies each into the segment, and
    produces an :class:`ArenaSpec`.  :meth:`attach` (worker side)
    rebuilds the same graph with the arrays as read-only views into the
    segment: zero copies, one physical set of weights for all workers.

    The publishing process owns the segment and must :meth:`unlink` it;
    attachers only :meth:`close`.
    """

    def __init__(self, shm, spec: ArenaSpec, owner: bool) -> None:
        self._shm = shm
        self.spec = spec
        self.owner = owner
        self._released = False

    @classmethod
    def publish(cls, payload_obj) -> "WeightArena":
        buf = io.BytesIO()
        arrays: list[np.ndarray] = []
        _ArenaPickler(buf, arrays, {}).dump(payload_obj)
        contiguous = [np.ascontiguousarray(a) for a in arrays]
        slots = []
        total = 0
        for arr in contiguous:
            total = -(-total // _ALIGN) * _ALIGN
            slots.append((total, tuple(arr.shape), arr.dtype.str))
            total += arr.nbytes
        shm = _shm.SharedMemory(create=True, size=max(total, 1))
        for (offset, shape, dtype), arr in zip(slots, contiguous):
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
            view[...] = arr
        spec = ArenaSpec(
            shm_name=shm.name,
            slots=tuple(slots),
            payload=buf.getvalue(),
            total_bytes=total,
        )
        _OWNED_SEGMENTS.add(shm.name)
        return cls(shm, spec, owner=True)

    @classmethod
    def attach(cls, spec: ArenaSpec) -> tuple["WeightArena", object]:
        """Attach by spec; returns (arena, reconstructed payload object)."""
        try:
            # Python >= 3.13: opt out of resource tracking for attachers
            shm = _shm.SharedMemory(name=spec.shm_name, track=False)
        except TypeError:
            shm = _shm.SharedMemory(name=spec.shm_name)
            # Older interpreters register attachers with the resource
            # tracker too, and a worker's tracker would unlink the
            # owner's segment when the worker exits.  Same-process
            # attaches must keep the owner's (single, set-deduplicated)
            # entry alive, hence the _OWNED_SEGMENTS check.
            if spec.shm_name not in _OWNED_SEGMENTS:
                try:  # pragma: no cover - version dependent
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:
                    pass
        views = []
        for offset, shape, dtype in spec.slots:
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
            view.flags.writeable = False
            views.append(view)
        payload = _ArenaUnpickler(io.BytesIO(spec.payload), views).load()
        return cls(shm, spec, owner=False), payload

    @property
    def nbytes(self) -> int:
        return self.spec.total_bytes

    def close(self) -> None:
        if self._released:
            return
        self._released = True
        try:
            self._shm.close()
        except BufferError:  # live views keep the mapping; the OS reaps it
            pass

    def unlink(self) -> None:
        if not self.owner:
            return
        _OWNED_SEGMENTS.discard(self.spec.shm_name)
        # Workers share the parent's resource-tracker daemon, and their
        # attach/unregister dance (see :meth:`attach`) may have removed
        # this segment's entry from the shared set.  Re-registering is
        # idempotent and guarantees unlink()'s internal unregister finds
        # the entry instead of tripping a KeyError in the tracker.
        try:  # pragma: no cover - tracker plumbing
            from multiprocessing import resource_tracker

            resource_tracker.register(self._shm._name, "shared_memory")
        except Exception:
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# worker side

_WORKER_STATE: dict = {}


def _worker_init(spec: ArenaSpec) -> None:
    """Pool initializer: attach the arena once, keep views for the life
    of the worker process."""
    arena, payload = WeightArena.attach(spec)
    _WORKER_STATE["arena"] = arena
    _WORKER_STATE["modules"] = payload["modules"]
    _WORKER_STATE["plans"] = payload["plans"]
    _WORKER_STATE["compile_blocks"] = payload["compile_blocks"]
    atexit.register(arena.close)


def _execute(modules, plans, compile_blocks, block_ids, x):
    """Run ``x`` through ``block_ids`` using compiled plans when enabled.

    Plans for unseen (block, shape) pairs are compiled lazily — from the
    shared weights, so lazy compilation in a worker still reads the
    arena, not a private copy.
    """
    for block_id in block_ids:
        key = (block_id, tuple(x.shape[1:]))
        plan = plans.get(key)
        if plan is None and compile_blocks:
            from repro.dnn.compile import compile_module

            plan = compile_module(modules[block_id], key[1])
            plans[key] = plan
        x = plan.forward(x) if plan is not None else modules[block_id](x)
    return x


def _worker_run(job) -> np.ndarray:
    block_ids, x = job
    return _execute(
        _WORKER_STATE["modules"],
        _WORKER_STATE["plans"],
        _WORKER_STATE["compile_blocks"],
        block_ids,
        x,
    )


# ----------------------------------------------------------------------
# backend

_LIVE_BACKENDS: "weakref.WeakSet[ParallelBackend]" = weakref.WeakSet()


def _close_live_backends() -> None:  # pragma: no cover - exit hook
    for backend in list(_LIVE_BACKENDS):
        backend.close()


atexit.register(_close_live_backends)


class ParallelBackend:
    """Multi-core block executor over a shared-memory weight arena.

    Parameters
    ----------
    modules:
        ``block_id -> Layer``, exactly the mapping
        :class:`~repro.serving.executor.BlockwiseRunner` consumes.
    num_procs:
        Worker process count.  ``None``/``0`` uses ``os.cpu_count()``;
        ``1`` selects the in-process serial engine (no pool, no arena).
    compile_blocks:
        Execute blocks through fused :mod:`repro.dnn.compile` plans
        (compiled lazily per (block, input shape) on both sides).
    plan_shapes:
        Optional ``block_id -> per-sample input shape``.  These plans
        are compiled *in the parent* before publishing, so their GEMM
        weight layouts (folded BN, pre-laid-out matrices) land in the
        arena and workers attach them zero-copy.
    min_shard:
        Smallest batch slice worth a worker round-trip.  Batches under
        ``2 * min_shard`` run serially in the parent — the adaptive part
        of the dispatch: IPC is only paid when there is enough compute
        to amortize it.

    Falls back to serial execution (``mode == "serial"``) when shared
    memory is unavailable or the pool cannot be spawned; the API is
    identical either way, so callers never branch.
    """

    def __init__(
        self,
        modules: dict[str, Layer],
        num_procs: int | None = None,
        *,
        compile_blocks: bool = True,
        plan_shapes: dict[str, tuple[int, ...]] | None = None,
        min_shard: int = 4,
        start_method: str = "spawn",
    ) -> None:
        if min_shard < 1:
            raise ValueError("min_shard must be >= 1")
        self.modules = dict(modules)
        self.compile_blocks = compile_blocks
        self.min_shard = min_shard
        self.block_order: tuple[str, ...] = tuple(self.modules)
        requested = num_procs if num_procs else (os.cpu_count() or 1)
        if requested < 1:
            raise ValueError("num_procs must be >= 1 (or None for cpu_count)")

        # execution statistics
        self.calls = 0
        self.sharded_calls = 0
        self.samples = 0

        self._local_plans: dict[tuple[str, tuple[int, ...]], Layer] = {}
        self._pool = None
        self._arena: WeightArena | None = None
        self._closed = False
        self.fallback_reason: str | None = None

        if plan_shapes:
            from repro.dnn.compile import compile_module

            for block_id, shape in plan_shapes.items():
                plan = compile_module(self.modules[block_id], tuple(shape))
                self._local_plans[(block_id, tuple(shape))] = plan

        if requested <= 1:
            self.fallback_reason = "num_procs=1"
        elif not shared_memory_available():
            self.fallback_reason = "shared memory unavailable"
        elif start_method == "spawn" and not _spawn_main_importable():
            self.fallback_reason = "main module not importable by spawn"
        else:
            try:
                self._start_pool(requested, start_method)
            except Exception as exc:  # pragma: no cover - platform specific
                self.fallback_reason = f"pool startup failed: {exc!r}"
                self._pool = None
        self.procs = requested if self._pool is not None else 1
        _LIVE_BACKENDS.add(self)

    def _start_pool(self, procs: int, start_method: str) -> None:
        self._arena = WeightArena.publish(
            {
                "modules": self.modules,
                "plans": self._local_plans,
                "compile_blocks": self.compile_blocks,
            }
        )
        ctx = _mp.get_context(start_method)
        with pin_blas_threads(1):
            self._pool = ctx.Pool(
                processes=procs,
                initializer=_worker_init,
                initargs=(self._arena.spec,),
            )

    # -- execution ------------------------------------------------------

    @property
    def mode(self) -> str:
        return "parallel" if self._pool is not None else "serial"

    @classmethod
    def for_model(cls, model, num_procs: int | None = None, **kwargs) -> "ParallelBackend":
        """Backend over a :class:`~repro.dnn.resnet.BlockwiseModel`.

        Publishes one arena slot set for the model's blocks with every
        block's plan pre-compiled at its true input shape, and records
        the block execution order in ``block_order``.
        """
        names = tuple(model.blocks)
        kwargs.setdefault(
            "plan_shapes", {name: model.block_input_shape(name) for name in names}
        )
        backend = cls({name: model.blocks[name] for name in names}, num_procs, **kwargs)
        backend.block_order = names
        return backend

    def _shard_count(self, n: int) -> int:
        if self._pool is None or n < 2 * self.min_shard:
            return 1
        return min(self.procs, n // self.min_shard)

    def run_path(self, block_ids, x: np.ndarray) -> np.ndarray:
        """Run a batch through a block sequence, sharding across workers.

        Shards split the *batch* axis only (``np.array_split`` order is
        preserved on concatenation), so outputs are identical to serial
        execution sample for sample.
        """
        if self._closed:
            raise RuntimeError("backend is closed")
        block_ids = tuple(block_ids)
        missing = [b for b in block_ids if b not in self.modules]
        if missing:
            raise KeyError(f"no modules bound for blocks {missing}")
        self.calls += 1
        self.samples += int(x.shape[0])
        shards = self._shard_count(x.shape[0])
        if shards <= 1:
            return _execute(
                self.modules, self._local_plans, self.compile_blocks, block_ids, x
            )
        self.sharded_calls += 1
        parts = np.array_split(np.ascontiguousarray(x), shards)
        outs = self._pool.map(
            _worker_run, [(block_ids, part) for part in parts], chunksize=1
        )
        return np.concatenate(outs, axis=0)

    def run_block(self, block_id: str, x: np.ndarray) -> np.ndarray:
        """One block over a batch — the :class:`BlockwiseRunner` hook."""
        return self.run_path((block_id,), x)

    def run_model(self, x: np.ndarray) -> np.ndarray:
        """Full forward through ``block_order`` (see :meth:`for_model`)."""
        return self.run_path(self.block_order, x)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down and release the arena.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena.unlink()
            self._arena = None

    def __enter__(self) -> "ParallelBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
