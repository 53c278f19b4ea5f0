"""Compiled inference engine — int8 vs fp32 plans, batch law, arena.

Beyond the paper: every compute cost the DOT solver and the serving
runtime consume comes from forwards of the numpy engine
(:mod:`repro.dnn.compile` — BN folding, op fusion, weight pre-layout,
buffer arenas), its one executor.  Parity of the fp32 plans with the
unfused layer-by-layer forward is a tier-1 test
(``tests/test_dnn_compile.py`` against ``tests/oracles.py``).

An **int8 section** compares the quantized engine
(:mod:`repro.dnn.quantize` — per-channel symmetric weights, calibrated
activation scales, fused requant) against the fp32 compiled plan on the
Table I ResNet configurations at their paper scale (width 64).  Each
row records the speedup, the top-1 agreement with fp32 on a fixed probe
batch, and whether two int8 runs were bit-identical (determinism).

A **batch-law section** holds the cost model to the engine, block by
block: every Table I configuration is profiled per precision
(``profile_model(..., batch_sizes=...)`` — ``c(s)`` at batch 1, the
block's ``batch_marginal`` fitted to batches 8 and 32) and what the
serving executor charges a fused batch of its blocks is compared with
the measured :class:`~repro.serving.executor.BlockwiseRunner` time of
the same path at batch 1 / 8 / 32 (host clock, numpy wall).  The mean
relative error per precision and batch size is fatal above
``LAW_MAPE_FATAL``; the full run's target is ``LAW_MAPE_TARGET``.
``--fit-default`` runs nothing: it prints the engine-wide marginal fitted
to the committed ``BENCH_engine.json`` rows, the value of
``repro.core.catalog.DEFAULT_BATCH_MARGINAL``.

Three counts ride along (no clock): the bytes the thread's buffer arena
owns after every plan and batch size of the run went through it, which
must equal the neediest single (plan, batch size) — one arena serves
them all, pads included; what the runner's prefix cache holds resident
(``BlockwiseRunner.cache_bytes``) after sixteen inputs per batch size
went through five paths sharing ``stem..layer3`` — an entry at the one
branch point per input, not one per trunk block; and the scheme every
int8 conv binds to at batch 1, where Winograd's tile GEMMs are too
skinny to pay.

Results go to ``BENCH_engine.json`` at the repo root (machine-readable,
committed, so later changes can track the perf trajectory); the text
tables are printed.  Every run exits nonzero on an int8 agreement,
determinism or batch-law failure, or when the arena is not exactly that
need.
``--quick`` runs a small-shape subset for CI smoke, also fails when an
int8 conv binds Winograd at batch 1, and writes
``benchmarks/results/BENCH_engine_quick.json`` instead.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from benchmarks._report import write_json
from repro.analysis.report import format_table
from repro.dnn.compile import _Arena, _thread_arena, compile_module
from repro.dnn.configs import TABLE_I_CONFIGS
from repro.core.catalog import Block, Path
from repro.core.task import QualityLevel
from repro.dnn.profiler import fit_batch_marginal, profile_model
from repro.dnn.pruning import prune_resnet
from repro.dnn.resnet import BLOCK_NAMES, build_resnet18
from repro.serving.executor import BatchExecutor, BlockwiseRunner
from repro.serving.queueing import ServingRequest

REPO_ROOT = pathlib.Path(__file__).parent.parent
#: quantization is lossy; gate on top-1 agreement with fp32 instead of
#: element-wise closeness (measured worst config: 0.88)
INT8_AGREEMENT_TOL = 0.75
#: per-block batch law vs the measured runner, mean relative error per
#: (precision, batch size): fatal above the first, the full run aims at
#: the second
LAW_MAPE_FATAL = 0.20
LAW_MAPE_TARGET = 0.10
SEED = 0


def _median_time(fn, x: np.ndarray, repeats: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn(x)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(x)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def _single_need(plan, n: int) -> int:
    """Arena bytes ``plan`` alone needs at batch size ``n``."""
    alone = _Arena()
    plan._bind(alone, n)
    return alone.nbytes


def _resnet_config_model(name: str, width: int, input_size: int):
    config = TABLE_I_CONFIGS[name]
    model = build_resnet18(
        num_classes=10, input_size=input_size, width=width, seed=SEED
    )
    if config.pruned:
        prune_resnet(model, set(config.prunable_blocks), config.prune_ratio)
    return model


def _int8_models(quick: bool):
    """(label, model, width, input_size) for the int8 vs fp32 section.

    Full mode runs every Table I configuration at the paper's ResNet-18
    width (64): the quantized schemes (Winograd, height-tap GEMMs) are
    shaped for those channel counts, and the ≥1.3x acceptance geomean
    is defined at that scale.  Quick mode runs one tiny config purely
    as a parity/determinism smoke — speedup is recorded, not asserted.
    """
    if quick:
        width, input_size = 8, 16
        names = ["CONFIG A"]
    else:
        width, input_size = 64, 32
        names = list(TABLE_I_CONFIGS)
    return [
        (name, _resnet_config_model(name, width, input_size), width, input_size)
        for name in names
    ]


def run_int8(quick: bool) -> dict:
    """int8 quantized plans vs fp32 compiled plans (same models)."""
    batches = [1, 8] if quick else [1, 8, 32]
    repeats = 3 if quick else 5
    probe_n = 16 if quick else 32
    rng = np.random.default_rng(SEED + 1)
    rows = []
    agreement_by_config = {}
    batch1_schemes = {}
    need = 0
    for label, model, _width, _size in _int8_models(quick):
        compiled = compile_module(model)
        quantized = compile_module(model, quantize="int8")
        probe = rng.standard_normal((probe_n, *model.input_shape), dtype=np.float32)
        ref_top1 = np.argmax(compiled.forward(probe), axis=1)
        q_out = quantized.forward(probe)
        need = max(
            need, _single_need(compiled, probe_n), _single_need(quantized, probe_n)
        )
        agreement = float(np.mean(np.argmax(q_out, axis=1) == ref_top1))
        bit_identical = bool(np.array_equal(q_out, quantized.forward(probe)))
        agreement_by_config[label] = agreement
        for n in batches:
            x = rng.standard_normal((n, *model.input_shape), dtype=np.float32)
            fp32_s = _median_time(compiled.forward, x, repeats)
            int8_s = _median_time(quantized.forward, x, repeats)
            need = max(need, _single_need(compiled, n), _single_need(quantized, n))
            rows.append(
                {
                    "model": label,
                    "batch": n,
                    "fp32_ms": fp32_s * 1e3,
                    "int8_ms": int8_s * 1e3,
                    "speedup_vs_fp32": fp32_s / int8_s,
                    "top1_agreement": agreement,
                    "bit_identical": bit_identical,
                }
            )
        batch1_schemes[label] = sorted(set(quantized.conv_schemes(1)))
    batch8 = [r["speedup_vs_fp32"] for r in rows if r["batch"] == 8]
    return {
        "settings": {
            "seed": SEED + 1,
            "repeats": repeats,
            "batches": batches,
            "width": 8 if quick else 64,
            "input_size": 16 if quick else 32,
            "probe_batch": probe_n,
            "top1_agreement_tolerance": INT8_AGREEMENT_TOL,
        },
        "results": rows,
        "geomean_speedup_batch8": float(np.exp(np.mean(np.log(batch8)))),
        "top1_agreement_by_config": agreement_by_config,
        "min_top1_agreement": min(agreement_by_config.values()),
        "all_bit_identical": all(r["bit_identical"] for r in rows),
        "batch1_schemes": batch1_schemes,
        "largest_single_need_bytes": need,
    }


def _law_row(label, model, quantize, batches, repeats, rng) -> dict:
    """Profile ``model``'s blocks, then charge and run them as one path."""
    profile = profile_model(
        model, repeats=repeats, quantize=quantize, compiled=True,
        batch_sizes=tuple(batches[1:]),
    )
    path = Path(
        label, label, 1,
        tuple(
            Block(
                b.name, label, b.compute_time_s, b.memory_gb,
                batch_marginal=b.batch_marginal,
            )
            for b in profile.blocks
        ),
        accuracy=1.0, quality=QualityLevel(name="full", bits_per_image=1.0),
    )
    runner = BlockwiseRunner(
        modules=dict(model.blocks), compile_blocks=True, quantize=quantize
    )
    row = {
        "model": label,
        "precision": quantize or "fp32",
        "batch_marginal": {b.name: b.batch_marginal for b in profile.blocks},
    }
    for n in batches:
        x = rng.standard_normal((n, *model.input_shape), dtype=np.float32)
        measured_s = _median_time(lambda x: runner.run(path, x), x, repeats)
        window = [ServingRequest(1, i, path, 0.0, 1.0, 1.0) for i in range(n)]
        charged_s = BatchExecutor().dispatch(window, 0.0).compute_s
        row[f"measured_ms_b{n}"] = measured_s * 1e3
        row[f"charged_ms_b{n}"] = charged_s * 1e3
        row[f"error_b{n}"] = abs(charged_s - measured_s) / measured_s
    return row


def _law_worst(row: dict) -> float:
    """The largest relative error of one batch-law row over its batch sizes."""
    return max(value for key, value in row.items() if key.startswith("error_b"))


def run_batch_law(quick: bool) -> dict:
    """What the executor charges a profiled path vs what the runner takes."""
    batches = [1, 8] if quick else [1, 8, 32]
    repeats = 3 if quick else 5
    rng = np.random.default_rng(SEED + 2)
    if quick:
        # big enough that a forward outweighs the runner's per-block
        # bookkeeping, which the law does not model
        models = [
            (name, _resnet_config_model(name, width=16, input_size=32))
            for name in ("CONFIG A", "CONFIG C-pruned")
        ]
    else:
        models = [(label, model) for label, model, _, _ in _int8_models(quick)]
    rows = []
    for label, model in models:
        for quantize in (None, "int8"):
            # profile and run are minutes of wall clock apart in the full
            # run: a row the host stalled under (an idle core's BLAS worker
            # wakes a timer tick late) is taken once more, and says so; a
            # row that misses twice fails the run by itself
            for attempt in (1, 2):
                row = _law_row(label, model, quantize, batches, repeats, rng)
                row["attempts"] = attempt
                worst = _law_worst(row)
                if worst <= LAW_MAPE_FATAL:
                    break
                print(
                    f"batch law: {label} {row['precision']} attempt {attempt} "
                    f"error {worst:.3f} > {LAW_MAPE_FATAL}"
                    + (", re-taking" if attempt == 1 else ", row failed")
                )
            rows.append(row)
    # a row that missed twice is named by the gate, not averaged away
    kept = [r for r in rows if _law_worst(r) <= LAW_MAPE_FATAL]
    mape = {
        f"{precision}.b{n}": float(
            np.mean(
                [r[f"error_b{n}"] for r in kept if r["precision"] == precision]
                or [float("nan")]
            )
        )
        for precision in ("fp32", "int8")
        for n in batches
    }
    return {
        "settings": {"seed": SEED + 2, "repeats": repeats, "batches": batches},
        "results": rows,
        "mape": mape,
        "fatal_above": LAW_MAPE_FATAL,
        "target": LAW_MAPE_TARGET,
    }


def shared_trunk_runners(width: int, input_size: int):
    """``({precision: runner}, paths, input shape)``: five ResNet-18s
    sharing the frozen ``stem..layer3`` of one base model, each with its
    own ``layer4`` + ``head`` — the deployment the served-work benchmark's
    ``execute_real`` runs (64 cache entries per runner), every path
    already run once at each precision."""
    trunk = BLOCK_NAMES[:4]
    base = build_resnet18(num_classes=10, input_size=input_size, width=width, seed=SEED)
    modules = {f"base:{name}": base.blocks[name] for name in trunk}
    paths = []
    for i in range(5):
        donor = build_resnet18(
            num_classes=10, input_size=input_size, width=width, seed=SEED + i + 1
        )
        ids = [f"base:{name}" for name in trunk]
        for name in BLOCK_NAMES[4:]:
            modules[f"p{i}:{name}"] = donor.blocks[name]
            ids.append(f"p{i}:{name}")
        paths.append(
            Path(
                f"p{i}", "shared", i + 1,
                tuple(Block(bid, "shared", 1e-3, 1e-3) for bid in ids),
                accuracy=1.0, quality=QualityLevel(name="full", bits_per_image=1.0),
            )
        )
    runners = {}
    x = np.zeros((1, *base.input_shape), dtype=np.float32)
    for quantize in (None, "int8"):
        runner = BlockwiseRunner(
            modules=modules, cacheable=frozenset(f"base:{name}" for name in trunk),
            cache_capacity=64, compile_blocks=True, quantize=quantize,
        )
        for path in paths:
            runner.run(path, x, input_key=-1)
        runner.clear()
        runner.cache_hits = runner.cache_misses = 0
        runners[runner.precision] = runner
    return runners, paths, base.input_shape


def run_prefix_cache(quick: bool) -> dict:
    """What the prefix cache holds after sixteen frames per batch size."""
    batches = [1, 8] if quick else [1, 8, 32]
    inputs = 16
    rng = np.random.default_rng(SEED + 3)
    runners, paths, shape = shared_trunk_runners(*((8, 16) if quick else (32, 32)))
    for key in range(inputs * len(batches)):
        n = batches[key % len(batches)]
        x = rng.standard_normal((n, *shape), dtype=np.float32)
        for runner in runners.values():
            for path in paths:
                runner.run(path, x, input_key=key)
    return {
        "settings": {
            "seed": SEED + 3, "inputs_per_batch": inputs, "batches": batches,
            "paths": len(paths),
        },
        "results": [
            {
                "precision": precision,
                "entries": len(runner._cache),
                "cache_bytes": runner.cache_bytes,
                "hits": runner.cache_hits,
                "misses": runner.cache_misses,
                "evictions": runner.cache_evictions,
            }
            for precision, runner in runners.items()
        ],
    }


def fit_default(report: dict) -> float:
    """The engine-wide batch marginal of a full run's fp32 and int8 rows."""
    rows = report["int8"]["results"]
    batch1 = {r["model"]: r for r in rows if r["batch"] == 1}
    return fit_batch_marginal(
        (batch1[r["model"]][key], r["batch"], r[key])
        for r in rows
        if r["batch"] > 1
        for key in ("fp32_ms", "int8_ms")
    )


def run(quick: bool) -> dict:
    _thread_arena().release()  # count this run's plans only
    int8 = run_int8(quick)
    need = int8.pop("largest_single_need_bytes")
    # counted before the batch-law section binds its own (per-block) plans
    arena_bytes = _thread_arena().nbytes
    return {
        "bench": "bench_engine",
        "mode": "quick" if quick else "full",
        "int8": int8,
        "batch_law": run_batch_law(quick),
        "arena": {
            "bytes": arena_bytes,
            "largest_single_need_bytes": need,
        },
        "prefix_cache": run_prefix_cache(quick),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small-shape CI smoke: subset of models, batches 1/8",
    )
    parser.add_argument(
        "--fit-default",
        action="store_true",
        help="run nothing: print the engine-wide batch marginal fitted to the "
        "committed BENCH_engine.json (repro.core.catalog.DEFAULT_BATCH_MARGINAL)",
    )
    args = parser.parse_args()
    if args.fit_default:
        committed = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
        print(f"{fit_default(committed):.4f}")
        return 0

    report = run(quick=args.quick)
    int8 = report["int8"]
    int8_table = format_table(
        ["model", "batch", "fp32 ms", "int8 ms", "speedup", "top-1 agree"],
        [
            [
                r["model"],
                r["batch"],
                f"{r['fp32_ms']:.2f}",
                f"{r['int8_ms']:.2f}",
                f"{r['speedup_vs_fp32']:.2f}x",
                f"{r['top1_agreement']:.2f}",
            ]
            for r in int8["results"]
        ],
    )
    int8_summary = (
        f"int8 geomean speedup @ batch 8: "
        f"{int8['geomean_speedup_batch8']:.2f}x   "
        f"min top-1 agreement: {int8['min_top1_agreement']:.2f}   "
        f"bit-identical: {int8['all_bit_identical']}"
    )
    law = report["batch_law"]
    law_batches = law["settings"]["batches"]
    law_table = format_table(
        ["model", "precision"]
        + [f"b{n} charged / measured ms" for n in law_batches]
        + [f"b{n} err" for n in law_batches],
        [
            [r["model"], r["precision"]]
            + [
                f"{r[f'charged_ms_b{n}']:.2f} / {r[f'measured_ms_b{n}']:.2f}"
                for n in law_batches
            ]
            + [f"{r[f'error_b{n}']:.3f}" for n in law_batches]
            for r in law["results"]
        ],
    )
    law_summary = "batch-law MAPE (charged vs measured): " + "   ".join(
        f"{key} {value:.3f}" for key, value in law["mape"].items()
    ) + f"   (fatal > {LAW_MAPE_FATAL}, target <= {LAW_MAPE_TARGET})"
    arena_summary = (
        f"arena after every plan: "
        f"{report['arena']['bytes'] / 1e6:.1f} MB   neediest single (plan, batch): "
        f"{report['arena']['largest_single_need_bytes'] / 1e6:.1f} MB"
    )
    cache = report["prefix_cache"]
    cache_summary = (
        f"prefix cache after {cache['settings']['inputs_per_batch']} inputs per "
        f"batch size, {cache['settings']['paths']} paths: "
    ) + "   ".join(
        f"{r['precision']} {r['cache_bytes'] / 1e6:.1f} MB in {r['entries']} entries "
        f"({r['hits']} hits / {r['misses']} misses)"
        for r in cache["results"]
    )
    print(
        "\nint8 quantized vs fp32 compiled:\n" + int8_table + "\n\n" + int8_summary
        + "\n\nper-block batch law vs BlockwiseRunner:\n" + law_table + "\n\n"
        + law_summary + "\n" + arena_summary + "\n" + cache_summary
    )

    if args.quick:
        json_path = REPO_ROOT / "benchmarks" / "results" / "BENCH_engine_quick.json"
    else:
        json_path = REPO_ROOT / "BENCH_engine.json"
    write_json(report, json_path)

    if int8["min_top1_agreement"] < INT8_AGREEMENT_TOL:
        print(
            f"INT8 PARITY FAILURE: min top-1 agreement "
            f"{int8['min_top1_agreement']:.2f} < {INT8_AGREEMENT_TOL}"
        )
        return 1
    if not int8["all_bit_identical"]:
        print("INT8 DETERMINISM FAILURE: repeated runs not bit-identical")
        return 1
    failed = [
        f"{r['model']} {r['precision']}"
        for r in law["results"]
        if _law_worst(r) > LAW_MAPE_FATAL
    ]
    over = {key: value for key, value in law["mape"].items() if value > LAW_MAPE_FATAL}
    if failed or over:
        print(
            f"BATCH LAW FAILURE: charged vs measured error above {LAW_MAPE_FATAL}: "
            f"rows missing twice {failed}, MAPE {over}"
        )
        return 1
    wino = {
        label: schemes
        for label, schemes in int8["batch1_schemes"].items()
        if any(scheme.startswith("wino") for scheme in schemes)
    }
    # the quick models are 8-64 channels wide at 16 px: none reaches the
    # 4096 transform columns at batch 1 (the full run's width-64 layer1 does)
    if args.quick and wino:
        print(f"INT8 SCHEME FAILURE: Winograd bound at batch 1: {wino}")
        return 1
    arena = report["arena"]
    # pads live in the block, which grows to exactly the largest need
    if arena["bytes"] != arena["largest_single_need_bytes"]:
        print(
            f"ARENA FAILURE: {arena['bytes']} bytes owned != largest single "
            f"need {arena['largest_single_need_bytes']}"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
