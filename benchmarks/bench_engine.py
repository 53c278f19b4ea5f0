"""Compiled inference engine — eager vs fused-plan forward latency.

Beyond the paper: every compute cost the DOT solver and the serving
runtime consume comes from forwards of the numpy engine.  This bench
measures what the compiled engine (:mod:`repro.dnn.compile` — BN
folding, op fusion, weight pre-layout, buffer arenas) buys over the
eager layer-by-layer forward, across the Table I ResNet configurations
and MobileNetV2 at batch sizes 1/8/32, and verifies numerical parity.

An **int8 section** additionally compares the quantized engine
(:mod:`repro.dnn.quantize` — per-channel symmetric weights, calibrated
activation scales, fused requant) against the fp32 compiled plan on the
Table I ResNet configurations at their paper scale (width 64).  Each
row records the speedup, the top-1 agreement with fp32 on a fixed probe
batch, and whether two int8 runs were bit-identical (determinism).

Two counts ride along (no clock): the bytes the thread's buffer arena
and pad pool own after every plan and batch size of the run went through
them, against the neediest single (plan, batch size) — one arena serves
them all — and the scheme every int8 conv binds to at batch 1, where
Winograd's tile GEMMs are too skinny to pay.

Results go to ``BENCH_engine.json`` at the repo root (machine-readable,
committed, so later PRs can track the perf trajectory); the text table
is printed.  ``--quick`` runs a small-shape subset
for CI smoke: it asserts parity and the two counts and exits nonzero on
divergence or crash, writing
``benchmarks/results/BENCH_engine_quick.json`` instead.
"""

from __future__ import annotations

import argparse
import pathlib
import time

import numpy as np

from benchmarks._report import write_json
from repro.analysis.report import format_table
from repro.dnn.compile import _Arena, _thread_arena, compile_module
from repro.dnn.configs import TABLE_I_CONFIGS
from repro.dnn.mobilenet import build_mobilenetv2
from repro.dnn.pruning import prune_resnet
from repro.dnn.resnet import build_resnet18

REPO_ROOT = pathlib.Path(__file__).parent.parent
PARITY_TOL = 1e-4
#: quantization is lossy; gate on top-1 agreement with fp32 instead of
#: element-wise closeness (measured worst config: 0.88)
INT8_AGREEMENT_TOL = 0.75
#: the arena may own this much more than the neediest single (plan,
#: batch size): its block is exactly that need, the slack is the pool's
#: pads of the other geometries (asserted by --quick, whose plans share
#: most of theirs; the full run's 13 models do not)
ARENA_SLACK = 1.25
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
    """Arena + pad bytes ``plan`` alone needs at batch size ``n``."""
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


def _models(quick: bool):
    """(label, BlockwiseModel) pairs for the requested scale."""
    if quick:
        width, input_size = 8, 16
        names = ["CONFIG A", "CONFIG C", "CONFIG C-pruned"]
        mobilenets = [(0.25, 16)]
    else:
        width, input_size = 32, 32
        names = list(TABLE_I_CONFIGS)
        mobilenets = [(0.25, 32), (0.5, 32)]
    pairs = [
        (name, _resnet_config_model(name, width, input_size)) for name in names
    ]
    for mult, size in mobilenets:
        model = build_mobilenetv2(
            num_classes=10, input_size=size, width_multiplier=mult, seed=SEED
        )
        pairs.append((f"MobileNetV2-{mult}", model))
    return pairs


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


def run(quick: bool) -> dict:
    batches = [1, 8] if quick else [1, 8, 32]
    repeats = 3 if quick else 5
    rng = np.random.default_rng(SEED)
    rows = []
    need = 0
    _thread_arena().release()  # count this run's plans only
    for label, model in _models(quick):
        eager = model._as_sequential
        compiled = compile_module(model)
        for n in batches:
            x = rng.standard_normal((n, *model.input_shape), dtype=np.float32)
            diff = float(np.abs(eager.forward(x) - compiled.forward(x)).max())
            eager_s = _median_time(eager.forward, x, repeats)
            compiled_s = _median_time(compiled.forward, x, repeats)
            need = max(need, _single_need(compiled, n))
            rows.append(
                {
                    "model": label,
                    "batch": n,
                    "eager_ms": eager_s * 1e3,
                    "compiled_ms": compiled_s * 1e3,
                    "speedup": eager_s / compiled_s,
                    "max_abs_diff": diff,
                }
            )
    batch8 = [r["speedup"] for r in rows if r["batch"] == 8]
    int8 = run_int8(quick)
    need = max(need, int8.pop("largest_single_need_bytes"))
    return {
        "bench": "bench_engine",
        "mode": "quick" if quick else "full",
        "settings": {
            "seed": SEED,
            "repeats": repeats,
            "batches": batches,
            "parity_tolerance": PARITY_TOL,
        },
        "results": rows,
        "geomean_speedup_batch8": float(np.exp(np.mean(np.log(batch8)))),
        "max_abs_diff": max(r["max_abs_diff"] for r in rows),
        "int8": int8,
        "arena": {
            "bytes": _thread_arena().nbytes,
            "largest_single_need_bytes": need,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small-shape CI smoke: subset of models, batches 1/8",
    )
    args = parser.parse_args()

    report = run(quick=args.quick)
    table = format_table(
        ["model", "batch", "eager ms", "compiled ms", "speedup", "max|diff|"],
        [
            [
                r["model"],
                r["batch"],
                f"{r['eager_ms']:.2f}",
                f"{r['compiled_ms']:.2f}",
                f"{r['speedup']:.2f}x",
                f"{r['max_abs_diff']:.1e}",
            ]
            for r in report["results"]
        ],
    )
    summary = (
        f"geomean speedup @ batch 8: {report['geomean_speedup_batch8']:.2f}x   "
        f"max parity diff: {report['max_abs_diff']:.1e}"
    )
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
    arena_summary = (
        f"arena + pad pool after every plan: "
        f"{report['arena']['bytes'] / 1e6:.1f} MB   neediest single (plan, batch): "
        f"{report['arena']['largest_single_need_bytes'] / 1e6:.1f} MB"
    )
    print(
        "\n" + table + "\n\n" + summary + "\n\nint8 quantized vs fp32 compiled:\n"
        + int8_table + "\n\n" + int8_summary + "\n" + arena_summary
    )

    if args.quick:
        json_path = REPO_ROOT / "benchmarks" / "results" / "BENCH_engine_quick.json"
    else:
        json_path = REPO_ROOT / "BENCH_engine.json"
    write_json(report, json_path)

    if report["max_abs_diff"] >= PARITY_TOL:
        print(
            f"PARITY FAILURE: max|diff| {report['max_abs_diff']:.2e} "
            f">= {PARITY_TOL:.0e}"
        )
        return 1
    if int8["min_top1_agreement"] < INT8_AGREEMENT_TOL:
        print(
            f"INT8 PARITY FAILURE: min top-1 agreement "
            f"{int8['min_top1_agreement']:.2f} < {INT8_AGREEMENT_TOL}"
        )
        return 1
    if not int8["all_bit_identical"]:
        print("INT8 DETERMINISM FAILURE: repeated runs not bit-identical")
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
    if args.quick and arena["bytes"] > ARENA_SLACK * arena["largest_single_need_bytes"]:
        print(
            f"ARENA FAILURE: {arena['bytes']} bytes owned > {ARENA_SLACK} x "
            f"largest single need {arena['largest_single_need_bytes']}"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
