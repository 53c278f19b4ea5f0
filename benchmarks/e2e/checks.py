"""Output verification: what ``fail_share`` counts.

Every operation the harness times (one solve, one serving run, one
cluster chain, one frame) is verified here.  Each check returns a list
of human-readable violations; an empty list means the operation passed.
The functions take plain values and duck-typed records so the tests can
hand them doctored inputs.
"""

from __future__ import annotations

import numpy as np

#: int8 outputs must pick the fp32 top-1 class at least this often
MIN_INT8_TOP1_AGREE = 0.75
_EPS = 1e-9


def check_solution(report) -> list[str]:
    """``check_constraints`` must come back clean (Eq. 1b-1g)."""
    return [f"constraint: {v}" for v in report.violations]


def check_conservation(
    offered: int, gated: int, drops: dict[str, int], completed: int
) -> list[str]:
    """offered = gated + sum(drops by reason) + completed.

    ``drops`` excludes admission sheds, which ``gated`` counts.
    """
    accounted = gated + sum(drops.values()) + completed
    if accounted != offered:
        return [
            f"conservation: offered {offered} != gated {gated} + drops "
            f"{sum(drops.values())} + completed {completed}"
        ]
    return []


def record_arrays(records) -> dict[str, np.ndarray]:
    """Column view of request records (one pass per field)."""
    n = len(records)

    def column(name: str) -> np.ndarray:
        return np.fromiter((getattr(r, name) for r in records), np.float64, n)

    out = {
        name: column(name)
        for name in (
            "created_at", "uplink_done_at", "dispatched_at", "started_at",
            "completed_at", "deadline_at",
        )
    }
    out["dropped"] = np.fromiter(
        (r.drop_reason is not None for r in records), np.bool_, n
    )
    return out


def check_records(cols: dict[str, np.ndarray], offered: int, gated: int) -> list[str]:
    """Record-level conservation and timestamp order.

    Every gate-admitted request has exactly one record; each record ends
    dropped or completed, never both or neither; completed records move
    forward in virtual time: created <= uplink_done <= dispatched <=
    started <= completed.
    """
    out: list[str] = []
    n = len(cols["dropped"])
    if n != offered - gated:
        out.append(f"conservation: {n} records for {offered - gated} admitted")
    finished = ~np.isnan(cols["completed_at"])
    both = int((cols["dropped"] & finished).sum())
    neither = int((~cols["dropped"] & ~finished).sum())
    if both or neither:
        out.append(
            f"conservation: {both} records dropped and completed, "
            f"{neither} neither"
        )
    done = finished & ~cols["dropped"]
    order = (
        "created_at", "uplink_done_at", "dispatched_at", "started_at",
        "completed_at",
    )
    for earlier, later in zip(order, order[1:]):
        bad = int((cols[earlier][done] > cols[later][done] + _EPS).sum())
        if bad:
            out.append(f"timestamps: {bad} records with {earlier} > {later}")
    return out


def check_utilisation(name: str, value: float) -> list[str]:
    if not 0.0 <= value <= 1.0 + _EPS:
        return [f"utilisation: {name} = {value:.6f} outside [0, 1]"]
    return []


def check_repeatable(keys: list) -> list[str]:
    """Repetitions under one seed must produce one metrics key."""
    if len(set(keys)) > 1:
        return [f"determinism: {len(set(keys))} distinct metric keys in {len(keys)} repetitions"]
    return []


def check_frame_equal(shared: np.ndarray, bypassed: np.ndarray) -> list[str]:
    """A prefix-cache hit must not change the output bits."""
    if not np.array_equal(shared, bypassed):
        return ["frame: cached-prefix output differs from the cache-bypassed output"]
    return []


def check_frame_output(out: np.ndarray, images: int) -> list[str]:
    if out.ndim != 2 or out.shape[0] != images or not np.isfinite(out).all():
        return [f"frame: bad output shape {out.shape} or non-finite logits"]
    return []


def check_int8_agreement(agree: int, images: int) -> list[str]:
    if images and agree / images < MIN_INT8_TOP1_AGREE:
        return [
            f"int8: top-1 agreement {agree / images:.3f} < {MIN_INT8_TOP1_AGREE}"
        ]
    return []
