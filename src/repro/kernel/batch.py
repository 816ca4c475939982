"""Vectorized round kernels: interval construction, rule MM-2, rule IM-2.

Each function here is the array twin of a scalar decision in
:mod:`repro.core.mm` / :mod:`repro.core.im` / :mod:`repro.core.sync`,
processing one whole poll round for *all servers in a shard* at once:
replies are stacked as ``(n, k)`` arrays (row = polling server, column =
reply slot, already in arrival order), local state as ``(n,)`` arrays.

Bit-equivalence with the scalar oracles is load-bearing — the batched
engine's trace digests must match the heap engine's — so every arithmetic
expression preserves the scalar code's evaluation order (IEEE 754 addition
is not associative):

* transit leading edge: ``(C_j + E_j) + (1 + δ_i)·ξ`` (sync.py);
* MM-2 adoption error: ``E_j + factor·ξ`` (mm.py);
* IM-2 trailing ``(C_j − E_j) − C_i``, leading ``((C_j + E_j) + rtt) − C_i``
  (im.py), with the self interval appended *last* and ties at ``max``/``min``
  resolved to the first candidate in arrival order (``np.argmax`` /
  ``np.argmin`` semantics match Python's ``max``/``min``).

Validation mirrors the scalar types: NaN state or reply fields, negative
local error, and inverted transit intervals raise :class:`ValueError`
exactly where :class:`~repro.core.intervals.TimeInterval` construction
would have raised in the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "interval_edges",
    "transit_edges",
    "mm2_adoption_error",
    "MM2Verdicts",
    "mm2_eval",
    "IMRound",
    "im2_round",
    "SELF_SLOT",
]

#: Sentinel column index meaning "the server's own interval" in
#: :class:`IMRound` edge attributions (the scalar code's ``"self"``).
SELF_SLOT = -1


def _as_2d(name: str, array: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    out = np.asarray(array, dtype=np.float64)
    if out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    return out


def interval_edges(
    values: np.ndarray, errors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rule MM-1 interval construction ``<C − E, C + E>``, elementwise.

    Raises:
        ValueError: On NaN inputs or negative errors — the conditions
            ``TimeInterval.from_center_error`` rejects.
    """
    values = np.asarray(values, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if np.isnan(values).any() or np.isnan(errors).any():
        raise ValueError("interval edges must not be NaN")
    if (errors < 0.0).any():
        raise ValueError("maximum error must be non-negative")
    return values - errors, values + errors


def transit_edges(
    reply_values: np.ndarray,
    reply_errors: np.ndarray,
    rtts: np.ndarray,
    delta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reply intervals aged to the receipt instant (``Reply.transit_interval``).

    ``delta`` is the polling server's ``δ_i`` — shape ``(n,)`` or ``(n, 1)``,
    broadcast across that row's reply slots.

    Returns:
        ``(lo, hi)`` with ``lo = C_j − E_j`` and
        ``hi = (C_j + E_j) + (1 + δ_i)·ξ^i_j`` in the scalar evaluation
        order.

    Raises:
        ValueError: On NaN inputs or an inverted transit interval (possible
            when a reply claims a negative error), matching the scalar
            :class:`TimeInterval` constructor.
    """
    reply_values = np.asarray(reply_values, dtype=np.float64)
    reply_errors = np.asarray(reply_errors, dtype=np.float64)
    rtts = np.asarray(rtts, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim == 1 and reply_values.ndim == 2:
        delta = delta[:, None]
    lo = reply_values - reply_errors
    hi = reply_values + reply_errors + (1.0 + delta) * rtts
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("interval edges must not be NaN")
    if (lo > hi).any():
        raise ValueError("interval trailing edge exceeds leading edge")
    return lo, hi


def mm2_adoption_error(
    reply_errors: np.ndarray,
    rtts: np.ndarray,
    delta: np.ndarray,
    *,
    inflate_rtt: bool = True,
) -> np.ndarray:
    """``E_j + (1 + δ_i)·ξ^i_j`` — the error inherited by adopting a reply.

    With ``inflate_rtt=False`` the raw ``ξ`` ablation of
    :class:`~repro.core.mm.MMPolicy` is reproduced.
    """
    reply_errors = np.asarray(reply_errors, dtype=np.float64)
    rtts = np.asarray(rtts, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim == 1 and reply_errors.ndim == 2:
        delta = delta[:, None]
    factor = (1.0 + delta) if inflate_rtt else np.ones_like(delta)
    return reply_errors + factor * rtts


@dataclass(frozen=True)
class MM2Verdicts:
    """Vectorized rule MM-2 verdicts for an ``(n, k)`` block of replies.

    Attributes:
        consistent: Reply transit interval intersects the local interval.
        candidate: The adoption error ``E_j + factor·ξ`` per reply.
        accepts: Rule MM-2's predicate (consistency included) per reply.
    """

    consistent: np.ndarray
    candidate: np.ndarray
    accepts: np.ndarray


def mm2_eval(
    state_values: np.ndarray,
    state_errors: np.ndarray,
    delta: np.ndarray,
    reply_values: np.ndarray,
    reply_errors: np.ndarray,
    rtts: np.ndarray,
    *,
    inflate_rtt: bool = True,
    strict_improvement: bool = False,
) -> MM2Verdicts:
    """Evaluate rule MM-2 for every reply of a stacked round.

    Row ``i`` holds polling server ``S_i``'s local state ``(n,)`` arrays and
    its replies along axis 1.  Matches
    :meth:`repro.core.mm.MMPolicy.on_reply` decision-for-decision.

    Raises:
        ValueError: Where the scalar path would raise building its
            intervals: NaN anywhere, negative local error, or an inverted
            transit interval.
    """
    state_values = np.asarray(state_values, dtype=np.float64)
    state_errors = np.asarray(state_errors, dtype=np.float64)
    state_lo, state_hi = interval_edges(state_values, state_errors)
    transit_lo, transit_hi = transit_edges(reply_values, reply_errors, rtts, delta)
    consistent = (state_lo[:, None] <= transit_hi) & (
        transit_lo <= state_hi[:, None]
    )
    candidate = mm2_adoption_error(reply_errors, rtts, delta, inflate_rtt=inflate_rtt)
    if strict_improvement:
        improves = candidate < state_errors[:, None]
    else:
        improves = candidate <= state_errors[:, None]
    return MM2Verdicts(consistent, candidate, consistent & improves)


@dataclass(frozen=True)
class IMRound:
    """Vectorized rule IM-2 outcome for a stacked round.

    Attributes:
        a: ``max T_j`` per row (trailing edge of the intersection).
        b: ``min L_j`` per row (leading edge of the intersection).
        a_slot: Arrival-order slot defining ``a`` (:data:`SELF_SLOT` for the
            server's own interval).
        b_slot: Arrival-order slot defining ``b``.
        consistent: Rule IM-2's ``b >= a`` (or strict) verdict per row.
        offset: Clock adjustment ``(a + b)/2`` (or ``a``) per row.
        new_error: The reset's inherited error per row.
        new_value: ``C_i + offset`` per row.
    """

    a: np.ndarray
    b: np.ndarray
    a_slot: np.ndarray
    b_slot: np.ndarray
    consistent: np.ndarray
    offset: np.ndarray
    new_error: np.ndarray
    new_value: np.ndarray


def im2_round(
    state_values: np.ndarray,
    state_errors: np.ndarray,
    delta: np.ndarray,
    reply_values: np.ndarray,
    reply_errors: np.ndarray,
    rtts: np.ndarray,
    valid: Optional[np.ndarray] = None,
    *,
    include_self: bool = True,
    widen_both_edges: bool = False,
    reset_to: str = "midpoint",
    allow_point_intersection: bool = True,
) -> IMRound:
    """Evaluate rule IM-2 for a stacked round of aged replies.

    Replies must already be aged to the round close (the server does that,
    scalar and batched alike) and laid out in arrival order along axis 1 —
    tie-breaking at ``max T_j`` / ``min L_j`` picks the first candidate in
    that order, with the server's own interval considered last, exactly as
    :meth:`repro.core.im.IMPolicy.intersection` does.

    Args:
        valid: Optional ``(n, k)`` mask for ragged rounds (absent slots are
            excluded from the max/min).

    Raises:
        ValueError: On NaN inputs, negative local errors, a bad
            ``reset_to``, or a row with no candidates (no valid reply and
            ``include_self=False``) — the scalar ``intersection()`` errors.
    """
    if reset_to not in ("midpoint", "trailing"):
        raise ValueError(
            f"reset_to must be 'midpoint' or 'trailing', got {reset_to!r}"
        )
    state_values = np.asarray(state_values, dtype=np.float64)
    state_errors = np.asarray(state_errors, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    n = state_values.shape[0]
    shape = (n, np.asarray(reply_values).shape[1] if np.asarray(reply_values).ndim == 2 else 0)
    reply_values = _as_2d("reply_values", reply_values, shape)
    reply_errors = _as_2d("reply_errors", reply_errors, shape)
    rtts = _as_2d("rtts", rtts, shape)
    if np.isnan(state_values).any() or np.isnan(state_errors).any():
        raise ValueError("interval edges must not be NaN")
    if (state_errors < 0.0).any():
        raise ValueError("maximum error must be non-negative")
    if np.isnan(reply_values).any() or np.isnan(reply_errors).any() or np.isnan(rtts).any():
        raise ValueError("interval edges must not be NaN")

    if valid is None:
        every_row_has_a_reply = shape[1] > 0 or n == 0
    else:
        valid = np.asarray(valid, dtype=bool)
        every_row_has_a_reply = valid.any(axis=1).all()
    if not include_self and not every_row_has_a_reply:
        raise ValueError("IM round with no replies and include_self=False")

    rtt_term = (1.0 + delta)[:, None] * rtts
    trailing = reply_values - reply_errors - state_values[:, None]
    if widen_both_edges:
        trailing = trailing - rtt_term
    leading = reply_values + reply_errors + rtt_term - state_values[:, None]

    # Masked slots must never define an edge; the self interval, when
    # included, is the last candidate (ties resolve to earlier arrivals).
    if valid is not None:
        trailing = np.where(valid, trailing, -np.inf)
        leading = np.where(valid, leading, np.inf)
    if include_self:
        trailing = np.concatenate([trailing, -state_errors[:, None]], axis=1)
        leading = np.concatenate([leading, state_errors[:, None]], axis=1)

    a_slot = np.argmax(trailing, axis=1)
    b_slot = np.argmin(leading, axis=1)
    rows = np.arange(n)
    a = trailing[rows, a_slot]
    b = leading[rows, b_slot]
    if include_self:
        k = shape[1]
        a_slot = np.where(a_slot == k, SELF_SLOT, a_slot)
        b_slot = np.where(b_slot == k, SELF_SLOT, b_slot)
    consistent = (b >= a) if allow_point_intersection else (b > a)

    if reset_to == "midpoint":
        offset = (a + b) / 2.0
        new_error = (b - a) / 2.0
    else:
        offset = a
        new_error = b - a
    new_value = state_values + offset
    return IMRound(a, b, a_slot, b_slot, consistent, offset, new_error, new_value)
