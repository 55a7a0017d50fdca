"""Level-k speaker/listener recursion anchored at the literal listener.

Level 0 is the literal listener: one posterior row per menu message. Each
later level k derives a speaker S_k as the (hard or softmax) response to
L_{k-1}, then a listener L_k as the Bayes response to S_k:

    L_k(x | m)  proportional to  sum_o w_o * P_o(x) * S_k(m | o)

Messages no observation sends have an undefined Bayes row; by default
they keep their literal row so every message stays interpretable, with a
toggle to make dead messages a hard error instead.

Iteration stops when two consecutive (S, L) pairs agree within tol in
max-norm, when a previously seen pair recurs (a cycle, reported as
non-convergence), or at max_levels. ``check_fixed_point`` independently
verifies the two defining conditions of a fixed point: speaker support
optimality (or exact softmax form) against L, and L being the Bayes
response to S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .listener import JointPrior, _literal_rows
from .listener import literal_update  # noqa: F401  unused; perfbench/tracing.py wraps it by name
from .messages import Message
from .prob import (Dist, SupportMismatch, _kl_rows, _quantized_key, _stochastic_rows,
                   kl_divergence, softmax)
from .speaker import NoTruthfulMessage, Observation, SpeakerStrategy, _argmax_with_tiebreak

__all__ = [
    "ListenerStrategy",
    "RecursionTrace",
    "literal_listener_strategy",
    "speaker_response",
    "listener_response",
    "iterate",
    "check_fixed_point",
    "FixedPointReport",
    "expected_utility",
    "DeadMessageNoFallback",
]

_QUANTUM = 1e-12  # strategy quantization for cycle detection


class DeadMessageNoFallback(ValueError):
    """A message is never sent and the literal fallback is disabled."""


@dataclass(frozen=True, eq=False)
class ListenerStrategy:
    """Row-stochastic map from menu indices to posteriors over the grid."""

    grid: np.ndarray
    matrix: np.ndarray  # shape (n_messages, n_grid)

    def __post_init__(self) -> None:
        g = np.array(self.grid, dtype=float)
        m = _stochastic_rows(self.matrix, "listener")
        if m.shape[1] != g.size:
            raise ValueError("matrix must have one column per grid value")
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "matrix", m)

    def row(self, msg_index: int) -> Dist:
        return Dist(self.grid, self.matrix[msg_index])


@dataclass
class RecursionTrace:
    """Levels of the recursion: levels[0] = (None, literal L0), then (S_k, L_k).

    residuals[i] is the max-norm change from level i+1 to level i+2;
    convergence means the last residual fell below tol.
    """

    menu: tuple[Message, ...]
    levels: list[tuple[SpeakerStrategy | None, ListenerStrategy]]
    converged: bool
    fixed_point_level: int | None
    residuals: list[float] = field(default_factory=list)
    cycle_detected: bool = False

    @property
    def final(self) -> tuple[SpeakerStrategy, ListenerStrategy]:
        s, listener = self.levels[-1]
        if s is None:
            raise ValueError("trace has no speaker level yet")
        return s, listener


def literal_listener_strategy(prior: JointPrior, menu: Sequence[Message]) -> ListenerStrategy:
    """Level-0 rows: the literal posterior for each menu message."""
    return ListenerStrategy(*_literal_rows(prior, menu))


def _utilities(observations: Sequence[Observation], L: ListenerStrategy) -> np.ndarray:
    """The (n_obs, n_msgs) matrix -KL(P_o || L_m), -inf on truthfulness violations."""
    for o in observations:
        if not np.array_equal(o.dist.support, L.grid):
            raise SupportMismatch(f"observation {o.id!r} is not on the listener's grid")
    return -np.stack([_kl_rows(o.dist.probs, L.matrix) for o in observations])


def speaker_response(L: ListenerStrategy, observations: Sequence[Observation],
                     menu: Sequence[Message], mode: str = "hardmax",
                     lam: float | None = None) -> SpeakerStrategy:
    """Best (or softmax) response to a listener, one row per observation."""
    utilities = _utilities(observations, L)
    rows = np.zeros_like(utilities)
    for i, (o, u) in enumerate(zip(observations, utilities)):
        if np.max(u) == -math.inf:
            raise NoTruthfulMessage(f"no usable message for observation {o.id!r}")
        if mode == "hardmax":
            rows[i, _argmax_with_tiebreak(menu, u)] = 1.0
        elif mode == "softmax":
            if lam is None:
                raise ValueError("softmax mode needs lam")
            rows[i] = softmax(u, lam)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return SpeakerStrategy(tuple(o.id for o in observations), rows)


def _observation_weights(weights: Sequence[float],
                         observations: Sequence[Observation]) -> np.ndarray:
    """One finite, nonnegative weight per observation, scaled to sum to 1."""
    w = np.asarray(weights, dtype=float)
    if (w.shape != (len(observations),) or not np.all(np.isfinite(w))
            or np.any(w < 0) or not np.any(w > 0)):
        raise ValueError("weights must be finite and nonnegative with positive total")
    return w / w.sum()


def listener_response(S: SpeakerStrategy, observations: Sequence[Observation],
                      weights: Sequence[float],
                      fallback: ListenerStrategy | None) -> ListenerStrategy:
    """Bayes response to a speaker strategy.

    Row for message m: sum over observations of w_o * P_o * S(m|o),
    normalized. Rows with zero total use the matching fallback row, or
    raise DeadMessageNoFallback when no fallback is given.
    """
    w = _observation_weights(weights, observations)
    grid = observations[0].dist.support
    p_obs = np.stack([o.dist.probs for o in observations])  # (n_obs, n_grid)
    raw = S.matrix.T @ (w[:, None] * p_obs)  # (n_msgs, n_grid)
    totals = raw.sum(axis=1)
    sent = totals > 0
    if fallback is None and not np.all(sent):
        raise DeadMessageNoFallback(f"message index {np.flatnonzero(~sent)[0]} is never sent")
    matrix = raw / np.where(sent, totals, 1.0)[:, None]
    if fallback is not None:
        matrix = np.where(sent[:, None], matrix, fallback.matrix)
    return ListenerStrategy(grid, matrix)


def _pair_diff(a: tuple[SpeakerStrategy, ListenerStrategy],
               b: tuple[SpeakerStrategy, ListenerStrategy]) -> float:
    ds = float(np.max(np.abs(a[0].matrix - b[0].matrix)))
    dl = float(np.max(np.abs(a[1].matrix - b[1].matrix)))
    return max(ds, dl)


def iterate(prior: JointPrior, menu: Sequence[Message],
            observations: Sequence[Observation], weights: Sequence[float],
            mode: str = "hardmax", lam: float | None = None,
            max_levels: int = 20, tol: float = 1e-9,
            dead_message_fallback: bool = True) -> RecursionTrace:
    """Run the recursion from the literal anchor until it settles.

    fixed_point_level is the first level k whose (S_k, L_k) the next level
    reproduced within tol. A recurring earlier pair (period-2 oscillation
    under hard-max) stops the run as non-converged with cycle_detected.
    """
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    if not menu:
        raise ValueError("menu must be nonempty")
    if tol <= 0:
        raise ValueError("tol must be positive")
    L0 = literal_listener_strategy(prior, menu)
    trace = RecursionTrace(menu=tuple(menu), levels=[(None, L0)],
                           converged=False, fixed_point_level=None)
    fallback = L0 if dead_message_fallback else None
    seen: dict[bytes, int] = {}
    prev: tuple[SpeakerStrategy, ListenerStrategy] | None = None
    L = L0
    for level in range(1, max_levels + 1):
        S = speaker_response(L, observations, menu, mode=mode, lam=lam)
        L = listener_response(S, observations, weights, fallback)
        trace.levels.append((S, L))
        if prev is not None:
            diff = _pair_diff((S, L), prev)
            trace.residuals.append(diff)
            if diff < tol:
                trace.converged = True
                trace.fixed_point_level = level - 1
                break
        key = _quantized_key(_QUANTUM, S.matrix, L.matrix)
        if key in seen:
            trace.cycle_detected = True
            break
        seen[key] = level
        prev = (S, L)
    return trace


def expected_utility(S: SpeakerStrategy, L: ListenerStrategy,
                     observations: Sequence[Observation],
                     weights: Sequence[float]) -> float:
    """Average speaker utility sum_o w_o sum_m S(m|o) * -KL(P_o || L_m).

    Unsent messages contribute nothing even at -inf utility (0 * -inf
    reads as 0 here, matching the expectation over the sent lottery).
    """
    w = _observation_weights(weights, observations)
    total = 0.0
    for i, j in zip(*np.nonzero(S.matrix > 0)):
        u = -kl_divergence(observations[i].dist, L.row(j))
        total += w[i] * S.matrix[i, j] * u
    return total


@dataclass(frozen=True)
class FixedPointReport:
    speaker_ok: bool
    listener_ok: bool
    speaker_residual: float
    listener_residual: float

    @property
    def ok(self) -> bool:
        return self.speaker_ok and self.listener_ok


def check_fixed_point(S: SpeakerStrategy, L: ListenerStrategy,
                      prior: JointPrior, menu: Sequence[Message],
                      observations: Sequence[Observation], weights: Sequence[float],
                      tol: float = 1e-9, mode: str = "hardmax",
                      lam: float | None = None,
                      dead_message_fallback: bool = True) -> FixedPointReport:
    """Verify the two fixed-point conditions for the pair (S, L).

    Speaker side is mode-aware. Hard-max: every positively sent message
    must attain the max utility against L within tol (residual = largest
    shortfall). Softmax: S rows must equal the softmax response within
    tol (residual = largest entry difference). Listener side: L must
    equal the Bayes response to S (with the same dead-message rule used
    by iterate) within tol.
    """
    if mode == "hardmax":
        u = _utilities(observations, L)
        # inf when a sent message is untruthful; nan (skipped) when no message is truthful
        with np.errstate(invalid="ignore"):
            gaps = np.max(u, axis=1, keepdims=True) - u
        speaker_residual = float(np.fmax.reduce(gaps[S.matrix > 0], initial=0.0))
    elif mode == "softmax":
        ideal = speaker_response(L, observations, menu, mode="softmax", lam=lam)
        speaker_residual = float(np.max(np.abs(S.matrix - ideal.matrix)))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    fallback = literal_listener_strategy(prior, menu) if dead_message_fallback else None
    bayes = listener_response(S, observations, weights, fallback)
    listener_residual = float(np.max(np.abs(L.matrix - bayes.matrix)))
    return FixedPointReport(
        speaker_ok=speaker_residual <= tol,
        listener_ok=listener_residual <= tol,
        speaker_residual=speaker_residual,
        listener_residual=listener_residual,
    )
