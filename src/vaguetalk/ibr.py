"""Level-k speaker/listener recursion anchored at the literal listener.

Level 0 is the literal listener: one posterior row per menu message. Each
later level k derives a speaker S_k as the (hard or softmax) response to
L_{k-1}, then a listener L_k as the Bayes response to S_k:

    L_k(x | m)  proportional to  sum_o w_o * P_o(x) * S_k(m | o)

Messages no observation sends have an undefined Bayes row; by default
they keep their literal row so every message stays interpretable, with a
toggle to make dead messages a hard error instead.

With that fallback, L_k keeps L0's row, bit for bit, for each message S_k
does not send, so only live and sent rows are computed. The Bayes product
is taken for the messages S_k uses and written into a copy of L0. As a
message's utility reads only its row, ``iterate`` computes the L0
utilities once and then recomputes only the sent columns, and its cycle
key records only the sent rows that round away from L0's. KL terms are
computed only for live rows, those with no zero where the observation has
mass; every other row is +inf, a truthfulness violation.

Iteration stops when two consecutive (S, L) pairs agree within tol in
max-norm, when a previously seen pair recurs (a cycle, reported as
non-convergence), or at max_levels. ``check_fixed_point`` independently
verifies the two defining conditions of a fixed point: speaker support
optimality (or exact softmax form) against L, and L being the Bayes
response to S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .listener import JointPrior, _literal_rows
from .listener import literal_update  # noqa: F401  unused; perfbench/tracing.py wraps it by name
from .messages import Menu, Message
from .prob import (Dist, SupportMismatch, _kl_rows, _quantized, _stochastic_rows,
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

    menu: Sequence[Message]  # a Menu as given, any other sequence as a tuple
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


def _built(cls, *values):
    """``cls(*values)`` for arrays the library made and checked: frozen in place, no copy."""
    obj = object.__new__(cls)
    for f, value in zip(fields(cls), values):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, f.name, value)
    return obj


def literal_listener_strategy(prior: JointPrior, menu: Sequence[Message]) -> ListenerStrategy:
    """Level-0 rows: the literal posterior for each menu message."""
    return _built(ListenerStrategy, *_literal_rows(prior, menu))


def _utilities(observations: Sequence[Observation], L: ListenerStrategy,
               rows=slice(None)) -> np.ndarray:
    """The (n_obs, n_rows) matrix -KL(P_o || L_m), -inf on truthfulness violations."""
    for o in observations:
        if not np.array_equal(o.dist.support, L.grid):
            raise SupportMismatch(f"observation {o.id!r} is not on the listener's grid")
    p = np.stack([o.dist.probs for o in observations])
    q = L.matrix[rows]
    shared = np.all((p > 0) == (p[0] > 0))  # one support mask: one stacked call
    return -(_kl_rows(p, q) if shared else np.stack([_kl_rows(row, q) for row in p]))


def speaker_response(L: ListenerStrategy, observations: Sequence[Observation],
                     menu: Sequence[Message], mode: str = "hardmax",
                     lam: float | None = None) -> SpeakerStrategy:
    """Best (or softmax) response to a listener, one row per observation."""
    return _speaker_from(_utilities(observations, L), observations, menu, mode, lam)


def _speaker_from(utilities: np.ndarray, observations: Sequence[Observation],
                  menu: Sequence[Message], mode: str, lam: float | None) -> SpeakerStrategy:
    """The (hard or softmax) response to an (n_obs, n_msgs) utility table."""
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
    return _built(SpeakerStrategy, tuple(o.id for o in observations), rows)


def _observation_weights(weights: Sequence[float],
                         observations: Sequence[Observation]) -> np.ndarray:
    """One finite, nonnegative weight per observation, scaled to sum to 1."""
    if not observations:
        raise ValueError("observations must be nonempty")
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
    raise DeadMessageNoFallback when no fallback is given. The returned
    matrix is fresh: the fallback's is neither shared nor written.
    """
    w = _observation_weights(weights, observations)
    grid, rows = (None, None) if fallback is None else (fallback.grid, fallback.matrix.copy())
    matrix, _ = _bayes_rows(S, observations, w, grid, rows)
    return _built(ListenerStrategy, observations[0].dist.support, matrix)


def _bayes_rows(S: SpeakerStrategy, observations: Sequence[Observation], w: np.ndarray,
                fallback_grid: np.ndarray | None, rows: np.ndarray | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The Bayes listener matrix for normalised weights ``w``, and which
    messages S sends: those whose weighted total is positive.

    The row of each sent message is written into ``rows``, a writable copy
    of the fallback matrix on ``fallback_grid`` whose other rows stay as
    they are. With ``rows`` None there is no fallback: every message must
    be sent, and the rows go into a fresh matrix.
    """
    grids = [o.dist.support for o in observations] + ([fallback_grid] if rows is not None else [])
    if not all(np.array_equal(g, grids[0]) for g in grids):
        raise SupportMismatch("observations and the fallback must share one grid")
    n_msgs = S.matrix.shape[1]
    if len(S.matrix) != len(observations) or (rows is not None and len(rows) != n_msgs):
        raise ValueError("speaker needs one row per observation, fallback one row per message")
    p_obs = np.stack([o.dist.probs for o in observations])  # (n_obs, n_grid)
    # The product is taken only for the messages S uses. numpy hands a
    # one-row product to gemv, not gemm, and gemv rounds otherwise; a second
    # message kept beside a lone used one makes each row round as it does in
    # the full product. (On a one-point grid every row normalises to 1.)
    used = S.matrix.any(axis=0)
    if np.count_nonzero(used) == 1:
        used[(used.argmax() + 1) % n_msgs] = True
    cols = np.flatnonzero(used)
    raw = S.matrix[:, cols].T @ (w[:, None] * p_obs)  # (n_cols, n_grid), unnormalised
    totals = raw.sum(axis=1)
    live = totals > 0
    sent = np.zeros(n_msgs, dtype=bool)
    sent[cols[live]] = True
    if rows is None:
        if not np.all(sent):
            raise DeadMessageNoFallback(f"message index {np.flatnonzero(~sent)[0]} is never sent")
        rows = np.empty((n_msgs, p_obs.shape[1]))
    rows[cols[live]] = raw[live] / totals[live, None]
    return rows, sent


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
    w = _observation_weights(weights, observations)
    L0 = literal_listener_strategy(prior, menu)
    trace = RecursionTrace(menu=menu if isinstance(menu, Menu) else tuple(menu),
                           levels=[(None, L0)], converged=False, fixed_point_level=None)
    seen: dict[tuple[bytes, ...], int] = {}
    prev: tuple[SpeakerStrategy, ListenerStrategy, np.ndarray] | None = None
    u0 = _utilities(observations, L0)
    L, sent = L0, np.zeros(len(menu), dtype=bool)
    for level in range(1, max_levels + 1):
        utilities = u0.copy()  # L's unsent rows are L0's, so only sent columns change
        utilities[:, sent] = _utilities(observations, L, sent)
        S = _speaker_from(utilities, observations, menu, mode, lam)
        matrix, sent = _bayes_rows(S, observations, w, L0.grid,
                                   L0.matrix.copy() if dead_message_fallback else None)
        L = _built(ListenerStrategy, observations[0].dist.support, matrix)
        trace.levels.append((S, L))
        if prev is not None:
            rows = sent | prev[2]  # the other rows are L0's on both levels
            diff = max(float(np.max(np.abs(S.matrix - prev[0].matrix))),
                       float(np.max(np.abs(L.matrix[rows] - prev[1].matrix[rows]), initial=0.0)))
            trace.residuals.append(diff)
            if diff < tol:
                trace.converged = True
                trace.fixed_point_level = level - 1
                break
        key = _cycle_key(S, L, L0, sent)
        if key in seen:
            trace.cycle_detected = True
            break
        seen[key] = level
        prev = (S, L, sent)
    return trace


def _cycle_key(S: SpeakerStrategy, L: ListenerStrategy, L0: ListenerStrategy,
               sent: np.ndarray) -> tuple[bytes, bytes, bytes]:
    """Key of (S, L) with entries rounded to multiples of _QUANTUM.

    Two keys are equal iff the rounded S and the rounded L are. Rows S does
    not send are L0's, so the key holds the rounded S, then the index and
    rounded row of each sent row that rounds away from L0's row.
    """
    idx = np.flatnonzero(sent)
    q = _quantized(_QUANTUM, L.matrix[idx])
    moved = np.any(q != _quantized(_QUANTUM, L0.matrix[idx]), axis=1)
    return _quantized(_QUANTUM, S.matrix).tobytes(), idx[moved].tobytes(), q[moved].tobytes()


def expected_utility(S: SpeakerStrategy, L: ListenerStrategy,
                     observations: Sequence[Observation],
                     weights: Sequence[float]) -> float:
    """Average speaker utility sum_o w_o sum_m S(m|o) * -KL(P_o || L_m).

    Unsent messages contribute nothing even at -inf utility (0 * -inf
    reads as 0 here, matching the expectation over the sent lottery).
    """
    w = _observation_weights(weights, observations)
    if S.matrix.shape != (len(observations), len(L.matrix)):
        raise ValueError("speaker needs one row per observation and one column per message")
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
    by iterate) within tol. The Bayes rows are written into a copy of the
    L0 matrix of ``prior`` and ``menu``, read through the literal listener's
    one-entry store: when these are the objects ``iterate`` was given, it is
    the matrix ``iterate`` built, and otherwise it is built here.
    """
    w = _observation_weights(weights, observations)
    if S.matrix.shape != (len(observations), len(menu)) or len(L.matrix) != len(menu):
        raise ValueError("speaker needs one row per observation and one column per message, "
                         "listener one row per message")
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
    # one menu x grid buffer: a copy of L0, then the Bayes rows, then L minus them
    grid, rows = None, None
    if dead_message_fallback:
        grid, rows = _literal_rows(prior, menu)
        rows = rows.copy()
    diff, _ = _bayes_rows(S, observations, w, grid, rows)
    np.subtract(L.matrix, diff, out=diff)
    listener_residual = float(np.max(np.abs(diff, out=diff)))
    return FixedPointReport(
        speaker_ok=speaker_residual <= tol,
        listener_ok=listener_residual <= tol,
        speaker_residual=speaker_residual,
        listener_residual=listener_residual,
    )
