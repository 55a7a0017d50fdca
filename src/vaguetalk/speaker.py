"""Speaker choice against a listener interpretation function.

The speaker holds a private posterior over world values (an Observation)
and scores each message by how well the listener's interpretation of it
matches that posterior: utility = -KL(observation || interpretation).
A message the listener would interpret as excluding a value the speaker
deems possible scores -inf (a truthfulness violation) and can never be
chosen. Choice is either a hard argmax with a deterministic tie-break or
a softmax lottery over the menu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .listener import ZeroPosterior
from .messages import Message
from .prob import Dist, SupportMismatch, _is_pure, _kl_rows, _stochastic_rows, softmax
from .prob import kl_divergence  # noqa: F401  unused; perfbench/tracing.py wraps it by name

__all__ = [
    "Observation",
    "SpeakerStrategy",
    "utility",
    "utility_table",
    "best_message",
    "best_index",
    "softmax_speaker",
    "NoTruthfulMessage",
    "DEFAULT_LAMBDA",
]

#: demo-facing softmax temperature; every entry point still takes lam explicitly
DEFAULT_LAMBDA = 4.0


class NoTruthfulMessage(ValueError):
    """Every message in the menu has utility -inf for this observation."""


@dataclass(frozen=True)
class Observation:
    """A speaker's private posterior over the world grid, with an id."""

    id: str
    dist: Dist


@dataclass(frozen=True, eq=False)
class SpeakerStrategy:
    """Row-stochastic map from observations to lotteries over menu indices."""

    obs_ids: tuple[str, ...]
    matrix: np.ndarray  # shape (n_observations, n_messages)

    def __post_init__(self) -> None:
        m = _stochastic_rows(self.matrix, "speaker")
        if m.shape[0] != len(self.obs_ids):
            raise ValueError("matrix must have one row per observation")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "obs_ids", tuple(self.obs_ids))

    def row(self, obs_id: str) -> np.ndarray:
        return self.matrix[self.obs_ids.index(obs_id)]

    @property
    def is_pure(self) -> bool:
        return _is_pure(self.matrix)

    def message_index(self, obs_id: str) -> int:
        """Index of the single message sent for obs_id; pure rows only."""
        row = self.row(obs_id)
        idx = np.flatnonzero(row == 1.0)
        if idx.size != 1:
            raise ValueError(f"row for {obs_id!r} is not pure")
        return int(idx[0])


def utility(o: Observation, m: Message, interpret: Callable[[Message], Dist]) -> float:
    """-KL(o.dist || interpret(m)); -inf on truthfulness violations.

    A ZeroPosterior from the interpreter (message false everywhere) also
    maps to -inf: a message the listener cannot update on is useless to
    the speaker, not a crash.
    """
    return float(utility_table(o, (m,), interpret)[0])


def utility_table(o: Observation, menu: Sequence[Message],
                  interpret: Callable[[Message], Dist]) -> np.ndarray:
    """Utilities for the full menu, -inf entries kept for inspection."""
    p = o.dist.probs
    rows = np.zeros((len(menu), p.size))  # a ZeroPosterior message keeps its zero row
    for j, m in enumerate(menu):
        try:
            post = interpret(m)
        except ZeroPosterior:
            continue
        if not o.dist.same_support(post):
            raise SupportMismatch("KL divergence needs identical supports")
        rows[j] = post.probs
    return -_kl_rows(p, rows)


def _argmax_with_tiebreak(menu: Sequence[Message], utilities: np.ndarray) -> int:
    best = np.max(utilities)
    if best == -math.inf:
        raise NoTruthfulMessage("every message violates truthfulness for this observation")
    # exact float ties only; vague messages win ties, then lowest menu index
    tied = [int(i) for i in np.flatnonzero(utilities == best)]
    return min(tied, key=lambda i: (not menu[i].vague, i))


def best_index(o: Observation, menu: Sequence[Message],
               interpret: Callable[[Message], Dist]) -> int:
    """Menu index of the utility-maximizing message (deterministic)."""
    if not menu:
        raise ValueError("menu must be nonempty")
    return _argmax_with_tiebreak(menu, utility_table(o, menu, interpret))


def best_message(o: Observation, menu: Sequence[Message],
                 interpret: Callable[[Message], Dist]) -> Message:
    """The utility-maximizing message; ties go vague-first then lowest index."""
    return menu[best_index(o, menu, interpret)]


def softmax_speaker(o: Observation, menu: Sequence[Message],
                    interpret: Callable[[Message], Dist], lam: float) -> Dist:
    """Softmax lottery over menu indices: P(i) proportional to exp(lam*u_i).

    -inf utilities get probability 0. The support always contains the
    hard-max choice, and raising lam concentrates mass on it.
    """
    if not menu:
        raise ValueError("menu must be nonempty")
    u = utility_table(o, menu, interpret)
    if np.max(u) == -math.inf:
        raise NoTruthfulMessage("every message violates truthfulness for this observation")
    return Dist(np.arange(len(menu), dtype=float), softmax(u, lam))
