"""Finite common-interest sender-receiver games.

One shared payoff table over states and actions; the sender observes the
state and picks a message, the receiver picks an action on hearing it.
This module provides expected payoff, Nash verification with deviation
witnesses, exhaustive pure-equilibrium enumeration, generation and
dominance-checking of mixed-equilibrium candidates (no verified mixed
equilibrium should beat the best pure one), message-meaning extraction
(partition vs cover), and precision relative to a question partition,
including a constructive "precisify" that lines messages up with cells.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .prob import _is_pure, _stochastic_rows

__all__ = [
    "Game",
    "MixedProfile",
    "ProfileStack",
    "Deviation",
    "NashResult",
    "expected_payoff",
    "is_nash",
    "enumerate_pure_equilibria",
    "pure_profile",
    "babbling_profile",
    "generate_mixed_candidates",
    "mixed_dominance_check",
    "dominance_batch",
    "random_game",
    "speaker_meaning",
    "SpeakerMeaning",
    "question_precision",
    "PrecisionReport",
    "precisify",
    "DimensionMismatch",
    "BudgetExceeded",
    "MissingQuestion",
    "NotEnoughMessages",
    "PreferenceHeterogeneity",
]

_TOL = 1e-9
ENUMERATION_BUDGET = 10 ** 7
_TIE_TOL = 1e-12  # best-reply ties in the candidate generators
_DYNAMICS = (6, 80, 0.5)  # random starts, damped steps per start, damping eta
# _dynamics_candidates takes each stride's damped path in one exact running
# sum, which needs a step to halve the old point
assert 1 - _DYNAMICS[2] == 0.5
_MAX_CANDIDATES, _CANDIDATE_QUANTUM = 200, 1e-9  # kept candidates; dedupe rounding
_RECEIVER_BLOCK = 256  # receiver maps per batch in the enumeration and support candidates
_SENDER_BLOCK = 1024  # sender maps checked per batch in enumerate_pure_equilibria
_RESULT_BUDGET = 100_000  # pure equilibria enumerate_pure_equilibria may return
_BATCH_SIZES = (4, 3, 4)  # largest states, messages, actions in dominance_batch
_Pair = tuple[np.ndarray, np.ndarray]  # (sender, receiver) of a candidate, or stacks of them


class DimensionMismatch(ValueError):
    """Profile shape does not match the game."""


class BudgetExceeded(RuntimeError):
    """Pure-profile space larger than the enumeration budget."""


class MissingQuestion(ValueError):
    """The operation needs a question partition and the game has none."""


class NotEnoughMessages(ValueError):
    """Fewer messages than question cells."""


class PreferenceHeterogeneity(ValueError):
    """States in one question cell rank actions differently."""


@dataclass(frozen=True, eq=False)
class Game:
    states: tuple
    prior: np.ndarray
    messages: tuple
    actions: tuple
    payoff: np.ndarray  # shape (n_states, n_actions), shared by both players
    question: tuple[tuple[int, ...], ...] | None = None  # cells of state indices

    def __post_init__(self) -> None:
        states = tuple(self.states)
        messages = tuple(self.messages)
        actions = tuple(self.actions)
        prior = np.array(self.prior, dtype=float)
        payoff = np.array(self.payoff, dtype=float)
        if not states or not messages or not actions:
            raise ValueError("states, messages and actions must be nonempty")
        if prior.shape != (len(states),) or np.any(prior < 0) or not np.any(prior > 0):
            raise ValueError("prior must be nonnegative over states with positive total")
        if abs(float(prior.sum()) - 1.0) > _TOL:
            raise ValueError(f"prior sums to {prior.sum()!r}, expected 1")
        if payoff.shape != (len(states), len(actions)) or not np.all(np.isfinite(payoff)):
            raise ValueError("payoff must be a finite states x actions table")
        question = self.question
        if question is not None:
            cells = tuple(tuple(int(i) for i in cell) for cell in question)
            flat = sorted(i for cell in cells for i in cell)
            if any(not cell for cell in cells) or flat != list(range(len(states))):
                raise ValueError("question must partition the state indices")
            question = cells
        prior.setflags(write=False)
        payoff.setflags(write=False)
        for name, value in (("states", states), ("prior", prior), ("messages", messages),
                            ("actions", actions), ("payoff", payoff), ("question", question)):
            object.__setattr__(self, name, value)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_messages(self) -> int:
        return len(self.messages)

    @property
    def n_actions(self) -> int:
        return len(self.actions)


@dataclass(frozen=True, eq=False)
class MixedProfile:
    """sender: states x messages, receiver: messages x actions; rows stochastic."""

    sender: np.ndarray
    receiver: np.ndarray

    def __post_init__(self) -> None:
        for name in ("sender", "receiver"):
            object.__setattr__(self, name, _stochastic_rows(getattr(self, name), name))
        if self.sender.shape[1] != self.receiver.shape[0]:
            raise DimensionMismatch("sender columns must match receiver rows")

    @property
    def is_pure(self) -> bool:
        return _is_pure(self.sender) and _is_pure(self.receiver)


def _wrap(sender: np.ndarray, receiver: np.ndarray) -> MixedProfile:
    """A MixedProfile around two rows of checked, read-only stacks."""
    p = object.__new__(MixedProfile)
    object.__setattr__(p, "sender", sender)
    object.__setattr__(p, "receiver", receiver)
    return p


class ProfileStack(Sequence):
    """An immutable sequence of profiles held as a (K, S, M) sender and a
    (K, M, A) receiver stack, both read-only.

    Every row is checked once, as MixedProfile(senders[i], receivers[i])
    would check it. ``stack[i]`` builds that profile on demand around
    read-only slices of the stacks, so two reads give two objects; a slice
    is a ProfileStack. ``+`` with a ProfileStack, list or tuple on either
    side gives a list, as list + list does. A ProfileStack equals a
    sequence of profiles with the same entries in the same order; like a
    list, it is unhashable.
    """

    __slots__ = ("senders", "receivers")

    def __init__(self, senders, receivers) -> None:
        for name, stack in zip(self.__slots__, (senders, receivers)):
            stack = np.asarray(stack)
            if stack.ndim != 3:
                raise ValueError(f"{name} must be a 3-d stack")
            rows = _stochastic_rows(stack.reshape(-1, stack.shape[-1]), name[:-1])
            object.__setattr__(self, name, rows.reshape(stack.shape))
        if self.senders.shape[-1] != self.receivers.shape[-2]:
            raise DimensionMismatch("sender columns must match receiver rows")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"a ProfileStack is immutable: cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.senders)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ProfileStack(self.senders[i], self.receivers[i])
        i = operator.index(i)
        return _wrap(self.senders[i], self.receivers[i])

    def __iter__(self) -> Iterator[MixedProfile]:
        return map(_wrap, self.senders, self.receivers)

    def __add__(self, other):
        return [*self, *other] if isinstance(other, (ProfileStack, list, tuple)) else NotImplemented

    def __radd__(self, other):
        return [*other, *self] if isinstance(other, (list, tuple)) else NotImplemented

    def __eq__(self, other):  # entry by entry: MixedProfile itself compares by identity
        if not isinstance(other, (ProfileStack, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            isinstance(q, MixedProfile) and np.array_equal(p.sender, q.sender)
            and np.array_equal(p.receiver, q.receiver) for p, q in zip(self, other))

    __hash__ = None

    def __reduce__(self):  # for copy and pickle, which would set the attributes
        return ProfileStack, (self.senders, self.receivers)


def _one_hot(indices, n: int) -> np.ndarray:
    """Rows of the n x n identity picked by indices (any shape)."""
    return np.eye(n)[np.asarray(indices)]


def _row_max(values: np.ndarray) -> np.ndarray:
    """Each row's maximum, taken column by column: exact, and far faster on
    a stack than a reduction along the short last axis, which loops per row."""
    best = values[..., 0]
    for j in range(1, values.shape[-1]):
        best = np.maximum(best, values[..., j])
    return best


def _row_count(mask: np.ndarray) -> np.ndarray:
    """Each row's True entries, counted column by column as _row_max goes."""
    count = mask[..., 0].astype(np.int64)
    for j in range(1, mask.shape[-1]):
        count += mask[..., j]
    return count


def _near_best(values: np.ndarray, tol: float) -> np.ndarray:
    """Mask of each row's entries within tol of the row maximum."""
    return values >= _row_max(values)[..., None] - tol


def _uniform_over(mask: np.ndarray) -> np.ndarray:
    """Each row spread evenly over its True entries."""
    return mask / _row_count(mask)[..., None]


def _check_dims(g: Game, p: MixedProfile) -> None:
    if p.sender.shape != (g.n_states, g.n_messages) or \
            p.receiver.shape != (g.n_messages, g.n_actions):
        raise DimensionMismatch(
            f"profile shapes {p.sender.shape}/{p.receiver.shape} do not fit game "
            f"({g.n_states} states, {g.n_messages} messages, {g.n_actions} actions)")


def expected_payoff(g: Game, p: MixedProfile) -> float:
    """Prior-weighted payoff of playing the profile."""
    _check_dims(g, p)
    outcome = p.sender @ p.receiver  # (states, actions)
    return float(g.prior @ (outcome * g.payoff).sum(axis=1))


@dataclass(frozen=True)
class Deviation:
    """A profitable unilateral change, as evidence against equilibrium."""

    role: str  # "sender" or "receiver"
    at: int  # state index (sender) or message index (receiver)
    switch_to: int  # message index (sender) or action index (receiver)
    current: float
    improved: float

    @property
    def gain(self) -> float:
        return self.improved - self.current


@dataclass(frozen=True)
class NashResult:
    ok: bool
    witness: Deviation | None = None

    def __bool__(self) -> bool:
        return self.ok


def _sender_values(g: Game, receiver: np.ndarray) -> np.ndarray:
    """SV[..., s, m] = payoff to state s of sending m, given the receiver
    (any leading batch axes)."""
    return g.payoff @ np.swapaxes(receiver, -1, -2)


def _bayes(g: Game, sender: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Message use, and each message's action values under its posterior.

    Takes a sender with any leading batch axes; unused messages get the
    prior's action values. The posteriors are stacked as C-contiguous rows
    and multiplied as a batch of 1 x S matrices: this rounds exactly as
    each posterior @ payoff does alone, in a batch of senders as for one
    sender, which matters because exact ties feed argmax.
    """
    use = g.prior @ sender
    used = use > 0
    post = np.multiply(np.swapaxes(sender, -1, -2), g.prior, order="C")  # (..., M, S)
    post /= np.where(used, use, 1.0)[..., None]
    values = (post[..., None, :] @ g.payoff)[..., 0, :]
    if not used.all():
        values[~used] = g.prior @ g.payoff
    return use, values


def _first_gain(role: str, values: np.ndarray, current: np.ndarray,
                active: np.ndarray, tol: float) -> Deviation | None:
    """The first active row whose best entry beats its current value by tol."""
    best = values.argmax(axis=1)
    improved = values[np.arange(len(best)), best]
    hits = np.flatnonzero(active & (improved > current + tol))
    if not hits.size:
        return None
    i = hits[0]
    return Deviation(role, int(i), int(best[i]), float(current[i]), float(improved[i]))


def is_nash(g: Game, p: MixedProfile, tol: float = _TOL) -> NashResult:
    """No positive-prior state and no positively-used message can deviate
    for a gain above tol; on failure the first witness found is returned."""
    _check_dims(g, p)
    sv = _sender_values(g, p.receiver)
    witness = _first_gain("sender", sv, (p.sender * sv).sum(axis=1), g.prior > 0, tol)
    if witness is None:
        use, values = _bayes(g, p.sender)
        got = (values[:, None, :] @ p.receiver[:, :, None])[:, 0, 0]
        witness = _first_gain("receiver", values, got, use > 0, tol)
    return NashResult(witness is None, witness)


def pure_profile(g: Game, sender_map: Sequence[int], receiver_map: Sequence[int]) -> MixedProfile:
    """Build the 0/1 profile for pure maps state->message and message->action."""
    p = MixedProfile(_one_hot(sender_map, g.n_messages), _one_hot(receiver_map, g.n_actions))
    _check_dims(g, p)
    return p


def _receiver_map_blocks(g: Game) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pure receiver map, in itertools.product order and in blocks of
    up to _RECEIVER_BLOCK, with the sender values under each map of the
    block: sv[r, s, m] = payoff[s, maps[r, m]].

    The blocks are made as they are read, so a caller that stops early
    never builds the rest. sv equals _sender_values of the one-hot receiver
    exactly: that product only adds exact zeros to the picked payoff, which
    turns a -0.0 into 0.0, as adding 0.0 does here.
    """
    product = itertools.product(range(g.n_actions), repeat=g.n_messages)
    while block := list(itertools.islice(product, _RECEIVER_BLOCK)):
        maps = np.array(block)
        yield maps, np.moveaxis(g.payoff[:, maps], 0, 1) + 0.0


def _check_nominal(g: Game, budget: int) -> None:
    nominal = g.n_messages ** g.n_states * g.n_actions ** g.n_messages
    if nominal > budget:
        raise BudgetExceeded(f"{nominal} pure profiles exceed budget {budget}")


def _check_result(count: int) -> None:
    if count > _RESULT_BUDGET:
        raise BudgetExceeded(f"pure equilibria exceed the result budget {_RESULT_BUDGET}")


def _allowed_messages(g: Game, sv: np.ndarray, tol: float) -> np.ndarray:
    """allowed[r, s, m]: under receiver map r, state s may send m in a pure
    equilibrium. Positive-prior states must send within tol of their best
    value; zero-prior states are unconstrained."""
    return _near_best(sv, tol) | (g.prior <= 0)[:, None]


def _sender_blocks(g: Game, tol: float, maps: np.ndarray,
                   allowed: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pure equilibria of one receiver-map block, checking up to
    _SENDER_BLOCK sender maps at a time: yields, for each such batch, the
    block rows r of the receiver maps and the (n, S) sender maps of its
    equilibria, in the order receiver map, then sender map (itertools.product
    order over each state's allowed messages)."""
    states = np.arange(g.n_states)
    weighted = g.prior[:, None] * g.payoff
    counts = _row_count(allowed)  # (receiver maps, states)
    picks = np.argsort(~allowed, axis=-1, kind="stable")  # allowed messages first
    # sender maps per receiver map, in Python ints where the block may allow
    # 2^63 or more of them (a budget past 10^19), which would wrap in int64
    wide = g.n_messages ** g.n_states * len(maps) >= 2 ** 63
    sizes = counts.prod(axis=-1, dtype=object if wide else None)
    starts, total = np.cumsum(sizes) - sizes, int(sizes.sum())
    for first in range(0, total, _SENDER_BLOCK):
        # each receiver map's sender maps in itertools.product order: a
        # mixed-radix count over the allowed sets, the last state fastest
        pair = np.arange(first, min(first + _SENDER_BLOCK, total))
        r = np.searchsorted(starts, pair, side="right") - 1
        rank = (pair - starts[r]).astype(np.int64, copy=False)  # at most pair: exact
        digits = np.empty((len(r), g.n_states), dtype=int)
        for s in reversed(states):
            rank, digits[:, s] = np.divmod(rank, counts[r, s])
        senders = picks[r[:, None], states, digits]
        # the receiver must answer each used message with a Bayes best
        # action; values are unnormalised, so tol scales with use and
        # unused messages (all values 0) never fail
        sent = np.swapaxes(_one_hot(senders, g.n_messages), 1, 2)  # (maps, messages, states)
        values = sent @ weighted
        answered = np.take_along_axis(values, maps[r][..., None], axis=2)[..., 0]
        ok = ~np.any(_row_max(values) > answered + tol * (sent @ g.prior), axis=1)
        yield r[ok], senders[ok]


def _pure_payoffs(g: Game, sv: np.ndarray, r: np.ndarray, senders: np.ndarray) -> np.ndarray:
    """Payoff of each pure profile (receiver map r of the block, sender map);
    a running sum adds the states in order, as a plain sum would."""
    return np.cumsum(g.prior * sv[r[:, None], np.arange(g.n_states), senders], axis=1)[:, -1]


def enumerate_pure_equilibria(g: Game, tol: float = _TOL,
                              budget: int = ENUMERATION_BUDGET
                              ) -> list[tuple[MixedProfile, float]]:
    """All pure Nash profiles with payoffs, best first.

    The nominal search space |M|^|S| * |A|^|M| is bounded by the budget;
    internally the sender side is pruned to per-state argmax sets, which
    is exhaustive because any pure equilibrium sender must best-respond.
    More than _RESULT_BUDGET equilibria raise BudgetExceeded before any
    profile is built.
    """
    _check_nominal(g, budget)
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    accepted = 0
    for maps, sv in _receiver_map_blocks(g):
        for r, senders in _sender_blocks(g, tol, maps, _allowed_messages(g, sv, tol)):
            accepted += len(r)
            _check_result(accepted)
            found.append((senders, maps[r], _pure_payoffs(g, sv, r, senders)))
    senders, receivers, payoffs = map(np.concatenate, zip(*found))
    order = np.lexsort((*receivers.T[::-1], *senders.T[::-1], -payoffs))
    # boolean one-hot rows: ProfileStack makes the float copies it keeps
    profiles = ProfileStack(np.eye(g.n_messages, dtype=bool)[senders[order]],
                            np.eye(g.n_actions, dtype=bool)[receivers[order]])
    return list(zip(profiles, payoffs[order].tolist()))


def _answer_table(g: Game, tol: float) -> np.ndarray:
    """ok[T, a]: a receiver may answer a message sent by exactly the states
    of T (bit s for state s) with action a, as _sender_blocks tests it.

    Each subset's action values and prior mass add its states lowest
    first, built in S doubling steps; the one-hot product in _sender_blocks
    adds them in the same order, since its 0/1 factors add exact zeros. The
    empty subset passes with every action.
    """
    sums = np.zeros((1, g.n_actions + 1))
    for row in np.column_stack((g.prior[:, None] * g.payoff, g.prior)):
        sums = np.concatenate((sums, sums + row))
    values, mass = sums[:, :-1], sums[:, -1:]
    return ~(_row_max(values)[:, None] > values + tol * mass)


@functools.cache
def _subset_pairs(n_states: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of state subsets T <= U, grouped by U in increasing order:
    U ^ T, T, and the index where each U's group starts."""
    subsets = np.arange(2 ** n_states)
    u, t = np.nonzero(subsets[:, None] & subsets == subsets)
    return u ^ t, t, np.flatnonzero(np.diff(u, prepend=-1))


def _count_by_subsets(g: Game, tol: float, maps: np.ndarray, sv: np.ndarray,
                      allowed: np.ndarray) -> tuple[int, float]:
    """The number of pure equilibria over one receiver-map block, and the
    best pure payoff, by a subset DP that builds no sender map.

    A sender map splits the states into one subset per message, and is an
    equilibrium when each subset T sent m lies in m's allowed states and
    passes _answer_table's [T, maps[r, m]]. So f_m[U], the ways to split U
    over the first m + 1 messages, is the sum over T <= U of f_(m-1)[U ^ T]
    times whether T may send m; the count is f_(M-1) of all states. Each
    f_m is capped at _RESULT_BUDGET + 1, which keeps it in int64 and leaves
    every count up to the result budget exact. The best payoff is the
    common-interest optimum over the block: every state sends a best
    message, with the arithmetic of _pure_payoffs.
    """
    full = 2 ** g.n_states - 1
    subsets = np.arange(full + 1)
    bits = (1 << np.arange(g.n_states)) @ allowed  # (maps, messages): each one's allowed states
    # may_send[r, m, T]: T lies in m's allowed states and may be answered maps[r, m]
    may_send = _answer_table(g, tol).T[maps] & (subsets & ~bits[..., None] == 0)
    rest, part, starts = _subset_pairs(g.n_states)
    ways = may_send[:, 0].astype(np.int64)
    for m in range(1, g.n_messages - 1):
        ways = np.add.reduceat(ways[:, rest] * may_send[:, m, part], starts, axis=1)
        np.minimum(ways, _RESULT_BUDGET + 1, out=ways)
    if g.n_messages > 1:  # only U = all states is needed: f[full ^ T] is f reversed
        count = int((ways[:, ::-1] * may_send[:, -1]).sum())
    else:
        count = int(ways[:, full].sum())
    best = np.cumsum(g.prior * _row_max(sv), axis=1)[:, -1].max()
    return count, float(best)


def _count_by_blocks(g: Game, tol: float, maps: np.ndarray, sv: np.ndarray,
                     allowed: np.ndarray, counted: int = 0) -> tuple[int, float]:
    """The number of pure equilibria over one receiver-map block, and the
    best one's payoff (-inf if none), from _sender_blocks without building
    profiles; raises the result budget's BudgetExceeded as soon as counted
    plus this count passes it."""
    count, best = 0, -math.inf
    for r, senders in _sender_blocks(g, tol, maps, allowed):
        count += len(r)
        _check_result(counted + count)
        if len(r):
            best = max(best, float(_pure_payoffs(g, sv, r, senders).max()))
    return count, best


def _count_pure_equilibria(g: Game, tol: float = _TOL,
                           budget: int = ENUMERATION_BUDGET) -> tuple[int, float]:
    """len(enumerate_pure_equilibria(g, tol, budget)) and its [0][1], with its
    errors, without building a profile.

    Each receiver-map block takes the subset DP when its (map, U, T) triples
    for one message fit in _RECEIVER_BLOCK * _SENDER_BLOCK slots; past that
    the sender-map blocks, which stop at the result budget, bound the
    memory. Timed per block on the dominance-games sizes and on games of 6
    to 10 states, the DP was never more than 1.1x slower than the blocks
    wherever it fits, and up to 70x faster (BENCH_count_and_best.json).
    """
    _check_nominal(g, budget)
    fits = _RECEIVER_BLOCK * _SENDER_BLOCK // 3 ** g.n_states  # receiver maps the DP may take
    count, best = 0, -math.inf
    for maps, sv in _receiver_map_blocks(g):
        allowed = _allowed_messages(g, sv, tol)
        if len(maps) <= fits:
            block_count, block_best = _count_by_subsets(g, tol, maps, sv, allowed)
        else:
            block_count, block_best = _count_by_blocks(g, tol, maps, sv, allowed, count)
        count += block_count
        _check_result(count)
        best = max(best, block_best)
    return count, best


def _receiver_best_reply(g: Game, sender: np.ndarray) -> np.ndarray:
    """Bayes best reply to a sender, lowest action index on ties; unused
    messages answer the full prior."""
    _, values = _bayes(g, sender)
    return _one_hot(values.argmax(axis=-1), g.n_actions)


def _babbling(g: Game) -> tuple[np.ndarray, np.ndarray]:
    sender = np.full((g.n_states, g.n_messages), 1.0 / g.n_messages)
    return sender, _receiver_best_reply(g, sender)


def babbling_profile(g: Game) -> MixedProfile:
    """Uniform sender everywhere; receiver best-responds to the prior.

    Always an equilibrium in a common-interest game: every message leads
    to the same action, so the sender is indifferent, and every posterior
    equals the prior, so the receiver is optimal.
    """
    return MixedProfile(*_babbling(g))


def _support_enumeration_candidates(g: Game) -> Iterator[_Pair]:
    """Mixed candidates built from sender indifference under pure receivers.

    For each pure receiver map, states whose best messages tie (within
    _TIE_TOL) may mix arbitrarily over the tied set; we emit uniform and
    two skewed weightings, paired both with that receiver and with the
    exact Bayes reply to the mixed sender. Yields (n, S, M) sender and
    (n, M, A) receiver stacks of at most _MAX_CANDIDATES pairs, in the order
    receiver map, weighting, then receiver before reply.
    """
    for maps, sv in _receiver_map_blocks(g):
        tied = _near_best(sv, _TIE_TOL)
        counts = _row_count(tied)[..., None]
        mixing = np.flatnonzero(np.any(counts != 1, axis=(1, 2)))
        if not mixing.size:
            continue
        tied, counts = tied[mixing, None], counts[mixing, None]  # (mixing maps, 1, S, ...)
        # a two-way tie gets weight w on its lower message; wider ties are uniform
        lower = _one_hot(tied.argmax(axis=-1), g.n_messages) == 1
        w = np.array([0.5, 0.25, 0.75])[:, None, None]
        senders = np.where(counts == 2, np.where(lower, w, 1.0 - w) * tied, _uniform_over(tied))
        replies = _receiver_best_reply(g, senders).reshape(-1, g.n_messages, g.n_actions)
        receiver_maps = np.repeat(maps[mixing], senders.shape[1], axis=0)  # one per weighting
        senders = senders.reshape(-1, g.n_states, g.n_messages)
        # each sender makes two pairs: stacks of at most _MAX_CANDIDATES pairs
        # keep the memory of a block's pairs and their dedupe keys small
        for first in range(0, len(senders), _MAX_CANDIDATES // 2):
            part = slice(first, first + _MAX_CANDIDATES // 2)
            receivers = np.stack([_one_hot(receiver_maps[part], g.n_actions), replies[part]],
                                 axis=1)
            yield (np.repeat(senders[part], 2, axis=0),
                   receivers.reshape(-1, g.n_messages, g.n_actions))


def _dynamics_candidates(g: Game, rng: np.random.Generator) -> Iterator[_Pair]:
    """Damped best-response dynamics from random interior starts.

    The starts are drawn one after another, sender then receiver, and run
    together as stacks. A damped step moves the receiver by eta toward the
    uniform spread over its Bayes near-best actions (mask mr), then the
    sender toward the spread over its near-best messages under the new
    receiver (mask ms). The masks rarely change, so the steps run in
    strides: after one plain step, the next n steps are built as if both
    masks held, the true masks of all n are taken in one stacked pass, and
    the longest prefix that kept both masks is accepted; n doubles after a
    full success and restarts at 4 after a mismatch, whose plain step reuses
    the receiver mask the pass already took. An accepted step used a plain
    step's masks and arithmetic, and the stacked kernels round each slice
    as alone, so the result equals the step-by-step loop bit for bit. Every
    pass advances at least one step.

    With 1 - eta = 1/2, the steps x_(k+1) = x_k / 2 + p of a stride are
    x_k = (x_0 + 2p + 4p + ... + 2^k p) / 2^k, a running sum taken in one
    pass: scaling by a power of two commutes with rounding, so each x_k
    equals the step-by-step value bit for bit.

    After the damped phase, the sender is polished onto exact argmax
    supports (keeping relative mass) and the receiver is recomputed as an
    exact best reply, so stable rest points come out as clean candidates.
    Yields one (starts, S, M) sender and (starts, M, A) receiver stack.
    """
    starts, steps, eta = _DYNAMICS
    senders, receivers = [], []
    for _ in range(starts):
        sender = rng.random((g.n_states, g.n_messages)) + 1e-3
        senders.append(sender / sender.sum(axis=1, keepdims=True))
        receiver = rng.random((g.n_messages, g.n_actions)) + 1e-3
        receivers.append(receiver / receiver.sum(axis=1, keepdims=True))
    sender, receiver = np.stack(senders), np.stack(receivers)
    done, stride = 0, 4
    mr = _near_best(_bayes(g, sender)[1], _TIE_TOL)
    while done < steps:
        # a plain step, whose masks and pushes the next stride reuses
        push_r = eta * _uniform_over(mr)
        receiver = (1 - eta) * receiver + push_r
        ms = _near_best(_sender_values(g, receiver), _TIE_TOL)
        push_s = eta * _uniform_over(ms)
        sender = (1 - eta) * sender + push_s
        done += 1
        push = np.concatenate((push_s, push_r), axis=None)
        while done < steps:
            n = min(stride, steps - done)
            # one row per step: the sender's entries, then the receiver's
            scale = 2.0 ** np.arange(n + 1)[:, None]
            path = scale * push
            path[0] = np.concatenate((sender, receiver), axis=None)
            np.add.accumulate(path, axis=0, out=path)
            path /= scale
            sender_path = path[:, :sender.size].reshape(n + 1, *sender.shape)
            receiver_path = path[:, sender.size:].reshape(n + 1, *receiver.shape)
            # step k holds if sender_path[k] gives mr and the receiver it made,
            # receiver_path[k + 1], gives ms
            true_r = _near_best(_bayes(g, sender_path[:n])[1], _TIE_TOL)
            same_s = _near_best(_sender_values(g, receiver_path[1:]), _TIE_TOL) == ms
            held = (true_r == mr).reshape(n, -1).all(axis=1) & same_s.reshape(n, -1).all(axis=1)
            kept = n if held.all() else int(held.argmin())
            sender, receiver = sender_path[kept], receiver_path[kept]
            done += kept
            if kept < n:
                mr, stride = true_r[kept], 4
                break
            stride *= 2
    # polish: restrict each sender row to its exact argmax support; with
    # eta < 1 the damped sender stays interior, so every support keeps mass
    mass = sender * _near_best(_sender_values(g, _receiver_best_reply(g, sender)), _TIE_TOL)
    polished = mass / mass.sum(axis=-1, keepdims=True)
    yield polished, _receiver_best_reply(g, polished)


def _dedupe_keys(senders: np.ndarray, receivers: np.ndarray) -> list[bytes]:
    """One key per pair of a nonempty (n, S, M) sender and (n, M, A) receiver
    stack: the pair's entries rounded to multiples of _CANDIDATE_QUANTUM,
    as the bytes of one int64 row."""
    n = len(senders)
    rounded = np.round(np.concatenate((senders.reshape(n, -1), receivers.reshape(n, -1)), axis=1)
                       / _CANDIDATE_QUANTUM).astype(np.int64)
    return rounded.view(np.dtype((np.void, rounded.shape[1] * 8))).ravel().tolist()


def generate_mixed_candidates(g: Game, rng: np.random.Generator) -> ProfileStack:
    """Candidate mixed equilibria from both generators, deduplicated.

    Exhaustive mixed enumeration is impossible, so the pure-dominance
    property is checked over this generated family: the babbling profile,
    sender-indifference supports under every pure receiver, and
    best-response dynamics rest points, in that order. Each generator hands
    over stacks of pairs, and each stack is rounded once for the dedupe
    keys; a pair is kept when no earlier pair had its key, up to
    _MAX_CANDIDATES, and the generators stop at that cap. The kept pairs
    come back as one ProfileStack, checked once, which mixed_dominance_check
    reads as arrays without building a profile.
    """
    babbling = tuple(m[None] for m in _babbling(g))
    kept: list[_Pair] = []
    seen: set[bytes] = set()
    for senders, receivers in itertools.chain([babbling], _support_enumeration_candidates(g),
                                              _dynamics_candidates(g, rng)):
        for key, sender, receiver in zip(_dedupe_keys(senders, receivers), senders, receivers):
            if key not in seen:
                seen.add(key)
                kept.append((sender, receiver))
                if len(kept) >= _MAX_CANDIDATES:
                    break
        if len(kept) >= _MAX_CANDIDATES:
            break
    return ProfileStack(*map(np.stack, zip(*kept)))


@dataclass(frozen=True)
class CandidateVerdict:
    index: int
    payoff: float
    nash: bool
    support_spread: float  # worst within-support payoff spread over states
    verdict: str  # "PASS", "FAIL", or "NOT-EQUILIBRIUM"


@dataclass(frozen=True)
class DominanceReport:
    best_pure_payoff: float
    n_pure_equilibria: int
    entries: tuple[CandidateVerdict, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.verdict == "PASS" for e in self.entries if e.verdict != "NOT-EQUILIBRIUM")

    @property
    def n_verified(self) -> int:
        return sum(1 for e in self.entries if e.verdict != "NOT-EQUILIBRIUM")


def mixed_dominance_check(g: Game, candidates: Sequence[MixedProfile],
                          tol: float = 1e-7, budget: int = ENUMERATION_BUDGET
                          ) -> DominanceReport:
    """Check that no verified mixed equilibrium beats the best pure one.

    Each candidate is Nash-verified first, as is_nash(g, p, tol).ok would;
    non-equilibria are listed but excluded from the dominance claim.
    Verified equilibria must have payoff <= best pure payoff + tol and
    equal payoffs across each positive-prior state's sent support (within
    tol).

    The check needs two numbers of the pure side, so it counts the pure
    equilibria and takes the best payoff, equal to len and [0][1] of
    enumerate_pure_equilibria(g, budget=budget), without listing them; it
    raises the same BudgetExceeded errors. The count runs before any
    candidate is read; a candidate that does not fit the game then raises
    DimensionMismatch.

    All candidates are checked at once, as a (K, S, M) sender and a
    (K, M, A) receiver stack, with a fixed number of array operations; a
    ProfileStack is read as its stacks.
    Every product of two candidate-sized arrays is taken per slice, as one
    profile's would be, so each payoff equals expected_payoff(g, p) and
    each verdict is_nash's bit for bit, exact ties included.
    """
    if not candidates:
        raise ValueError("candidates must be nonempty")
    n_pure, best_pure = _count_pure_equilibria(g, budget=budget)
    if not n_pure:
        raise RuntimeError("no pure equilibrium found; enumeration is broken")
    if isinstance(candidates, ProfileStack):
        senders, receivers = candidates.senders, candidates.receivers
        if senders.shape[1:] != (g.n_states, g.n_messages) or \
                receivers.shape[1:] != (g.n_messages, g.n_actions):
            _check_dims(g, candidates[0])
    else:
        for p in candidates:
            _check_dims(g, p)
        senders = np.stack([p.sender for p in candidates])
        receivers = np.stack([p.receiver for p in candidates])
    # one prior-weighted dot product per candidate, as in expected_payoff;
    # a single matrix-vector product over the stack may round differently
    rows = ((senders @ receivers) * g.payoff).sum(axis=-1)
    payoffs = (g.prior @ rows[..., None])[:, 0]
    # is_nash's two conditions: no positive-prior state gains by switching
    # messages, and no used message's action gains under its posterior
    sv = _sender_values(g, receivers)
    sender_gain = _row_max(sv) > (senders * sv).sum(axis=-1) + tol
    use, values = _bayes(g, senders)
    got = (values[..., None, :] @ receivers[..., None])[..., 0, 0]
    receiver_gain = _row_max(values) > got + tol
    nash = (~np.any(sender_gain & (g.prior > 0), axis=-1)
            & ~np.any(receiver_gain & (use > 0), axis=-1))
    # the largest payoff gap inside any positive-prior state's sent support
    supported = (senders > 0) & (g.prior > 0)[:, None]
    spreads = np.max(np.where(supported, sv, -np.inf).max(axis=-1)
                     - np.where(supported, sv, np.inf).min(axis=-1), axis=-1, initial=0.0)
    passed = (payoffs <= best_pure + tol) & (spreads <= tol)
    entries = []
    for i, (payoff, ok, spread, good) in enumerate(zip(payoffs.tolist(), nash.tolist(),
                                                       spreads.tolist(), passed.tolist())):
        if ok:
            entries.append(CandidateVerdict(i, payoff, True, spread, "PASS" if good else "FAIL"))
        else:
            entries.append(CandidateVerdict(i, payoff, False, math.nan, "NOT-EQUILIBRIUM"))
    return DominanceReport(best_pure, n_pure, tuple(entries))


def random_game(seed_parts: Sequence[int], n_states: int, n_messages: int,
                n_actions: int) -> Game:
    """Reproducible random common-interest game with payoffs in [0, 1]."""
    rng = np.random.default_rng(list(seed_parts))
    weights = rng.random(n_states) + 0.05  # keep every state relevant
    prior = weights / weights.sum()
    payoff = rng.random((n_states, n_actions))
    return Game(states=tuple(f"s{i}" for i in range(n_states)),
                prior=prior,
                messages=tuple(f"m{i}" for i in range(n_messages)),
                actions=tuple(f"a{i}" for i in range(n_actions)),
                payoff=payoff)


@dataclass(frozen=True)
class BatchReport:
    n_games: int
    n_candidates: int
    n_verified: int
    failures: tuple[tuple[int, CandidateVerdict], ...]  # (game index, entry)

    @property
    def all_pass(self) -> bool:
        return not self.failures


def dominance_batch(n_games: int, seed: int) -> BatchReport:
    """Run the dominance check over a seeded batch of random games."""
    n_candidates = 0
    n_verified = 0
    failures: list[tuple[int, CandidateVerdict]] = []
    for gi in range(n_games):
        size_rng = np.random.default_rng([seed, gi])
        sizes = [int(size_rng.integers(2, largest + 1)) for largest in _BATCH_SIZES]
        g = random_game([seed, gi, 1], *sizes)
        candidates = generate_mixed_candidates(g, np.random.default_rng([seed, gi, 2]))
        report = mixed_dominance_check(g, candidates)
        n_candidates += len(report.entries)
        n_verified += report.n_verified
        failures.extend((gi, e) for e in report.entries
                        if e.verdict not in ("PASS", "NOT-EQUILIBRIUM"))
    return BatchReport(n_games, n_candidates, n_verified, tuple(failures))


@dataclass(frozen=True)
class SpeakerMeaning:
    """Per-message sets of states sent with positive probability."""

    cells: tuple[tuple[object, tuple], ...]  # (message label, state labels)
    kind: str  # "PARTITION" or "COVER"


def speaker_meaning(g: Game, p: MixedProfile) -> SpeakerMeaning:
    """Invert the sender strategy into per-message state sets.

    A pure sender yields disjoint cells (a partition of the states); any
    mixing puts some state into several cells, producing a proper cover.
    Messages no state sends are omitted.
    """
    _check_dims(g, p)
    sent = p.sender > 0
    cells = tuple((g.messages[m], tuple(itertools.compress(g.states, sent[:, m])))
                  for m in np.flatnonzero(sent.any(axis=0)))
    return SpeakerMeaning(cells, "PARTITION" if _is_pure(p.sender) else "COVER")


@dataclass(frozen=True)
class PrecisionReport:
    verdict: str  # "Precise" or "VagueWrtQuestion"
    cell_priors: tuple[float, ...]
    #: (message label, posterior over question cells), used messages only
    cell_posteriors: tuple[tuple[object, tuple[float, ...]], ...]


def question_precision(g: Game, p: MixedProfile) -> PrecisionReport:
    """Is the sender precise with respect to the game's question?

    Precise means: a pure sender sending every state of any question cell
    to the same message. Mixing is vague by definition, as is any pure
    sender that splits a cell. The report carries the prior mass of each
    cell and, for each message actually used, the posterior mass of each
    cell given the message.
    """
    _check_dims(g, p)
    if g.question is None:
        raise MissingQuestion("game has no question partition")
    picks = p.sender.argmax(axis=1)
    precise = _is_pure(p.sender) and all(np.all(picks[list(cell)] == picks[cell[0]])
                                         for cell in g.question)
    use = g.prior @ p.sender
    used = np.flatnonzero(use > 0)
    # column 0 is the prior, then one posterior column per used message;
    # a plain sum of a cell's rows adds its states in the cell's order
    masses = np.column_stack([g.prior, g.prior[:, None] * p.sender[:, used] / use[used]])
    per_cell = np.array([sum(masses[list(cell)]) for cell in g.question])
    posteriors = tuple((g.messages[m], tuple(map(float, column)))
                       for m, column in zip(used, per_cell[:, 1:].T))
    return PrecisionReport("Precise" if precise else "VagueWrtQuestion",
                           tuple(map(float, per_cell[:, 0])), posteriors)


def _same_preferences(g: Game, cell: Sequence[int]) -> bool:
    """True iff all states in the cell rank actions identically, ties included."""
    base = g.payoff[cell[0]]
    base_sign = np.sign(base[:, None] - base[None, :])
    for s in cell[1:]:
        row = g.payoff[s]
        if not np.array_equal(np.sign(row[:, None] - row[None, :]), base_sign):
            return False
    return True


def precisify(g: Game) -> MixedProfile:
    """Pure profile aligning messages with question cells.

    Cell i sends message i; the receiver answers message i with the
    prior-weighted best action for cell i (uniform weights for zero-prior
    cells), lowest index on ties, and answers unused messages with the
    best action against the full prior. When every cell is
    preference-homogeneous, the cell action is a global optimum for each
    member, so the result is a Nash equilibrium and Precise by
    construction; heterogeneous cells are an error, since the alignment
    construction is only guaranteed under that hypothesis.
    """
    if g.question is None:
        raise MissingQuestion("game has no question partition")
    cells = g.question
    if g.n_messages < len(cells):
        raise NotEnoughMessages(f"{len(cells)} cells but only {g.n_messages} messages")
    for ci, cell in enumerate(cells):
        if not _same_preferences(g, cell):
            raise PreferenceHeterogeneity(f"states in question cell {ci} rank actions differently")
    sender_map = [0] * g.n_states
    for ci, cell in enumerate(cells):
        for s in cell:
            sender_map[s] = ci
    receiver_map = []
    prior_values = g.prior @ g.payoff
    for m in range(g.n_messages):
        if m < len(cells):
            cell = cells[m]
            weights = np.array([g.prior[s] for s in cell])
            if weights.sum() <= 0:
                weights = np.ones(len(cell))
            action_values = (weights / weights.sum()) @ g.payoff[list(cell)]
        else:
            action_values = prior_values
        receiver_map.append(int(np.argmax(action_values)))
    return pure_profile(g, sender_map, receiver_map)
