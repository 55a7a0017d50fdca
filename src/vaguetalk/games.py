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

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .prob import _is_pure, _quantized_key, _stochastic_rows

__all__ = [
    "Game",
    "MixedProfile",
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
_MAX_CANDIDATES, _CANDIDATE_QUANTUM = 200, 1e-9  # kept candidates; dedupe rounding
_BATCH_SIZES = (4, 3, 4)  # largest states, messages, actions in dominance_batch
_Pair = tuple[np.ndarray, np.ndarray]  # (sender, receiver) matrices of a candidate


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


def _one_hot(indices, n: int) -> np.ndarray:
    """Rows of the n x n identity picked by indices (any shape)."""
    return np.eye(n)[np.asarray(indices)]


def _near_best(values: np.ndarray, tol: float) -> np.ndarray:
    """Mask of each row's entries within tol of the row maximum."""
    return values >= values.max(axis=-1, keepdims=True) - tol


def _uniform_over(mask: np.ndarray) -> np.ndarray:
    """Each row spread evenly over its True entries."""
    return mask / mask.sum(axis=1, keepdims=True)


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
    """SV[s, m] = payoff to state s of sending m, given the receiver."""
    return g.payoff @ receiver.T


def _bayes(g: Game, sender: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Message use, and each message's action values under its posterior.

    Unused messages get the prior's action values. The posteriors are
    stacked as C-contiguous rows and multiplied as a batch of 1 x S
    matrices: this rounds exactly as each posterior @ payoff does alone,
    which matters because exact ties feed argmax.
    """
    use = g.prior @ sender
    used = use > 0
    post = np.ascontiguousarray((g.prior[:, None] * sender / np.where(used, use, 1.0)).T)
    values = (post[:, None, :] @ g.payoff)[:, 0, :]
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


def enumerate_pure_equilibria(g: Game, tol: float = _TOL,
                              budget: int = ENUMERATION_BUDGET
                              ) -> list[tuple[MixedProfile, float]]:
    """All pure Nash profiles with payoffs, best first.

    The nominal search space |M|^|S| * |A|^|M| is bounded by the budget;
    internally the sender side is pruned to per-state argmax sets, which
    is exhaustive because any pure equilibrium sender must best-respond.
    """
    nominal = g.n_messages ** g.n_states * g.n_actions ** g.n_messages
    if nominal > budget:
        raise BudgetExceeded(f"{nominal} pure profiles exceed budget {budget}")
    results: list[tuple[tuple[int, ...], tuple[int, ...], float]] = []
    states, messages = np.arange(g.n_states), np.arange(g.n_messages)
    weighted = g.prior[:, None] * g.payoff
    for receiver_map in itertools.product(range(g.n_actions), repeat=g.n_messages):
        sv = _sender_values(g, _one_hot(receiver_map, g.n_actions))
        # positive-prior states must send within tol of their best value;
        # zero-prior states are unconstrained
        allowed = _near_best(sv, tol) | (g.prior <= 0)[:, None]
        maps = np.array(list(itertools.product(*map(np.flatnonzero, allowed))))
        # the receiver must answer each used message with a Bayes best action;
        # values are unnormalised, so tol scales with use and unused messages
        # (all values 0) never fail
        sent = np.swapaxes(_one_hot(maps, g.n_messages), 1, 2)  # (maps, messages, states)
        values = sent @ weighted
        answered = values[:, messages, receiver_map]
        ok = ~np.any(values.max(axis=2) > answered + tol * (sent @ g.prior), axis=1)
        # a running sum adds the states in order, as a plain sum would
        payoffs = np.cumsum(g.prior * sv[states, maps[ok]], axis=1)[:, -1]
        results.extend((tuple(map(int, sm)), receiver_map, float(pay))
                       for sm, pay in zip(maps[ok], payoffs))
    results.sort(key=lambda r: (-r[2], r[0], r[1]))
    return [(pure_profile(g, sm, rm), pay) for sm, rm, pay in results]


def _receiver_best_reply(g: Game, sender: np.ndarray, tie: str = "first") -> np.ndarray:
    """Bayes best reply to a sender; unused messages answer the full prior.

    tie="first" picks the lowest action index; tie="uniform" spreads mass
    over the argmax set (used by the interior dynamics).
    """
    _, values = _bayes(g, sender)
    if tie == "first":
        return _one_hot(values.argmax(axis=1), g.n_actions)
    return _uniform_over(_near_best(values, _TIE_TOL))


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


def _support_enumeration_candidates(g: Game) -> Iterable[_Pair]:
    """Mixed candidates built from sender indifference under pure receivers.

    For each pure receiver map, states whose best messages tie (within
    _TIE_TOL) may mix arbitrarily over the tied set; we emit uniform and
    two skewed weightings, paired both with that receiver and with the
    exact Bayes reply to the mixed sender.
    """
    for receiver_map in itertools.product(range(g.n_actions), repeat=g.n_messages):
        receiver = _one_hot(receiver_map, g.n_actions)
        tied = _near_best(_sender_values(g, receiver), _TIE_TOL)
        counts = tied.sum(axis=1)
        if np.all(counts == 1):
            continue
        # a two-way tie gets weight w on its lower message; wider ties are uniform
        lower = _one_hot(tied.argmax(axis=1), g.n_messages) == 1
        pairs = (counts == 2)[:, None]
        for w in (0.5, 0.25, 0.75):
            sender = np.where(pairs, np.where(lower, w, 1.0 - w) * tied, _uniform_over(tied))
            yield sender, receiver
            yield sender, _receiver_best_reply(g, sender)


def _dynamics_candidates(g: Game, rng: np.random.Generator) -> Iterable[_Pair]:
    """Damped best-response dynamics from random interior starts.

    After the damped phase, the sender is polished onto exact argmax
    supports (keeping relative mass) and the receiver is recomputed as an
    exact best reply, so stable rest points come out as clean candidates.
    """
    starts, steps, eta = _DYNAMICS
    for _ in range(starts):
        sender = rng.random((g.n_states, g.n_messages)) + 1e-3
        sender /= sender.sum(axis=1, keepdims=True)
        receiver = rng.random((g.n_messages, g.n_actions)) + 1e-3
        receiver /= receiver.sum(axis=1, keepdims=True)
        for _ in range(steps):
            receiver = (1 - eta) * receiver + eta * _receiver_best_reply(g, sender, tie="uniform")
            br = _uniform_over(_near_best(_sender_values(g, receiver), _TIE_TOL))
            sender = (1 - eta) * sender + eta * br
        # polish: restrict each sender row to its exact argmax support; with
        # eta < 1 the damped sender stays interior, so every support keeps mass
        mass = sender * _near_best(_sender_values(g, _receiver_best_reply(g, sender)), _TIE_TOL)
        polished = mass / mass.sum(axis=1, keepdims=True)
        yield polished, _receiver_best_reply(g, polished)


def generate_mixed_candidates(g: Game, rng: np.random.Generator) -> list[MixedProfile]:
    """Candidate mixed equilibria from both generators, deduplicated.

    Exhaustive mixed enumeration is impossible, so the pure-dominance
    property is checked over this generated family: sender-indifference
    supports under every pure receiver, best-response dynamics rest
    points, and the babbling profile. Only the pairs kept after
    deduplication are validated as profiles.
    """
    out: list[MixedProfile] = []
    seen: set[bytes] = set()
    for sender, receiver in itertools.chain([_babbling(g)],
                                            _support_enumeration_candidates(g),
                                            _dynamics_candidates(g, rng)):
        key = _quantized_key(_CANDIDATE_QUANTUM, sender, receiver)
        if key not in seen:
            seen.add(key)
            out.append(MixedProfile(sender, receiver))
        if len(out) >= _MAX_CANDIDATES:
            break
    return out


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


def _support_spread(g: Game, p: MixedProfile) -> float:
    """Largest payoff gap inside any positive-prior state's sent support."""
    sv = _sender_values(g, p.receiver)
    supported = (p.sender > 0) & (g.prior > 0)[:, None]
    highest = np.where(supported, sv, -np.inf).max(axis=1)
    lowest = np.where(supported, sv, np.inf).min(axis=1)
    return float(np.max(highest - lowest, initial=0.0))


def mixed_dominance_check(g: Game, candidates: Sequence[MixedProfile],
                          tol: float = 1e-7) -> DominanceReport:
    """Check that no verified mixed equilibrium beats the best pure one.

    Each candidate is Nash-verified first; non-equilibria are listed but
    excluded from the dominance claim. Verified equilibria must have
    payoff <= best pure payoff + tol and equal payoffs across each
    state's sent support (within tol).
    """
    if not candidates:
        raise ValueError("candidates must be nonempty")
    pure = enumerate_pure_equilibria(g)
    if not pure:
        raise RuntimeError("no pure equilibrium found; enumeration is broken")
    best_pure = pure[0][1]
    entries = []
    for i, p in enumerate(candidates):
        payoff = expected_payoff(g, p)
        nash = is_nash(g, p, tol).ok
        if not nash:
            verdict = "NOT-EQUILIBRIUM"
            spread = math.nan
        else:
            spread = _support_spread(g, p)
            dominated = payoff <= best_pure + tol
            indifferent = spread <= tol
            verdict = "PASS" if (dominated and indifferent) else "FAIL"
        entries.append(CandidateVerdict(i, payoff, nash, spread, verdict))
    return DominanceReport(best_pure, len(pure), tuple(entries))


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
