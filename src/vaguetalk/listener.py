"""Level-0 listener: Bayesian update of a joint prior over (x, t).

The listener carries a prior over world values x and, for each vague
message kind, a prior over that kind's open parameter t. Hearing a
message, she conditions the joint on its truth and marginalizes t away,
leaving a posterior over x. Precise messages reduce to
restrict-and-renormalize since their truth ignores t.

Two prior shapes are supported. ``IndependentPrior`` builds the joint as
a product, one t prior per vague kind. ``ExplicitJointPrior`` carries a
full (x, t) probability matrix for a single kind, for experiments where
the independence assumption is dropped.

A menu's rows are built as one matrix, the L0 matrix, in array passes.
One pass over the menu sorts the messages by exact type. Every precise
message is a (lo, hi) interval, so their rows are one mask over the grid.
The "around" messages under an independent prior share broadcast
denotations |x - c| <= t, a block of centres at a time, summed over t one
row at a time so that each row rounds as it does alone. Other messages (thresholds, subclasses, an
explicit joint) are built one at a time.

Every posterior the package serves is a row of that update. The closed
forms for the two uniform textbook cases (``around_closed_form``,
``tall_closed_form``, and ``closed_form_posterior``, which first checks
their uniformity preconditions against an actual prior) are special cases
of it, kept as independent checks: reports and tests ask for them by name,
and scenario mode "closedform" uses only their precondition errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .messages import (Around, AtLeast, AtMost, Between, Exact, Message, Threshold,
                       denotation_vector)
from .prob import Dist, _is_grid, normalize

__all__ = [
    "IndependentPrior",
    "ExplicitJointPrior",
    "JointPrior",
    "literal_update",
    "around_closed_form",
    "tall_closed_form",
    "closed_form_posterior",
    "ZeroPosterior",
    "NonUniformPreconditionViolated",
    "MissingParamPrior",
]

_TOL = 1e-9


class ZeroPosterior(ValueError):
    """The message is false at every positive-prior (x, t) cell."""


class NonUniformPreconditionViolated(ValueError):
    """A closed-form posterior was requested outside its uniform setting."""


class MissingParamPrior(ValueError):
    """No parameter prior is configured for a vague message's kind."""


@dataclass(frozen=True)
class IndependentPrior:
    """Product prior: joint(k, i) = x.probs[k] * t.probs[i] per vague kind."""

    x: Dist
    #: param_kind -> prior over that parameter; precise-only setups pass {}
    t_priors: Mapping[str, Dist] = field(default_factory=dict)

    def t_prior_for(self, m: Message) -> Dist:
        if m.param_kind is None:
            raise ValueError(f"{m.label!r} is precise, no parameter prior applies")
        try:
            return self.t_priors[m.param_kind]
        except KeyError:
            raise MissingParamPrior(f"no t prior configured for kind {m.param_kind!r}") from None


@dataclass(frozen=True)
class ExplicitJointPrior:
    """Full joint over (x, t) for one vague kind, as a probability matrix.

    joint[k, i] = P(x = x_support[k], t = t_support[i]). Rows/columns must
    be nonnegative and sum to 1 overall; marginals are recoverable by
    summation.
    """

    x_support: np.ndarray
    t_support: np.ndarray
    joint: np.ndarray
    param_kind: str = "around"

    def __post_init__(self) -> None:
        xs = np.array(self.x_support, dtype=float)
        ts = np.array(self.t_support, dtype=float)
        j = np.array(self.joint, dtype=float)
        if not (xs.size and ts.size and _is_grid(xs) and _is_grid(ts)):
            raise ValueError("supports must be nonempty, finite and strictly increasing")
        if j.shape != (xs.size, ts.size):
            raise ValueError(f"joint shape {j.shape} does not match supports "
                             f"({xs.size}, {ts.size})")
        if np.any(j < 0) or not np.all(np.isfinite(j)):
            raise ValueError("joint entries must be finite and nonnegative")
        if abs(float(j.sum()) - 1.0) > _TOL:
            raise ValueError(f"joint sums to {j.sum()!r}, expected 1")
        for name, arr in (("x_support", xs), ("t_support", ts), ("joint", j)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def x_marginal(self) -> Dist:
        return normalize(self.joint.sum(axis=1), self.x_support)

    @property
    def t_marginal(self) -> Dist:
        return normalize(self.joint.sum(axis=0), self.t_support)


JointPrior = Union[IndependentPrior, ExplicitJointPrior]


def _message_weights(prior: JointPrior, m: Message, xs: np.ndarray,
                     x_probs: np.ndarray) -> np.ndarray:
    """Unnormalised posterior weights of one message that has no array form."""
    if not m.vague:
        return x_probs * denotation_vector(m, xs)
    if isinstance(prior, IndependentPrior):
        t = prior.t_prior_for(m)
        return x_probs * (denotation_vector(m, xs[:, None], t.support) @ t.probs)
    if m.param_kind == prior.param_kind:
        return (prior.joint * denotation_vector(m, xs[:, None], prior.t_support)).sum(axis=1)
    raise MissingParamPrior(f"joint prior is over kind {prior.param_kind!r}, "
                            f"message needs {m.param_kind!r}")


def _interval_weights(xs: np.ndarray, x_probs: np.ndarray, lows: list[float],
                      highs: list[float]) -> np.ndarray:
    """The (len(lows), n) weights x_probs * [lo <= x <= hi], one row per bounds pair.

    A function of its own so that the mask is freed before the "around" rows
    are built: held past the multiply, it raised the minor page faults of an
    IBR run on a 902-message menu.
    """
    mask = np.greater_equal(xs, np.array(lows, dtype=float)[:, None])
    mask &= xs <= np.array(highs, dtype=float)[:, None]
    return np.multiply(x_probs, mask)


#: most (x, t) cells of "around" truth held at once, as bool: 1 MB
_AROUND_BLOCK_CELLS = 1 << 20


def _around_rows(weights: np.ndarray, rows: list[int], centers: list[float],
                 xs: np.ndarray, x_probs: np.ndarray, t: Dist) -> None:
    """Write the weights of the "around" messages at ``rows`` into ``weights``.

    The denotation |x - c| <= t is one broadcast (b, n, T) bool array for a
    block of b centres, with b * n * T at most ``_AROUND_BLOCK_CELLS`` (or
    b = 1), so memory stays that of one message's truth matrix or 1 MB,
    however many centres there are. Each row's t-sum stays its own
    (n, T) @ (T,) product, as on the per-message route, so that it rounds
    the same way: one stacked product casts the whole stack to a float
    temporary, and a flattened (b*n, T) product rounds differently.
    """
    c = np.array(centers)[:, None, None]
    step = max(1, _AROUND_BLOCK_CELLS // (xs.size * t.support.size))
    for b in range(0, len(rows), step):
        truth = np.abs(xs[:, None] - c[b:b + step]) <= t.support
        for j, true in zip(rows[b:b + step], truth):
            np.matmul(true, t.probs, out=weights[j])
            np.multiply(x_probs, weights[j], out=weights[j])


def _literal_outcomes(prior: JointPrior, menu: Sequence[Message]
                      ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """The x grid, the L0 matrix, and the error of each message that has no row.

    Row j is the posterior after menu[j]. One pass over the menu sorts the
    messages by exact type (a subclass takes the per-message route): the
    precise rows are one (lo, hi) mask over the grid for the whole menu,
    multiplied into the L0 buffer; the "around" rows under an independent
    prior with an "around" t prior share broadcast denotations, a block of
    centres at a time, and sum over t one row at a time, so that each
    rounds as it does alone (``_around_rows``); every other row is built on its own. A message
    whose weights cannot be built keeps that error, and a message false
    everywhere gets a ZeroPosterior; both keep a zero row. All other rows
    are normalised at once.
    """
    if isinstance(prior, IndependentPrior):
        xs, x_probs = prior.x.support, prior.x.probs
        around_t = prior.t_priors.get(Around.param_kind)
    elif isinstance(prior, ExplicitJointPrior):
        xs, x_probs = prior.x_support, prior.joint.sum(axis=1)
        around_t = None
    else:
        raise TypeError(f"unknown prior type {type(prior).__name__}")
    lows, highs, other, errors = [], [], {}, {}
    around_rows, centers = [], []
    for j, m in enumerate(menu):
        kind = type(m)
        if kind is Between:
            lows.append(m.lo)
            highs.append(m.hi)
            continue
        if kind is Exact:
            lows.append(m.value)
            highs.append(m.value)
            continue
        if kind is AtLeast:
            lows.append(m.lo)
            highs.append(math.inf)
            continue
        if kind is AtMost:
            lows.append(-math.inf)
            highs.append(m.hi)
            continue
        # a centre that is not a float keeps its own route, and its own error
        if kind is Around and around_t is not None and isinstance(m.center, float):
            around_rows.append(j)
            centers.append(m.center)
        else:
            try:
                other[j] = _message_weights(prior, m, xs, x_probs)
            except (TypeError, ValueError) as exc:
                errors[j] = exc
        lows.append(math.inf)  # an empty mask, overwritten below
        highs.append(-math.inf)
    weights = _interval_weights(xs, x_probs, lows, highs)
    if around_rows:
        _around_rows(weights, around_rows, centers, xs, x_probs, around_t)
    for j, w in other.items():
        weights[j] = w
    # rows are nonnegative, so a row sums to 0 exactly when no entry is positive
    totals = weights.sum(axis=1, keepdims=True)
    if not totals.all():
        for j in np.flatnonzero(totals == 0).tolist():
            if j not in errors:
                errors[j] = ZeroPosterior(f"{menu[j].label!r} is false everywhere under the prior")
        totals[totals == 0] = 1.0  # their rows stay zero
    weights /= totals
    return xs, weights, errors


def _literal_rows(prior: JointPrior, menu: Sequence[Message]) -> tuple[np.ndarray, np.ndarray]:
    """The x grid and the L0 matrix, whose row j is the posterior after menu[j].

    The first message in menu order that has no row raises its error, so an
    error met at message j waits until the rows before it are known to be alive.
    """
    xs, weights, errors = _literal_outcomes(prior, menu)
    if errors:
        raise errors[min(errors)]
    return xs, weights


def literal_update(prior: JointPrior, m: Message) -> Dist:
    """Posterior over x after conditioning the joint prior on m's truth.

    posterior(k) is proportional to the prior mass of (x=k, t) cells where
    m is true, summed over t. Raises ZeroPosterior when that mass is zero
    everywhere: the listener cannot update on a message she is certain is
    false, and silently falling back to the prior would hide scenario bugs.
    """
    grid, matrix = _literal_rows(prior, (m,))
    return Dist(grid, matrix[0])


def around_closed_form(n_index: int) -> Dist:
    """Tent posterior for "around n" at index scale.

    Setting: world grid at indices 0..2n, uniform x prior, uniform prior
    on the halo half-width t over indices 0..n, message centered at n.
    Then posterior(k) = (n + 1 - |n - k|) / (n + 1)^2, peaking at k = n.
    """
    n = int(n_index)
    if n < 0:
        raise ValueError("n_index must be nonnegative")
    k = np.arange(2 * n + 1)
    probs = (n + 1 - np.abs(n - k)) / float((n + 1) ** 2)
    return Dist(k.astype(float), probs)


def tall_closed_form(n_index: int) -> Dist:
    """Linear posterior for the weak-threshold message at index scale.

    Setting: grid at indices 0..n, uniform x prior, uniform threshold
    prior on the same indices, truth condition x >= t. Then
    posterior(k) = 2(k + 1) / ((n + 1)(n + 2)), increasing in k.
    """
    n = int(n_index)
    if n < 0:
        raise ValueError("n_index must be nonnegative")
    k = np.arange(n + 1)
    probs = 2.0 * (k + 1) / float((n + 1) * (n + 2))
    return Dist(k.astype(float), probs)


# the next two are np.allclose on finite arrays, without its per-call overhead

def _is_uniform(d: Dist) -> bool:
    u = 1.0 / len(d)
    return bool(np.all(np.abs(d.probs - u) <= _TOL + 1e-5 * u))


def _grid_step(support: np.ndarray) -> float:
    steps = np.diff(support)
    if steps.size == 0:
        return 0.0
    if not np.all(np.abs(steps - steps[0]) <= 1e-12 + 1e-12 * abs(steps[0])):
        raise NonUniformPreconditionViolated("grid is not evenly spaced")
    return float(steps[0])


def closed_form_posterior(prior: IndependentPrior, m: Message) -> Dist:
    """Dispatch to the matching closed form, verifying its preconditions.

    Raises NonUniformPreconditionViolated unless the prior sits in the
    exact uniform setting the formula was derived for. Scenario mode
    "closedform" calls it only for these errors: every mode serves the
    message's literal_update row.
    """
    if not isinstance(prior, IndependentPrior):
        raise NonUniformPreconditionViolated("closed forms assume an independent prior")
    if not _is_uniform(prior.x):
        raise NonUniformPreconditionViolated("x prior is not uniform")
    xs = prior.x.support
    step = _grid_step(xs)
    if isinstance(m, Around):
        n2 = len(xs) - 1
        if n2 % 2 != 0:
            raise NonUniformPreconditionViolated("around form needs an odd-size grid")
        n = n2 // 2
        if m.center != xs[n]:
            raise NonUniformPreconditionViolated(
                f"around form assumes the center at the grid midpoint {xs[n]:g}")
        t = prior.t_prior_for(m)
        if not _is_uniform(t) or not np.array_equal(t.support, step * np.arange(n + 1)):
            raise NonUniformPreconditionViolated(
                "halo prior must be uniform on 0..n*step at the grid step")
        return Dist(xs, around_closed_form(n).probs)
    if isinstance(m, Threshold) and m.polarity == ">=":
        t = prior.t_prior_for(m)
        if not _is_uniform(t) or not np.array_equal(t.support, xs):
            raise NonUniformPreconditionViolated(
                "threshold prior must be uniform on the world grid itself")
        return Dist(xs, tall_closed_form(len(xs) - 1).probs)
    raise NonUniformPreconditionViolated(f"no closed form for {m.label!r}")
