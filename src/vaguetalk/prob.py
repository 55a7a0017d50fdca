"""Finite discrete probability primitives.

Everything in this package runs on small fixed grids of real values, so
distributions are plain (support, probs) pairs with strict validation.
Divergences and surprisals return ordinary floats, with ``math.inf``
standing in for the infinite case (an interpretation that rules out a value
the speaker still considers possible, i.e. a truthfulness violation).
Infinities are data, not errors: they have to survive argmin searches over
message menus, so nothing here raises when one shows up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dist",
    "normalize",
    "uniform",
    "point_mass",
    "regrid",
    "kl_divergence",
    "surprisal",
    "softmax",
    "AllZeroWeights",
    "LengthMismatch",
    "SupportMismatch",
    "ValueNotInSupport",
    "AllUtilitiesNegativeInfinite",
    "PROB_TOL",
]

#: absolute tolerance for "probabilities sum to one" checks
PROB_TOL = 1e-9

INF = math.inf


class AllZeroWeights(ValueError):
    """Raised when a weight vector to be normalized has no positive entry."""


class LengthMismatch(ValueError):
    """Raised when parallel support/probability vectors differ in length."""


class SupportMismatch(ValueError):
    """Raised when two distributions do not live on the same support."""


class ValueNotInSupport(ValueError):
    """Raised when a lookup value is not a support point."""


class AllUtilitiesNegativeInfinite(ValueError):
    """Raised when a softmax has no finite utility to put mass on."""


@dataclass(frozen=True, eq=False)
class Dist:
    """A probability distribution over a strictly increasing grid of reals.

    Invariants enforced at construction: support strictly increasing,
    probabilities nonnegative and summing to 1 within ``PROB_TOL``, equal
    lengths, at least one point. Zero probabilities are allowed (posteriors
    routinely zero out grid points).
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        support = np.array(self.support, dtype=float)
        probs = np.array(self.probs, dtype=float)
        if support.ndim != 1 or probs.ndim != 1:
            raise ValueError("support and probs must be one-dimensional")
        if len(support) != len(probs):
            raise LengthMismatch(
                f"support has {len(support)} entries, probs has {len(probs)}"
            )
        if len(support) == 0:
            raise ValueError("a distribution needs at least one support point")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support values must be strictly increasing")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.support)

    def index(self, value: float) -> int:
        """Position of ``value`` in the support (exact match only)."""
        i = int(np.searchsorted(self.support, value))
        if i >= len(self.support) or self.support[i] != value:
            raise ValueNotInSupport(f"{value} is not a support point")
        return i

    def p(self, value: float) -> float:
        """Probability assigned to ``value``."""
        return float(self.probs[self.index(value)])

    def mode(self) -> float:
        """Support value carrying the most mass (lowest on ties)."""
        return float(self.support[int(np.argmax(self.probs))])

    def same_support(self, other: "Dist") -> bool:
        return np.array_equal(self.support, other.support)

    def approx_equal(self, other: "Dist", tol: float = PROB_TOL) -> bool:
        return self.same_support(other) and bool(
            np.max(np.abs(self.probs - other.probs)) <= tol
        )

    def __repr__(self) -> str:  # compact, grids are small
        pairs = ", ".join(
            f"{v:g}: {p:.4g}" for v, p in zip(self.support, self.probs)
        )
        return f"Dist({pairs})"


def normalize(weights, support) -> Dist:
    """Scale nonnegative weights into a distribution over ``support``.

    Raises ``AllZeroWeights`` if every weight is zero and ``LengthMismatch``
    if the vectors disagree in length.
    """
    w = np.asarray(weights, dtype=float)
    s = np.asarray(support, dtype=float)
    if len(w) != len(s):
        raise LengthMismatch(f"{len(w)} weights for {len(s)} support points")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0.0:
        raise AllZeroWeights("cannot normalize an all-zero weight vector")
    return Dist(s, w / total)


def uniform(support) -> Dist:
    """The uniform distribution over ``support``."""
    s = np.asarray(support, dtype=float)
    return Dist(s, np.full(len(s), 1.0 / len(s)))


def point_mass(support, value: float) -> Dist:
    """All mass on ``value``, which must be a support point."""
    d = uniform(support)  # borrow index lookup
    return Dist(d.support, (np.arange(len(d)) == d.index(value)).astype(float))


def regrid(d: Dist, support) -> Dist:
    """Re-express ``d`` on another grid by exact value match.

    Values present in the new grid but absent from ``d`` get probability
    zero. If ``d`` carries positive mass on a value missing from the new
    grid the distributions are not comparable and ``SupportMismatch`` is
    raised. No interpolation, ever.
    """
    s = np.asarray(support, dtype=float)
    probs = np.zeros(len(s))
    lookup = {float(v): float(p) for v, p in zip(d.support, d.probs)}
    for i, v in enumerate(s):
        probs[i] = lookup.pop(float(v), 0.0)
    lost = sum(p for p in lookup.values())
    if lost > 0:
        raise SupportMismatch(
            f"mass {lost} sits on values missing from the target grid"
        )
    return Dist(s, probs)


def kl_divergence(p: Dist, q: Dist) -> float:
    """Kullback-Leibler divergence ``sum_k p(k) ln(p(k)/q(k))``.

    Natural log. The convention ``0 * ln(0/q) = 0`` applies, and the result
    is ``inf`` exactly when q zeroes out a value p keeps possible. Both
    distributions must enumerate the identical support.
    """
    if not p.same_support(q):
        raise SupportMismatch("KL divergence needs identical supports")
    return float(_kl_rows(p.probs, q.probs[None, :])[0])


def _kl_rows(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``KL(p || q)`` for every row ``q`` of ``rows``, as in ``kl_divergence``.

    ``p`` may also be a stack of distributions that share one support mask;
    then row s of the result is the call on ``p[s]``. Only live rows, those
    with no zero on the mask, get terms; every other row is ``inf`` with no
    divide or log. The masked live rows are made one C-contiguous matrix,
    and their terms are computed in one C-ordered buffer, so each row sums
    as it would alone.
    """
    mask = p > 0 if p.ndim == 1 else p[0] > 0
    pm = p[mask] if p.ndim == 1 else p[:, None, mask]
    zero = rows == 0
    dead = np.any(zero if mask.all() else zero[:, mask], axis=1)
    live = rows[~dead] if dead.any() else rows
    qm = np.ascontiguousarray(live if mask.all() else live[:, mask])
    # broadcasting a stack against qm need not give a C-ordered buffer
    out = None if p.ndim == 1 else np.empty((len(p),) + qm.shape)
    with np.errstate(divide="ignore"):
        terms = np.divide(pm, qm, out=out)
        np.log(terms, out=terms)
    terms *= pm
    kl = np.full(p.shape[:-1] + dead.shape, INF)
    kl[..., ~dead] = terms.sum(axis=-1)
    return kl


def _stochastic_rows(matrix, what: str) -> np.ndarray:
    """``matrix`` as a read-only 2-d float array of rows held to ``Dist``'s
    bounds: nonnegative, summing to 1 within ``PROB_TOL`` (absolute)."""
    m = np.array(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{what} must be a 2-d matrix")
    if np.any(m < 0) or not np.all(np.abs(m.sum(axis=1) - 1.0) <= PROB_TOL):
        raise ValueError(f"{what} rows must be probability distributions")
    m.setflags(write=False)
    return m


def _dist_rows(support: np.ndarray, matrix) -> list[Dist]:
    """``Dist(support, row)`` for each row of ``matrix``, checked once as a
    matrix; the distributions share ``support`` (read-only, strictly
    increasing and as long as a row already) and read-only views of one copy
    of ``matrix``."""
    m = _stochastic_rows(matrix, "posterior")
    out = []
    for row in m:
        d = object.__new__(Dist)
        object.__setattr__(d, "support", support)
        object.__setattr__(d, "probs", row)
        out.append(d)
    return out


def _is_pure(matrix: np.ndarray) -> bool:
    """Every entry is exactly 0 or 1."""
    return bool(np.all((matrix == 0.0) | (matrix == 1.0)))


def _quantized(quantum: float, matrix: np.ndarray) -> np.ndarray:
    """``matrix`` in integer multiples of ``quantum``, rounded to the nearest."""
    return np.round(matrix / quantum).astype(np.int64)


def _quantized_key(quantum: float, *matrices: np.ndarray) -> bytes:
    """Hashable key of the matrices with entries rounded to multiples of quantum."""
    return b"|".join(_quantized(quantum, m).tobytes() for m in matrices)


def surprisal(p: Dist, k: float) -> float:
    """Surprisal ``-ln p(k)``; ``inf`` when ``p(k) = 0``."""
    pk = p.p(k)
    return INF if pk == 0.0 else -math.log(pk)


def softmax(utilities, lam: float) -> np.ndarray:
    """Choice probabilities proportional to ``exp(lam * u_i)``.

    Utilities may be ``-inf`` (those options get probability exactly 0);
    at least one must be finite. ``lam`` must be positive and finite.
    Computed with the usual max-shift so large ``lam`` stays stable.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"lam must be positive, got {lam}")
    u = np.asarray(utilities, dtype=float)
    if np.any(np.isnan(u)) or np.any(u == INF):
        raise ValueError("utilities must be finite or -inf")
    finite = np.isfinite(u)
    if not np.any(finite):
        raise AllUtilitiesNegativeInfinite("no finite utility to choose from")
    shift = np.max(u[finite])
    w = np.zeros(len(u))
    w[finite] = np.exp(lam * (u[finite] - shift))
    return w / w.sum()
