"""Canned scenarios and the vague-advantage search harness.

A Scenario bundles a world grid with priors, a set of weighted speaker
observations, a message menu, and a listener mode. The three named
builders reproduce the package's reference setups:

- attendance: 9-point count grid 0..80, uniform priors, a speaker
  posterior peaked at 40; "around 40" strictly beats every precise
  alternative.
- tall (uniform): 11-point height grid 150..200, uniform priors, a
  speaker posterior peaked at 185; "tall" beats the named interval
  alternatives and yields the exactly linear posterior.
- tall (gaussian): same grid with a discretized Gaussian prior; the
  threshold update provably shifts posterior odds toward larger values
  (ratio inequality), checked pairwise.

``optimality_search`` scans families of speaker posteriors for witnesses
where the best vague message strictly beats every precise alternative,
re-verifying each witness through an independent plain-Python route
before reporting it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .listener import (IndependentPrior, _literal_outcomes, _literal_rows,
                       closed_form_posterior, literal_update)
from .messages import (Around, AtLeast, AtMost, Between, Message, TALL,
                       denotation, precise_alternatives, vague_alternatives)
from .prob import Dist, _dist_rows, _kl_rows, kl_divergence, normalize, uniform
from .speaker import Observation, best_index, utility_table

__all__ = [
    "Scenario",
    "default_t_priors",
    "default_t_prior_sizes",
    "attendance_scenario",
    "tall_uniform_scenario",
    "tall_gaussian_scenario",
    "scenario_around_table1",
    "scenario_tall_uniform",
    "scenario_tall_gaussian",
    "optimality_search",
    "run_named_scenario",
    "SCENARIO_NAMES",
    "joint_enumeration_posterior",
    "ratio_inequality_pairs_ok",
    "concentration_pairs_ok",
    "ATTENDANCE_GRID",
    "P_O_ATTENDANCE",
    "HEIGHT_GRID",
    "P_O_TALL",
]

LISTENER_MODES = ("auto", "bruteforce", "closedform")

# attendance setup: counts 0..80 by 10, speaker posterior peaked at 40
ATTENDANCE_GRID = np.arange(0.0, 81.0, 10.0)
P_O_ATTENDANCE = (0.0, 0.01, 0.01, 0.16, 0.64, 0.16, 0.01, 0.01, 0.0)

# height setup: cm 150..200 by 5; the peaked speaker posterior is a harness
# constant (mass 0.5 at 185, zero at both extremes, some mass below 170)
HEIGHT_GRID = np.arange(150.0, 201.0, 5.0)
P_O_TALL = (0.0, 0.01, 0.01, 0.01, 0.02, 0.05, 0.16, 0.5, 0.16, 0.08, 0.0)
GAUSSIAN_MEAN = 175.0
GAUSSIAN_SD = 10.0
_KL_STACK = 8  # speaker posteriors per KL call in optimality_search


def default_t_prior_sizes(grid) -> dict[str, int]:
    """How many parameter values each default t prior has, known before
    any is built: halo widths 0..floor(span/2) at the grid step for
    "around", one threshold per grid point."""
    g = np.asarray(grid, dtype=float)
    widths = 1 if g.size == 1 else math.floor((g[-1] - g[0]) / (2 * float(g[1] - g[0]))) + 1
    return {"around": widths, "threshold": g.size}


def default_t_priors(grid) -> dict[str, Dist]:
    """Uniform parameter priors of default_t_prior_sizes: halo widths at
    the grid step for "around", thresholds over the grid itself for
    tall/short."""
    g = np.asarray(grid, dtype=float)
    step = float(g[1] - g[0]) if g.size > 1 else 0.0
    return {
        "around": uniform(step * np.arange(default_t_prior_sizes(g)["around"])),
        "threshold": uniform(g),
    }


@dataclass(frozen=True)
class Scenario:
    """A grid-world communication setup ready for listener/speaker runs."""

    grid: np.ndarray
    unit: str
    x_prior: Dist
    t_priors: Mapping[str, Dist]
    observations: tuple[Observation, ...]
    weights: tuple[float, ...]
    menu: tuple[Message, ...]
    lam: float = 4.0
    listener_mode: str = "auto"
    #: the product prior, one object for the scenario's life, so that calls
    #: given ``sc.prior`` share the L0 store, which keys on the prior's identity
    prior: IndependentPrior = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = np.array(self.grid, dtype=float)
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "observations", tuple(self.observations))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "menu", tuple(self.menu))
        if not np.array_equal(self.x_prior.support, g):
            raise ValueError("x prior support must equal the grid")
        for o in self.observations:
            if not np.array_equal(o.dist.support, g):
                raise ValueError(f"observation {o.id!r} is not on the grid")
        if len(self.weights) != len(self.observations):
            raise ValueError("one weight per observation required")
        if not all(0 <= w < math.inf for w in self.weights) or \
                abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("observation weights must be nonnegative and sum to 1")
        if not self.menu:
            raise ValueError("menu must be nonempty")
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive")
        if self.listener_mode not in LISTENER_MODES:
            raise ValueError(f"listener_mode must be one of {LISTENER_MODES}")
        object.__setattr__(self, "prior", IndependentPrior(self.x_prior, dict(self.t_priors)))

    def observation(self, obs_id: str) -> Observation:
        for o in self.observations:
            if o.id == obs_id:
                return o
        raise KeyError(f"no observation named {obs_id!r}")

    def interpreter(self) -> Callable[[Message], Dist]:
        """Message -> posterior: the message's row of the literal listener.

        "auto" and "bruteforce" serve the same rows. "closedform" serves
        them too, but first raises the error closed_form_posterior gives
        for a vague message outside the uniform closed-form setting.

        The first call builds the posterior of every menu message at once;
        each message still raises its own error only when it is asked for.
        A message outside the menu is worked out on its own.
        """
        prior = self.prior
        mode = self.listener_mode
        menu = self.menu
        posteriors: dict[Message, Dist | Exception] = {}

        def interpret(m: Message) -> Dist:
            if not posteriors:  # built in reverse, so the first of equal messages wins
                built = _menu_posteriors(prior, menu, mode)
                posteriors.update(zip(reversed(menu), reversed(built)))
            post = posteriors.get(m)
            if post is None:
                post = posteriors[m] = _menu_posteriors(prior, (m,), mode)[0]
            if isinstance(post, Exception):
                raise post.with_traceback(None)
            return post

        return interpret


def _menu_posteriors(prior: IndependentPrior, menu: Sequence[Message],
                     mode: str) -> list[Dist | Exception]:
    """The L0 row of each menu message, or the error that asking for it
    raises; in mode "closedform" a vague message's closed-form precondition
    error comes first."""
    xs, L0, errors = _literal_outcomes(prior, menu)
    if mode == "closedform":
        for j, m in enumerate(menu):
            if m.vague:
                try:
                    closed_form_posterior(prior, m)
                except ValueError as exc:
                    errors[j] = exc
    rows = iter(_dist_rows(xs, L0[[j for j in range(len(menu)) if j not in errors]]))
    return [errors[j] if j in errors else next(rows) for j in range(len(menu))]


def attendance_scenario(listener_mode: str = "auto") -> Scenario:
    grid = ATTENDANCE_GRID
    menu = tuple(precise_alternatives(grid)) + tuple(vague_alternatives(grid, "around"))
    return Scenario(
        grid=grid,
        unit="persons",
        x_prior=uniform(grid),
        t_priors=default_t_priors(grid),
        observations=(Observation("o1", Dist(grid, P_O_ATTENDANCE)),),
        weights=(1.0,),
        menu=menu,
        listener_mode=listener_mode,
    )


#: named interval alternatives for the height scenario; strict paper-style
#: phrasings ("more than", "taller than") are read weakly on the 5cm grid
TALL_MENU = (TALL, Between(155.0, 195.0), AtLeast(155.0), AtMost(195.0), AtLeast(170.0))


def tall_uniform_scenario(listener_mode: str = "auto") -> Scenario:
    grid = HEIGHT_GRID
    return Scenario(
        grid=grid,
        unit="cm",
        x_prior=uniform(grid),
        t_priors=default_t_priors(grid),
        observations=(Observation("o1", Dist(grid, P_O_TALL)),),
        weights=(1.0,),
        menu=TALL_MENU,
        listener_mode=listener_mode,
    )


def gaussian_prior(grid, mean: float, sd: float) -> Dist:
    g = np.asarray(grid, dtype=float)
    return normalize(np.exp(-0.5 * ((g - mean) / sd) ** 2), g)


def tall_gaussian_scenario() -> Scenario:
    grid = HEIGHT_GRID
    return Scenario(
        grid=grid,
        unit="cm",
        x_prior=gaussian_prior(grid, GAUSSIAN_MEAN, GAUSSIAN_SD),
        t_priors=default_t_priors(grid),
        observations=(Observation("o1", Dist(grid, P_O_TALL)),),
        weights=(1.0,),
        menu=TALL_MENU,
    )


def joint_enumeration_posterior(x_prior: Dist, t_prior: Dist, m: Message) -> Dist:
    """Plain-Python double loop over (x, t); oracle for literal_update."""
    weights = []
    for k in range(len(x_prior)):
        xv = float(x_prior.support[k])
        total = 0.0
        for i in range(len(t_prior)):
            if denotation(m, xv, float(t_prior.support[i])):
                total += float(x_prior.probs[k]) * float(t_prior.probs[i])
        weights.append(total)
    z = sum(weights)
    if z <= 0:
        raise ValueError(f"{m.label!r} is false everywhere under the prior")
    return Dist(x_prior.support, [w / z for w in weights])


def ratio_inequality_pairs_ok(prior: Dist, posterior: Dist) -> bool:
    """Strict pairwise check: the update tilted odds toward larger values.

    For every k1 < k2: posterior(k2)/posterior(k1) > prior(k2)/prior(k1),
    compared cross-multiplied so zero denominators cannot blow up.
    """
    p, q = prior.probs, posterior.probs
    n = len(prior)
    for k1 in range(n):
        for k2 in range(k1 + 1, n):
            if not q[k2] * p[k1] > q[k1] * p[k2]:
                return False
    return True


def concentration_pairs_ok(prior: Dist, posterior: Dist, center_index: int) -> bool:
    """Strict same-side check: values nearer the center gained odds.

    For k1, k2 on one side of the center (the center itself counts as
    either side) with |c - k2| < |c - k1|:
    posterior(k2)/posterior(k1) > prior(k2)/prior(k1), cross-multiplied.
    """
    p, q = prior.probs, posterior.probs
    c = center_index
    n = len(prior)
    for k1 in range(n):
        for k2 in range(n):
            same_side = (k1 - c) * (k2 - c) >= 0
            if same_side and abs(c - k2) < abs(c - k1):
                if not q[k2] * p[k1] > q[k1] * p[k2]:
                    return False
    return True


def _menu_report(sc: Scenario, o: Observation, interpret: Callable[[Message], Dist]) -> list[dict]:
    posteriors = [interpret(m) for m in sc.menu]
    utilities = utility_table(o, sc.menu, interpret)
    rows = []
    for m, post, u in zip(sc.menu, posteriors, utilities.tolist()):
        rows.append({
            "label": m.label,
            "message": m.to_json(),
            "posterior": post.probs.tolist(),
            "kl": -u,
            "utility": u,
        })
    return rows


def scenario_around_table1() -> dict:
    """Full report for the attendance setup.

    Includes both listener routes for the vague winner: the closed-form
    tent (exact two-decimal values) and the brute-force joint update,
    with their max absolute difference.
    """
    sc = attendance_scenario()
    o = sc.observation("o1")
    around40 = Around(40.0)
    between = Between(10.0, 70.0)
    prior = sc.prior
    post_around_closed = closed_form_posterior(prior, around40)
    post_around_brute = literal_update(prior, around40)
    post_between = literal_update(prior, between)
    kl_between = float(kl_divergence(o.dist, post_between))
    kl_around = float(kl_divergence(o.dist, post_around_closed))
    interpret = sc.interpreter()
    utilities = utility_table(o, sc.menu, interpret)
    win_idx = best_index(o, sc.menu, interpret)
    finite = utilities[np.isfinite(utilities)]
    margin = float(np.sort(finite)[-1] - np.sort(finite)[-2]) if finite.size > 1 else math.inf
    return {
        "name": "around-table1",
        "unit": sc.unit,
        "grid": [float(v) for v in sc.grid],
        "x_prior": [float(v) for v in sc.x_prior.probs],
        "p_o": [float(v) for v in o.dist.probs],
        "posterior_between": [float(v) for v in post_between.probs],
        "posterior_around": [float(v) for v in post_around_closed.probs],
        "closed_vs_brute_max_diff": float(np.max(np.abs(
            post_around_closed.probs - post_around_brute.probs))),
        "kl_between": kl_between,
        "kl_around": kl_around,
        "kl_between_2dp": round(kl_between, 2),
        "kl_around_2dp": round(kl_around, 2),
        "winner": sc.menu[win_idx].label,
        "winner_strict": bool(np.sum(utilities == np.max(utilities)) == 1),
        "winner_margin": margin,
        "messages": _menu_report(sc, o, interpret),
    }


def scenario_tall_uniform() -> dict:
    """Height report under uniform priors: exactly linear tall posterior,
    utilities of the named interval alternatives, and the winner."""
    sc = tall_uniform_scenario()
    o = sc.observation("o1")
    post_tall = closed_form_posterior(sc.prior, TALL)
    interpret = sc.interpreter()
    win_idx = best_index(o, sc.menu, interpret)
    n = len(sc.grid) - 1
    expected_linear = [2.0 * (k + 1) / ((n + 1) * (n + 2)) for k in range(n + 1)]
    return {
        "name": "tall-uniform",
        "unit": sc.unit,
        "grid": [float(v) for v in sc.grid],
        "x_prior": [float(v) for v in sc.x_prior.probs],
        "p_o": [float(v) for v in o.dist.probs],
        "posterior_tall": [float(v) for v in post_tall.probs],
        "linear_form_max_diff": float(np.max(np.abs(
            post_tall.probs - np.array(expected_linear)))),
        "winner": sc.menu[win_idx].label,
        "winner_is_tall": bool(sc.menu[win_idx] is TALL),
        "messages": _menu_report(sc, o, interpret),
    }


def scenario_tall_gaussian() -> dict:
    """Gaussian-prior height report with the pairwise ratio check and a
    plain-Python enumeration cross-check of the posterior."""
    sc = tall_gaussian_scenario()
    prior = sc.prior
    post = literal_update(prior, TALL)
    oracle = joint_enumeration_posterior(sc.x_prior, sc.t_priors["threshold"], TALL)
    o = sc.observation("o1")
    return {
        "name": "tall-gaussian",
        "unit": sc.unit,
        "grid": [float(v) for v in sc.grid],
        "x_prior": [float(v) for v in sc.x_prior.probs],
        "p_o": [float(v) for v in o.dist.probs],
        "posterior_tall": [float(v) for v in post.probs],
        "ratio_inequality_ok": ratio_inequality_pairs_ok(sc.x_prior, post),
        "posterior_mode": float(post.mode()),
        "prior_mode": float(sc.x_prior.mode()),
        "mode_shifted_up": bool(post.mode() >= sc.x_prior.mode()),
        "enumeration_max_diff": float(np.max(np.abs(post.probs - oracle.probs))),
        "messages": _menu_report(sc, o, sc.interpreter()),
    }


def _plain_kl(p: Sequence[float], q: Sequence[float]) -> float:
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            if qi <= 0:
                return math.inf
            total += pi * math.log(pi / qi)
    return total


def _verify_witness(menu: Sequence[Message], oracle: Sequence[Sequence[float]],
                    p_o: Sequence[float], best_vague: float, best_precise: float) -> bool:
    """Independent re-check: plain-Python KLs against the oracle posteriors
    must give the reported best vague and best precise utilities."""
    p = [float(v) for v in p_o]
    oracle_vague = -math.inf
    oracle_precise = -math.inf
    for m, post in zip(menu, oracle):
        u = -_plain_kl(p, post)
        if m.vague:
            oracle_vague = max(oracle_vague, u)
        else:
            oracle_precise = max(oracle_precise, u)
    if not oracle_vague > oracle_precise:
        return False
    return (abs(oracle_vague - best_vague) < 1e-9 and abs(oracle_precise - best_precise) < 1e-9
            and abs((oracle_vague - oracle_precise) - (best_vague - best_precise)) < 1e-9)


def _observation_family(kind: str, family: str, grid: np.ndarray,
                        n_samples: int, seed: int) -> list[np.ndarray]:
    n = grid.size
    idx = np.arange(n)
    if family == "pointmass":
        out = []
        for k in range(n):
            probs = np.zeros(n)
            probs[k] = 1.0
            out.append(probs)
        return out
    out = []
    if kind == "around":
        # sample 0 is the attendance reference shape
        out.append(np.array(P_O_ATTENDANCE))
        for i in range(1, n_samples):
            rng = np.random.default_rng([seed, i])
            c = int(rng.integers(1, n - 1))
            width = rng.uniform(1.0, 5.0)
            power = rng.uniform(1.0, 3.0)
            base = np.maximum(0.0, width - np.abs(idx - c)) ** power
            noise = rng.uniform(0.0, 0.02, n)
            out.append((base + noise) / (base + noise).sum())
    else:  # "threshold"; optimality_search has checked the kind
        out.append(np.array(P_O_TALL))
        for i in range(1, n_samples):
            rng = np.random.default_rng([seed, i])
            c = int(rng.integers(n // 2, n))
            sd = rng.uniform(0.6, 1.5)
            base = np.exp(-0.5 * ((idx - c) / sd) ** 2)
            noise = rng.uniform(0.0, 0.01, n)
            out.append((base + noise) / (base + noise).sum())
    return out


@functools.cache
def _search_setup(kind: str) -> tuple[np.ndarray, tuple[Message, ...], np.ndarray,
                                      tuple[tuple[float, ...], ...], np.ndarray]:
    """The grid, menu, L0 matrix, plain-Python oracle rows and vague mask of
    one kind's search. None of them depends on the family or the seed, so
    each kind builds them once per process; the arrays are read-only."""
    # a view, so that freezing it below leaves the public grid constant as it was
    grid = (ATTENDANCE_GRID if kind == "around" else HEIGHT_GRID).view()
    menu = tuple(precise_alternatives(grid)) + tuple(vague_alternatives(grid, kind))
    x_prior, t_priors = uniform(grid), default_t_priors(grid)
    _, L0 = _literal_rows(IndependentPrior(x_prior, t_priors), menu)
    # plain-Python posteriors for _verify_witness; they do not depend on the witness
    t_priors = {None: uniform([0.0]), **t_priors}
    oracle = tuple(tuple(float(v) for v in joint_enumeration_posterior(
        x_prior, t_priors[m.param_kind], m).probs) for m in menu)
    vague_mask = np.array([m.vague for m in menu])
    for a in (grid, L0, vague_mask):
        a.setflags(write=False)
    return grid, menu, L0, oracle, vague_mask


def optimality_search(kind: str = "around", family: str = "default",
                      n_samples: int = 40, seed: int = 0) -> dict:
    """Scan a family of speaker posteriors for vague-advantage witnesses.

    A witness is a speaker posterior whose best vague message strictly
    beats every precise alternative on the scenario menu. Witnesses are
    re-verified through the plain-Python enumeration route; an empty list
    is a legitimate outcome (point-mass families never produce one).
    """
    if kind not in ("around", "threshold"):
        raise ValueError(f"unknown vague kind {kind!r}")
    grid, menu, L0, oracle, vague_mask = _search_setup(kind)
    if family == "default":
        family = "tent" if kind == "around" else "peaked"
    shapes = _observation_family(kind, family, grid, n_samples, seed)
    # KL stacks of shapes that share a support mask: row i of a stack is the
    # 1-d call on shape i; each stack is at most _KL_STACK shapes, so its
    # (shapes, messages, grid) buffer stays small
    groups: dict[bytes, list[int]] = {}
    for i, probs in enumerate(shapes):
        groups.setdefault((probs > 0).tobytes(), []).append(i)
    u = np.empty((len(shapes), len(menu)))
    for members in groups.values():
        for k in range(0, len(members), _KL_STACK):
            stack = members[k:k + _KL_STACK]
            u[stack] = -_kl_rows(np.array([shapes[i] for i in stack]), L0)
    # argmax gives the first message of each kind with the best utility
    vague, precise = np.flatnonzero(vague_mask), np.flatnonzero(~vague_mask)
    vague_idx = vague[u[:, vague].argmax(axis=1)].tolist()
    precise_idx = precise[u[:, precise].argmax(axis=1)].tolist()
    witnesses = []
    for i, probs in enumerate(shapes):
        best_vague, best_precise = float(u[i, vague_idx[i]]), float(u[i, precise_idx[i]])
        if not best_vague > best_precise:
            continue
        margin = best_vague - best_precise
        if not _verify_witness(menu, oracle, probs, best_vague, best_precise):
            raise AssertionError(
                f"witness {i} failed independent verification; routes disagree")
        witnesses.append({
            "index": i,
            "p_o": [float(v) for v in probs],
            "vague_message": menu[vague_idx[i]].label,
            "vague_utility": best_vague,
            "best_precise_message": menu[precise_idx[i]].label,
            "best_precise_utility": best_precise,
            "margin": margin,
        })
    return {
        "name": "optimality-search",
        "kind": kind,
        "family": family,
        "n_searched": len(shapes),
        "n_witnesses": len(witnesses),
        "witnesses": witnesses,
    }


SCENARIO_NAMES = ("around-table1", "tall-uniform", "tall-gaussian", "optimality-search")


def run_named_scenario(name: str, seed: int = 0, n_samples: int = 40) -> dict:
    """Dispatch for the CLI's scenario subcommand."""
    if name == "around-table1":
        return scenario_around_table1()
    if name == "tall-uniform":
        return scenario_tall_uniform()
    if name == "tall-gaussian":
        return scenario_tall_gaussian()
    if name == "optimality-search":
        return {
            "name": "optimality-search",
            "around": optimality_search("around", n_samples=n_samples, seed=seed),
            "threshold": optimality_search("threshold", n_samples=n_samples, seed=seed),
        }
    raise KeyError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
