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
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .listener import (IndependentPrior, NonUniformPreconditionViolated, _literal_rows,
                       closed_form_posterior, literal_update)
from .messages import (Around, AtLeast, AtMost, Between, Message, TALL,
                       denotation, precise_alternatives, vague_alternatives)
from .prob import Dist, _kl_rows, kl_divergence, normalize, uniform
from .speaker import Observation, best_index, utility_table

__all__ = [
    "Scenario",
    "default_t_priors",
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


def default_t_priors(grid) -> dict[str, Dist]:
    """Uniform parameter priors: halo widths 0..floor(span/2) at the grid
    step for "around", thresholds over the grid itself for tall/short."""
    g = np.asarray(grid, dtype=float)
    if g.size == 1:
        return {"around": uniform([0.0]), "threshold": uniform(g)}
    step = float(g[1] - g[0])
    half = math.floor((g[-1] - g[0]) / (2 * step))
    return {
        "around": uniform(step * np.arange(half + 1)),
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
        if any(w < 0 for w in self.weights) or \
                abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("observation weights must be nonnegative and sum to 1")
        if not self.menu:
            raise ValueError("menu must be nonempty")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.listener_mode not in LISTENER_MODES:
            raise ValueError(f"listener_mode must be one of {LISTENER_MODES}")

    @property
    def prior(self) -> IndependentPrior:
        return IndependentPrior(self.x_prior, dict(self.t_priors))

    def observation(self, obs_id: str) -> Observation:
        for o in self.observations:
            if o.id == obs_id:
                return o
        raise KeyError(f"no observation named {obs_id!r}")

    def interpreter(self) -> Callable[[Message], Dist]:
        """Message -> posterior under the scenario's listener mode.

        "bruteforce" always marginalizes the joint; "closedform" insists
        on the uniform closed forms for vague messages (and errors
        outside their preconditions); "auto" uses a closed form when its
        preconditions hold and falls back to the joint otherwise.
        """
        prior = self.prior
        mode = self.listener_mode

        @functools.cache
        def interpret(m: Message) -> Dist:
            if m.vague and mode != "bruteforce":
                try:
                    return closed_form_posterior(prior, m)
                except NonUniformPreconditionViolated:
                    if mode == "closedform":
                        raise
            return literal_update(prior, m)

        return interpret


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
        listener_mode="bruteforce",  # the closed forms assume uniform priors
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


def _fmt_inf(x: float):
    # JSON has no inf literal; the CLI layer relies on this sentinel
    return "-inf" if x == -math.inf else ("inf" if x == math.inf else float(x))


def _menu_report(sc: Scenario, o: Observation, interpret: Callable[[Message], Dist]) -> list[dict]:
    rows = []
    for m in sc.menu:
        post = interpret(m)
        kl = float(kl_divergence(o.dist, post))
        rows.append({
            "label": m.label,
            "message": m.to_json(),
            "posterior": [float(v) for v in post.probs],
            "kl": _fmt_inf(kl),
            "utility": _fmt_inf(-kl),
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
                    p_o: Sequence[float], margin: float) -> bool:
    """Independent re-check: plain-Python KLs against the oracle posteriors."""
    best_vague = -math.inf
    best_precise = -math.inf
    for m, post in zip(menu, oracle):
        u = -_plain_kl(list(p_o), post)
        if m.vague:
            best_vague = max(best_vague, u)
        else:
            best_precise = max(best_precise, u)
    if not best_vague > best_precise:
        return False
    return abs((best_vague - best_precise) - margin) < 1e-9


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
    elif kind == "threshold":
        out.append(np.array(P_O_TALL))
        for i in range(1, n_samples):
            rng = np.random.default_rng([seed, i])
            c = int(rng.integers(n // 2, n))
            sd = rng.uniform(0.6, 1.5)
            base = np.exp(-0.5 * ((idx - c) / sd) ** 2)
            noise = rng.uniform(0.0, 0.01, n)
            out.append((base + noise) / (base + noise).sum())
    else:
        raise ValueError(f"unknown vague kind {kind!r}")
    return out


def optimality_search(kind: str = "around", family: str = "default",
                      n_samples: int = 40, seed: int = 0) -> dict:
    """Scan a family of speaker posteriors for vague-advantage witnesses.

    A witness is a speaker posterior whose best vague message strictly
    beats every precise alternative on the scenario menu. Witnesses are
    re-verified through the plain-Python enumeration route; an empty list
    is a legitimate outcome (point-mass families never produce one).
    """
    if kind == "around":
        grid = ATTENDANCE_GRID
        menu = tuple(precise_alternatives(grid)) + tuple(vague_alternatives(grid, "around"))
    elif kind == "threshold":
        grid = HEIGHT_GRID
        menu = tuple(precise_alternatives(grid)) + tuple(vague_alternatives(grid, "threshold"))
    else:
        raise ValueError(f"unknown vague kind {kind!r}")
    if family == "default":
        family = "tent" if kind == "around" else "peaked"
    shapes = _observation_family(kind, family, grid, n_samples, seed)
    x_prior, t_priors = uniform(grid), default_t_priors(grid)
    _, L0 = _literal_rows(IndependentPrior(x_prior, t_priors), menu)
    # plain-Python posteriors for _verify_witness; they do not depend on the witness
    t_priors = {None: uniform([0.0]), **t_priors}
    oracle = [[float(v) for v in joint_enumeration_posterior(
        x_prior, t_priors[m.param_kind], m).probs] for m in menu]
    vague_mask = np.array([m.vague for m in menu])
    witnesses = []
    for i, probs in enumerate(shapes):
        u = -_kl_rows(probs, L0)
        best_vague = float(np.max(u[vague_mask]))
        best_precise = float(np.max(u[~vague_mask]))
        if not best_vague > best_precise:
            continue
        margin = best_vague - best_precise
        vague_idx = int(np.flatnonzero(vague_mask & (u == best_vague))[0])
        precise_idx = int(np.flatnonzero(~vague_mask & (u == best_precise))[0])
        if not _verify_witness(menu, oracle, probs, margin):
            raise AssertionError(
                f"witness {i} failed independent verification; routes disagree")
        witnesses.append({
            "index": i,
            "p_o": [float(v) for v in probs],
            "vague_message": menu[vague_idx].label,
            "vague_utility": _fmt_inf(best_vague),
            "best_precise_message": menu[precise_idx].label,
            "best_precise_utility": _fmt_inf(best_precise),
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
