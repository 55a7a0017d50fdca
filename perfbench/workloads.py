"""The benchmark's three workloads.

Each workload builds its fixed inputs once (part of set-up), makes fresh
inputs for op ``i`` from the workload seed, runs one op through the
library's public API, and checks the op's output against an independent
oracle. The library sees only the generated inputs, never the seed.
Ops are issued closed-loop, one at a time, by ``worker.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

import numpy as np

from vaguetalk import cli, games, ibr, listener, messages, prob, scenarios, schema, speaker


def _tent(rng: np.random.Generator, n: int) -> np.ndarray:
    """A tent-shaped speaker posterior with full-support noise, drawn as in
    the library's own optimality-search "tent" family."""
    idx = np.arange(n)
    c = int(rng.integers(1, n - 1))
    width = rng.uniform(1.0, 5.0)
    power = rng.uniform(1.0, 3.0)
    base = np.maximum(0.0, width - np.abs(idx - c)) ** power
    noise = rng.uniform(0.0, 0.02, n)
    return (base + noise) / (base + noise).sum()


class IbrWide:
    """The Bayesian half at the n = 41 scaling row.

    Chosen because messages, listener and ibr do nearly all the work here
    and none of it in dominance-games.
    """

    GRID = np.arange(0.0, 41.0)
    MENU_SIZE = 902  # 41 * 42 / 2 precise intervals + 41 "around" messages
    WEIGHTS = (0.5, 0.5)
    ORACLE_TOL = 1e-12

    def __init__(self, seed: int) -> None:
        self.seed = seed
        x_prior = prob.uniform(self.GRID)
        self.t_priors = scenarios.default_t_priors(self.GRID)
        self.prior = listener.IndependentPrior(x_prior, self.t_priors)
        self.no_param = prob.uniform([0.0])
        self.tent20 = listener.around_closed_form(20).probs

    def make_input(self, i: int) -> tuple:
        rng = np.random.default_rng([self.seed, i])
        return tuple(speaker.Observation(f"o{j}", prob.Dist(self.GRID, _tent(rng, self.GRID.size)))
                     for j in range(2))

    def run(self, observations: tuple) -> tuple:
        menu = (messages.precise_alternatives(self.GRID)
                + messages.vague_alternatives(self.GRID, "around"))
        trace = ibr.iterate(self.prior, menu, observations, self.WEIGHTS, mode="hardmax")
        S, L = trace.final
        report = ibr.check_fixed_point(S, L, self.prior, menu, observations, self.WEIGHTS)
        return menu, trace, report

    def check(self, i: int, observations: tuple, out: tuple) -> str | None:
        menu, trace, report = out
        if len(menu) != self.MENU_SIZE:
            return f"menu has {len(menu)} messages, expected {self.MENU_SIZE}"
        if not report.ok:
            return f"check_fixed_point failed: {report}"
        l0 = trace.levels[0][1].matrix
        row = menu.index(messages.Around(20.0))
        if np.max(np.abs(l0[row] - self.tent20)) > self.ORACLE_TOL:
            return "L0 row of 'around 20' differs from around_closed_form(20)"
        # two precise rows and one vague row against the plain-Python oracle
        rng = np.random.default_rng([self.seed, i, 1])
        n_precise = self.MENU_SIZE - self.GRID.size
        rows = list(rng.choice(n_precise, 2, replace=False)) + \
            [n_precise + int(rng.integers(self.GRID.size))]
        for row in rows:
            m = menu[row]
            t_prior = self.t_priors[m.param_kind] if m.vague else self.no_param
            oracle = scenarios.joint_enumeration_posterior(self.prior.x, t_prior, m)
            if np.max(np.abs(l0[row] - oracle.probs)) > self.ORACLE_TOL:
                return f"L0 row of {m.label!r} differs from joint_enumeration_posterior"
        return None


def common_interest_optimum(g: games.Game) -> float:
    """Best pure-equilibrium payoff of a common-interest game, computed
    without the library: max over receiver maps R of
    sum_s prior_s * max_m (payoff . R^T)[s, m]."""
    best = -np.inf
    for receiver_map in itertools.product(range(g.n_actions), repeat=g.n_messages):
        sender_values = g.payoff[:, list(receiver_map)]
        best = max(best, float(g.prior @ sender_values.max(axis=1)))
    return best


class DominanceGames:
    """The games half: mixed-candidate generation and the dominance check.

    Chosen because candidate generation and pure enumeration carry the
    work and the Bayesian side does none. Game sizes follow
    ``dominance_batch``'s distribution, uniform and independent per
    dimension, up to 5 states x 4 messages x 4 actions, but stratified:
    each block of 36 consecutive ops visits every size once, in a seeded
    order. Op time ranges tenfold across sizes, and drawing each size
    independently, as ``dominance_batch`` does, moved the median op time
    of a 20 s run by about 30% between seeds.
    """

    SIZES = tuple(itertools.product(range(2, 6), range(2, 5), range(2, 5)))
    ORACLE_TOL = 1e-9

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_input(self, i: int) -> tuple:
        block, slot = divmod(i, len(self.SIZES))
        order = np.random.default_rng([self.seed, block]).permutation(len(self.SIZES))
        n_s, n_m, n_a = self.SIZES[order[slot]]
        g = games.random_game([self.seed, i, 1], n_s, n_m, n_a)
        return g, np.random.default_rng([self.seed, i, 2])

    def run(self, inp: tuple) -> games.DominanceReport:
        g, rng = inp
        candidates = games.generate_mixed_candidates(g, rng)
        return games.mixed_dominance_check(g, candidates)

    def check(self, i: int, inp: tuple, report) -> str | None:
        g, _ = inp
        failing = [e.index for e in report.entries if e.verdict == "FAIL"]
        if failing:
            return f"FAIL verdict for candidates {failing} of game {i}"
        expected = common_interest_optimum(g)
        if abs(report.best_pure_payoff - expected) > self.ORACLE_TOL:
            return (f"best pure payoff {report.best_pure_payoff!r} differs from "
                    f"the common-interest optimum {expected!r}")
        return None


DATA = "demos/data"
SCENARIO_FILES = ("attendance.json", "attendance_two_messages.json",
                  "pointmass.json", "synonyms.json")
#: heights3.json has no question partition, so precision and precisify
#: exit 3 on it by design; they run on question_game.json only
GAME_COMMANDS = {
    "question_game.json": (["enumerate"], ["check"], ["dominance", "--seed", "0"],
                           ["meaning"], ["precision"], ["precisify"]),
    "heights3.json": (["enumerate"], ["check", "--mixed"], ["dominance", "--seed", "0"],
                      ["meaning", "--mixed"]),
}
#: optimality-search seeds with a recorded digest; each run visits them in
#: its own seeded order, so no seed repeats within a run of this many passes
SEARCH_SEEDS = 256
DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"


def deck(search_seed: int) -> list[list[str]]:
    """One pass over the documented CLI."""
    commands = [["scenario", name] for name in ("around-table1", "tall-uniform", "tall-gaussian")]
    commands.append(["scenario", "optimality-search", "--seed", str(search_seed)])
    for name in SCENARIO_FILES:
        path = f"{DATA}/{name}"
        commands += [["posterior", path, "around 40"], ["speak", path],
                     ["speak", path, "--soft"], ["ibr", path]]
    for name, subcommands in GAME_COMMANDS.items():
        commands += [["game", f"{DATA}/{name}", *sub] for sub in subcommands]
    return commands


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """Run ``cli.main`` in-process; returns its exit code and stdout bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects bad arguments this way
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue().encode("utf-8")


class CliReports:
    """The documented CLI run in-process, one pass over the deck per op.

    Chosen because it uses listener and speaker in the opposite shape to
    ibr-wide: small cached interpreters read many times, plus schema, cli
    serialisation and the scenarios oracle. Paths in the deck are relative
    to the repository root, which must be the working directory.
    """

    def __init__(self, seed: int, digests: dict[str, str] | None = None) -> None:
        if digests is None:
            digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        self.digests = digests
        self.search_seeds = np.random.default_rng(seed).permutation(SEARCH_SEEDS)
        for name in SCENARIO_FILES:
            schema.load_scenario(f"{DATA}/{name}")
        for name in GAME_COMMANDS:
            schema.load_game(f"{DATA}/{name}")

    def make_input(self, i: int) -> list[list[str]]:
        return deck(int(self.search_seeds[i % SEARCH_SEEDS]))

    def run(self, commands: list[list[str]]) -> list[tuple[int, bytes]]:
        return [run_cli(argv) for argv in commands]

    def check(self, i: int, commands: list[list[str]], results) -> str | None:
        for argv, (code, stdout) in zip(commands, results):
            key = command_key(argv)
            if code != 0:
                return f"{key!r} exited {code}"
            want = self.digests.get(key)
            if want is None:
                return f"{key!r} has no recorded digest"
            if hashlib.sha256(stdout).hexdigest() != want:
                return f"{key!r} stdout differs from its recorded digest"
        return None

    @staticmethod
    def stdout_bytes(results) -> int:
        return sum(len(stdout) for _, stdout in results)


WORKLOADS = {"ibr-wide": IbrWide, "dominance-games": DominanceGames, "cli-reports": CliReports}
