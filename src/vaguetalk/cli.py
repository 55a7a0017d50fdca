"""Command-line interface.

Subcommands wrap the public library operations:

- posterior: level-0 posterior for one message under a scenario file
- speak: hard or softmax speaker choice with the full utility table
- ibr: run the speaker/listener recursion and check its fixed point
- game: equilibrium tools for a cheap-talk game file (or "random" batch)
- scenario: built-in reproduction reports and the optimality search

Output is deterministic: JSON with sorted keys and floats rounded to 12
significant digits (non-finite values serialized as strings "inf"/"-inf"),
or CSV with the same float formatting. Exit codes: 0 success, 2 bad
input/schema, 3 semantic impossibility (zero posterior, dead message,
missing/violated precondition), 4 no truthful message, 5 enumeration
budget exceeded. VS_SEED in the environment supplies the default seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import Any, Callable, Sequence

import numpy as np

from . import games, ibr, scenarios, schema
from .listener import (NonUniformPreconditionViolated, ZeroPosterior,
                       literal_update)
from .messages import MessageParseError, parse_message
from .speaker import NoTruthfulMessage, best_index, softmax_speaker, utility_table

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_INPUT = 2
EXIT_IMPOSSIBLE = 3
EXIT_NO_TRUTHFUL = 4
EXIT_BUDGET = 5
MAX_GAMES = 100_000  # largest `game random dominance --n`, minutes of work
MAX_SAMPLES = 10_000  # largest `scenario optimality-search --samples`, seconds of work


def _seed(text: str) -> int:
    """argparse type: a seed, which numpy needs as a non-negative integer."""
    value = int(text)  # argparse reports a ValueError as "invalid int value"
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


_seed.__name__ = "int"


def _positive(kind: type, most: float = math.inf) -> Callable[[str], Any]:
    """argparse type: a finite number of the given kind, above zero and at
    most `most`."""
    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <name> value"
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _clean(value: Any) -> Any:
    """Make a report JSON-safe and byte-stable: 12 significant digits,
    non-finite floats as strings."""
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isfinite(x):
            return float(f"{x:.12g}")
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isfinite(value).all():
            cells = [float(f"{x:.12g}") for x in value.ravel().tolist()]
            if value.ndim == 1:
                return cells
            return np.array(cells, dtype=object).reshape(value.shape).tolist()
        return _clean(value.tolist())
    return value


def _paper_format(value: Any, key: str | None = None) -> Any:
    """Display layer: round KL-like figures to 2 decimals, recursively."""
    if isinstance(value, dict):
        return {k: _paper_format(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_paper_format(v, key) for v in value]
    if isinstance(value, float) and key is not None and \
            (key.startswith("kl") or key in ("utility", "margin",
                                             "vague_utility", "best_precise_utility")):
        return round(value, 2)
    return value


def _emit_json(report: dict, paper: bool = False) -> None:
    cleaned = _clean(report)
    if paper:
        cleaned = _paper_format(cleaned)
    print(json.dumps(cleaned, sort_keys=True, allow_nan=False))


def _fmt_cell(v: Any) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    sys.stdout.write(buf.getvalue())


def cmd_posterior(args: argparse.Namespace) -> int:
    sc = schema.load_scenario(args.scenario)
    message = parse_message(args.message)
    post = literal_update(sc.prior, message)
    if args.json:
        _emit_json({
            "message": message.label,
            "support": list(sc.grid),
            "prior": list(sc.x_prior.probs),
            "posterior": list(post.probs),
            "unit": sc.unit,
        }, paper=args.paper_format)
    else:
        rows = [(sc.grid[k], sc.x_prior.probs[k], post.probs[k])
                for k in range(len(post))]
        _emit_csv(("support", "prior", "posterior"), rows)
    return EXIT_OK


def cmd_speak(args: argparse.Namespace) -> int:
    sc = schema.load_scenario(args.scenario)
    o = sc.observations[0]
    if args.observation:
        try:
            o = sc.observation(args.observation)
        except KeyError:
            raise schema.SchemaError(
                f"--observation: no observation named {args.observation!r}; "
                f"file defines {[ob.id for ob in sc.observations]}") from None
    interpret = sc.interpreter()
    lam = args.lam if args.lam is not None else sc.lam
    utilities = utility_table(o, sc.menu, interpret)
    table = [{"label": m.label, "utility": float(u)}
             for m, u in zip(sc.menu, utilities)]
    report: dict[str, Any] = {
        "observation": o.id,
        "lambda": lam,
        "utilities": table,
    }
    if args.soft:
        dist = softmax_speaker(o, sc.menu, interpret, lam)
        report["mode"] = "softmax"
        report["distribution"] = [
            {"label": m.label, "prob": float(p)} for m, p in zip(sc.menu, dist.probs)]
    else:
        idx = best_index(o, sc.menu, interpret)
        report["mode"] = "hardmax"
        report["choice"] = sc.menu[idx].label
        report["utility"] = float(utilities[idx])
    _emit_json(report, paper=args.paper_format)
    return EXIT_OK


def cmd_ibr(args: argparse.Namespace) -> int:
    sc = schema.load_scenario(args.scenario)
    lam = args.lam if args.lam is not None else sc.lam
    trace = ibr.iterate(sc.prior, sc.menu, sc.observations, sc.weights,
                        mode=args.mode, lam=lam if args.mode == "softmax" else None,
                        max_levels=args.levels, tol=args.tol,
                        dead_message_fallback=not args.no_fallback)
    levels = []
    for k, (S, L) in enumerate(trace.levels):
        levels.append({
            "level": k,
            "speaker": None if S is None else S.matrix,
            "listener": L.matrix,
        })
    report: dict[str, Any] = {
        "menu": [m.label for m in trace.menu],
        "observations": [o.id for o in sc.observations],
        "levels": levels,
        "residuals": list(trace.residuals),
        "converged": trace.converged,
        "cycle_detected": trace.cycle_detected,
        "fixed_point_level": trace.fixed_point_level,
    }
    if trace.levels[-1][0] is not None:
        S, L = trace.final
        check = ibr.check_fixed_point(S, L, sc.prior, sc.menu, sc.observations,
                                      sc.weights, tol=args.tol, mode=args.mode,
                                      lam=lam if args.mode == "softmax" else None,
                                      dead_message_fallback=not args.no_fallback)
        report["fixed_point_check"] = {
            "speaker_ok": check.speaker_ok,
            "listener_ok": check.listener_ok,
            "speaker_residual": check.speaker_residual,
            "listener_residual": check.listener_residual,
        }
        report["final_speaker_pure"] = S.is_pure
    _emit_json(report)
    return EXIT_OK


def _resolve_profile(args: argparse.Namespace, game: games.Game,
                     profiles: dict[str, games.MixedProfile]) -> games.MixedProfile:
    name = args.profile
    if args.mixed:
        name = "mixed"
    elif args.pure:
        name = "pure"
    if name is None:
        if len(profiles) == 1:
            return next(iter(profiles.values()))
        raise schema.SchemaError(
            "this subcommand needs --profile NAME (or --pure/--mixed); "
            f"file defines {sorted(profiles) or 'none'}")
    if name in profiles:
        return profiles[name]
    if os.path.exists(name):
        return schema._parse_profile(schema._load_json(name), game, f"{name}: profile")
    raise schema.SchemaError(f"profile {name!r} not in file and not a path; "
                             f"file defines {sorted(profiles)}")


def _profile_maps(p: games.MixedProfile) -> tuple[list[int], list[int]]:
    return ([int(np.argmax(row)) for row in p.sender],
            [int(np.argmax(row)) for row in p.receiver])


def cmd_game(args: argparse.Namespace) -> int:
    if args.game == "random":
        if args.sub != "dominance":
            raise schema.SchemaError("game 'random' only supports the dominance subcommand")
        batch = games.dominance_batch(args.n, args.seed)
        _emit_json({
            "games": batch.n_games,
            "candidates": batch.n_candidates,
            "verified_equilibria": batch.n_verified,
            "all_pass": batch.all_pass,
            "failures": [{"game": gi, "candidate": e.index, "payoff": e.payoff,
                          "verdict": e.verdict} for gi, e in batch.failures],
            "seed": args.seed,
        })
        return EXIT_OK
    game, profiles = schema.load_game(args.game)
    if args.sub == "enumerate":
        found = games.enumerate_pure_equilibria(game, budget=args.budget)
        equilibria = []
        for p, pay in found:
            sender_map, receiver_map = _profile_maps(p)
            equilibria.append({"sender_map": sender_map, "receiver_map": receiver_map,
                               "payoff": pay})
        _emit_json({
            "count": len(found),
            "best_payoff": found[0][1] if found else None,
            "equilibria": equilibria,
        })
    elif args.sub == "check":
        profile = _resolve_profile(args, game, profiles)
        result = games.is_nash(game, profile, tol=args.tol)
        witness = None
        if result.witness is not None:
            w = result.witness
            witness = {"role": w.role, "at": w.at, "switch_to": w.switch_to,
                       "current": w.current, "improved": w.improved}
        _emit_json({"nash": result.ok, "witness": witness,
                    "payoff": games.expected_payoff(game, profile)})
    elif args.sub == "dominance":
        rng = np.random.default_rng([args.seed, 0])
        candidates = list(profiles.values()) + games.generate_mixed_candidates(game, rng)
        report = games.mixed_dominance_check(game, candidates)
        _emit_json({
            "best_pure_payoff": report.best_pure_payoff,
            "n_pure_equilibria": report.n_pure_equilibria,
            "n_candidates": len(report.entries),
            "n_verified": report.n_verified,
            "all_pass": report.all_pass,
            "entries": [{"index": e.index, "payoff": e.payoff, "nash": e.nash,
                         "support_spread": e.support_spread, "verdict": e.verdict}
                        for e in report.entries],
        })
    elif args.sub == "meaning":
        profile = _resolve_profile(args, game, profiles)
        meaning = games.speaker_meaning(game, profile)
        _emit_json({
            "kind": meaning.kind,
            "cells": [{"message": label, "states": list(states)}
                      for label, states in meaning.cells],
        })
    elif args.sub == "precision":
        profile = _resolve_profile(args, game, profiles)
        report = games.question_precision(game, profile)
        _emit_json({
            "verdict": report.verdict,
            "cell_priors": list(report.cell_priors),
            "posteriors": [{"message": label, "cells": list(cells)}
                           for label, cells in report.cell_posteriors],
        })
    elif args.sub == "precisify":
        profile = games.precisify(game)
        sender_map, receiver_map = _profile_maps(profile)
        nash = games.is_nash(game, profile)
        precision = games.question_precision(game, profile)
        _emit_json({
            "sender_map": sender_map,
            "receiver_map": receiver_map,
            "nash": nash.ok,
            "verdict": precision.verdict,
            "payoff": games.expected_payoff(game, profile),
        })
    else:
        raise schema.SchemaError(f"unknown game subcommand {args.sub!r}")
    return EXIT_OK


def _scenario_csv(report: dict) -> tuple[list[str], list[list[Any]]]:
    if "messages" in report:
        labels = [m["label"] for m in report["messages"]]
        header = ["support", "prior", "p_o"] + \
            [f"posterior_{lb}" for lb in labels] + [f"kl_{lb}" for lb in labels]
        rows = []
        for k in range(len(report["grid"])):
            row = [report["grid"][k], report["x_prior"][k], report["p_o"][k]]
            row += [m["posterior"][k] for m in report["messages"]]
            row += [m["kl"] for m in report["messages"]]
            rows.append(row)
        return header, rows
    # optimality search: one row per witness
    header = ["kind", "family", "index", "vague_message", "vague_utility",
              "best_precise_message", "best_precise_utility", "margin", "p_o"]
    rows = []
    parts = [report[k] for k in ("around", "threshold") if k in report] or [report]
    for part in parts:
        for w in part["witnesses"]:
            rows.append([part["kind"], part["family"], w["index"],
                         w["vague_message"], w["vague_utility"],
                         w["best_precise_message"], w["best_precise_utility"],
                         w["margin"],
                         ";".join(_fmt_cell(float(v)) for v in w["p_o"])])
    return header, rows


def cmd_scenario(args: argparse.Namespace) -> int:
    report = scenarios.run_named_scenario(args.name, seed=args.seed,
                                          n_samples=args.samples)
    if args.csv:
        header, rows = _scenario_csv(_clean(report))
        _emit_csv(header, rows)
    else:
        _emit_json(report, paper=args.paper_format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaguetalk",
        description="Signaling-game and Bayesian-listener tools for vague language.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("posterior", help="level-0 posterior for one message")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("message", help="message spec, e.g. 'around 40' or 'between 10 70'")
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")
    p.add_argument("--paper-format", action="store_true",
                   help="round KL-like figures to 2 decimals for display")
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("speak", help="speaker choice for an observation")
    p.add_argument("scenario")
    p.add_argument("--observation", help="observation id (default: first)")
    p.add_argument("--lambda", dest="lam", type=_positive(float), default=None,
                   help="softmax temperature (default: scenario value)")
    p.add_argument("--soft", action="store_true", help="softmax instead of hard argmax")
    p.add_argument("--paper-format", action="store_true")
    p.set_defaults(func=cmd_speak)

    p = sub.add_parser("ibr", help="run the speaker/listener recursion")
    p.add_argument("scenario")
    p.add_argument("--levels", type=_positive(int), default=20)
    p.add_argument("--mode", choices=("hardmax", "softmax"), default="hardmax")
    p.add_argument("--lambda", dest="lam", type=_positive(float), default=None)
    p.add_argument("--tol", type=_positive(float), default=1e-9)
    p.add_argument("--no-fallback", action="store_true",
                   help="error on messages no observation sends")
    p.set_defaults(func=cmd_ibr)

    p = sub.add_parser("game", help="cheap-talk game tools")
    p.add_argument("game", help="game JSON file, or 'random' for a seeded batch")
    p.add_argument("sub", choices=("enumerate", "check", "dominance", "meaning",
                                   "precision", "precisify"))
    p.add_argument("--profile", help="named profile from the file, or a JSON path")
    p.add_argument("--pure", action="store_true", help="shorthand for --profile pure")
    p.add_argument("--mixed", action="store_true", help="shorthand for --profile mixed")
    p.add_argument("--n", type=_positive(int, MAX_GAMES), default=500,
                   help=f"random batch size, at most {MAX_GAMES}")
    p.add_argument("--seed", type=_seed, default=os.environ.get("VS_SEED", "0"),
                   help="non-negative integer (default: VS_SEED, else 0)")
    p.add_argument("--tol", type=_positive(float), default=1e-9)
    p.add_argument("--budget", type=_positive(int), default=games.ENUMERATION_BUDGET)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("scenario", help="built-in reports")
    p.add_argument("name", choices=scenarios.SCENARIO_NAMES)
    p.add_argument("--seed", type=_seed, default=os.environ.get("VS_SEED", "0"),
                   help="non-negative integer (default: VS_SEED, else 0)")
    p.add_argument("--samples", type=_positive(int, MAX_SAMPLES), default=40,
                   help=f"optimality-search family size, at most {MAX_SAMPLES}")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.add_argument("--paper-format", action="store_true")
    p.set_defaults(func=cmd_scenario)

    return parser


@functools.lru_cache(maxsize=1)
def _parser(vs_seed: str | None) -> argparse.ArgumentParser:
    """build_parser() for one value of VS_SEED, the only setting it reads, so a
    changed VS_SEED still takes effect; parse_args leaves a parser unchanged,
    so calls with the same value share one."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser(os.environ.get("VS_SEED")).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # reader gone (`| head`): the SIGPIPE note of the Python docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (schema.SchemaError, MessageParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ZeroPosterior, ibr.DeadMessageNoFallback, NonUniformPreconditionViolated,
            games.MissingQuestion, games.NotEnoughMessages,
            games.PreferenceHeterogeneity) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IMPOSSIBLE
    except NoTruthfulMessage as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_TRUTHFUL
    except games.BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
