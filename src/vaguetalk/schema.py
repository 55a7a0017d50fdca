"""Strict JSON schemas for scenario and game files.

Unknown keys are rejected rather than ignored, so a typo like "lamda"
fails loudly with the offending key in the message instead of silently
running with a default. All validation errors raise SchemaError with a
path-like location prefix; the CLI maps them to exit code 2. A scenario
whose listener matrices would exceed the cell budget raises
BudgetExceeded before anything that size is built (exit code 5).
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .games import BudgetExceeded, Game, MixedProfile
from .messages import (Message, MessageParseError, message_from_json,
                       precise_alternatives, vague_alternatives)
from .prob import Dist, uniform
from .scenarios import LISTENER_MODES, Scenario, default_t_priors
from .speaker import Observation

__all__ = ["SchemaError", "load_scenario", "scenario_from_obj",
           "load_game", "game_from_obj"]


#: most cells a scenario may ask of one listener matrix: the L0 matrix
#: (messages x grid points) or a vague message's truth matrix (grid points
#: x parameter values); 10 M float cells are 80 MB
_CELL_BUDGET = 10_000_000


class SchemaError(ValueError):
    """Input file violates the schema; message carries the key path."""


def _check_budget(cells: float, where: str) -> None:
    if not cells <= _CELL_BUDGET:  # an infinite count fails too
        raise BudgetExceeded(f"{where}: {cells:.4g} cells, over the budget of {_CELL_BUDGET:.4g}")


def _is_number(x: Any) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _check_keys(obj: dict, where: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing required key(s) {missing}")
    unknown = [k for k in obj if k not in required + optional]
    if unknown:
        raise SchemaError(f"{where}: unknown key(s) {unknown}")


def _number_list(value: Any, where: str, length: int | None = None) -> list[float]:
    if not isinstance(value, list) or not all(_is_number(v) for v in value):
        raise SchemaError(f"{where}: expected a list of numbers")
    if length is not None and len(value) != length:
        raise SchemaError(f"{where}: expected {length} entries, got {len(value)}")
    return [float(v) for v in value]


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e


def _parse_grid(obj: Any) -> tuple[np.ndarray, str]:
    _check_keys(obj, "grid", ("min", "max", "step", "unit"))
    for key in ("min", "max", "step"):
        if not _is_number(obj[key]):
            raise SchemaError(f"grid.{key}: expected a number")
    lo, hi, step = float(obj["min"]), float(obj["max"]), float(obj["step"])
    if not isinstance(obj["unit"], str):
        raise SchemaError("grid.unit: expected a string")
    if step <= 0 or hi < lo:
        raise SchemaError("grid: need step > 0 and max >= min")
    _check_budget((hi - lo) / step + 1, "grid (one cell per point)")
    count = int(round((hi - lo) / step)) + 1
    grid = lo + step * np.arange(count)
    if abs(grid[-1] - hi) > 1e-9:
        raise SchemaError("grid: (max - min) must be an integer multiple of step")
    return grid, obj["unit"]


def _parse_dist(value: Any, support: np.ndarray, where: str) -> Dist:
    if value == "uniform":
        return uniform(support)
    probs = _number_list(value, where, length=int(support.size))
    try:
        return Dist(support, probs)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e


def _parse_t_priors(obj: Any, grid: np.ndarray) -> dict[str, Dist]:
    priors = default_t_priors(grid)
    if obj is None:
        return priors
    if not isinstance(obj, dict):
        raise SchemaError("t_prior: expected an object keyed by vague kind")
    for kind, spec in obj.items():
        if kind not in ("around", "threshold"):
            raise SchemaError(f"t_prior: unknown vague kind {kind!r}")
        where = f"t_prior.{kind}"
        if spec == "uniform":
            continue  # the default is already uniform on the standard support
        _check_keys(spec, where, ("support",), ("probs",))
        support = np.array(_number_list(spec["support"], f"{where}.support"))
        if np.any(np.diff(support) <= 0):
            raise SchemaError(f"{where}.support: values must be strictly increasing")
        if np.any(support < 0):
            raise SchemaError(f"{where}.support: parameter values must be nonnegative")
        priors[kind] = _parse_dist(spec.get("probs", "uniform"), support,
                                   f"{where}.probs")
    return priors


def _on_grid(value: float, grid: np.ndarray) -> bool:
    return bool(np.any(grid == value))


def _parse_menu(value: Any, grid: np.ndarray) -> tuple[Message, ...]:
    if isinstance(value, dict):
        _check_keys(value, "menu", ("generate",))
        spec = value["generate"]
        parts = spec.split("+") if isinstance(spec, str) else []
        n = grid.size
        sizes = {"precise": n * (n + 1) // 2, "around": n, "threshold": 2}
        for part in parts:
            if part not in sizes:
                raise SchemaError(
                    f"menu.generate: unknown part {part!r}; combine 'precise', "
                    f"'around', 'threshold' with '+'")
        if not parts:
            raise SchemaError("menu.generate: produced an empty menu")
        size = sum(sizes[part] for part in parts)
        _check_budget(size * n, f"menu ({size} messages x {n} grid points)")
        return tuple(m for part in parts for m in (
            precise_alternatives(grid) if part == "precise" else vague_alternatives(grid, part)))
    if not isinstance(value, list) or not value:
        raise SchemaError("menu: expected a nonempty list or a generate spec")
    _check_budget(len(value) * grid.size,
                  f"menu ({len(value)} messages x {grid.size} grid points)")
    menu = []
    for i, item in enumerate(value):
        try:
            m = message_from_json(item)
        except MessageParseError as e:
            raise SchemaError(f"menu[{i}]: {e}") from e
        for label, arg in _message_bounds(m):
            if not _on_grid(arg, grid):
                raise SchemaError(
                    f"menu[{i}]: {label} bound {arg:g} is not a grid value")
        menu.append(m)
    return tuple(menu)


def _message_bounds(m: Message) -> list[tuple[str, float]]:
    return [(m.label, float(a)) for a in m.to_json()["args"]]


def _parse_observations(value: Any, grid: np.ndarray
                        ) -> tuple[tuple[Observation, ...], tuple[float, ...]]:
    if not isinstance(value, list) or not value:
        raise SchemaError("observations: expected a nonempty list")
    observations = []
    weights = []
    seen_ids = set()
    for i, item in enumerate(value):
        where = f"observations[{i}]"
        _check_keys(item, where, ("id", "probs", "weight"))
        if not isinstance(item["id"], str) or not item["id"]:
            raise SchemaError(f"{where}.id: expected a nonempty string")
        if item["id"] in seen_ids:
            raise SchemaError(f"{where}.id: duplicate id {item['id']!r}")
        seen_ids.add(item["id"])
        if not _is_number(item["weight"]) or item["weight"] < 0:
            raise SchemaError(f"{where}.weight: expected a nonnegative number")
        dist = _parse_dist(item["probs"], grid, f"{where}.probs")
        observations.append(Observation(item["id"], dist))
        weights.append(float(item["weight"]))
    if abs(sum(weights) - 1.0) > 1e-6:
        raise SchemaError(f"observations: weights sum to {sum(weights):g}, expected 1")
    total = sum(weights)
    return tuple(observations), tuple(w / total for w in weights)


def scenario_from_obj(obj: Any) -> Scenario:
    _check_keys(obj, "scenario", ("grid", "observations", "menu"),
                ("x_prior", "t_prior", "lambda", "mode"))
    grid, unit = _parse_grid(obj["grid"])
    x_prior = _parse_dist(obj.get("x_prior", "uniform"), grid, "x_prior")
    t_priors = _parse_t_priors(obj.get("t_prior"), grid)
    for kind, t in t_priors.items():
        _check_budget(grid.size * len(t),
                      f"t_prior.{kind} ({grid.size} grid points x {len(t)} parameter values)")
    observations, weights = _parse_observations(obj["observations"], grid)
    menu = _parse_menu(obj["menu"], grid)
    lam = obj.get("lambda", 4.0)
    if not _is_number(lam) or lam <= 0:
        raise SchemaError("lambda: expected a positive number")
    mode = obj.get("mode", "auto")
    if mode not in LISTENER_MODES:
        raise SchemaError(f"mode: expected one of {LISTENER_MODES}, got {mode!r}")
    try:
        return Scenario(grid=grid, unit=unit, x_prior=x_prior, t_priors=t_priors,
                        observations=observations, weights=weights, menu=menu,
                        lam=float(lam), listener_mode=mode)
    except ValueError as e:
        raise SchemaError(f"scenario: {e}") from e


def load_scenario(path: str) -> Scenario:
    return scenario_from_obj(_load_json(path))


def _parse_labels(value: Any, where: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where}: expected a nonempty list")
    labels = []
    for v in value:
        if isinstance(v, str) or _is_number(v):
            labels.append(v)
        else:
            raise SchemaError(f"{where}: labels must be strings or numbers")
    if len(set(map(str, labels))) != len(labels):
        raise SchemaError(f"{where}: labels must be distinct")
    return tuple(labels)


def _parse_matrix(value: Any, shape: tuple[int, int], where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != shape[0]:
        raise SchemaError(f"{where}: expected {shape[0]} rows")
    rows = [_number_list(row, f"{where}[{i}]", length=shape[1])
            for i, row in enumerate(value)]
    return np.array(rows)


def game_from_obj(obj: Any) -> tuple[Game, dict[str, MixedProfile]]:
    """Parse a game file; returns the game plus any named profiles."""
    _check_keys(obj, "game", ("states", "prior", "messages", "actions", "payoff"),
                ("question", "profiles"))
    states = _parse_labels(obj["states"], "states")
    messages = _parse_labels(obj["messages"], "messages")
    actions = _parse_labels(obj["actions"], "actions")
    prior = _number_list(obj["prior"], "prior", length=len(states))
    payoff = _parse_matrix(obj["payoff"], (len(states), len(actions)), "payoff")
    question = None
    if "question" in obj:
        q = obj["question"]
        if not isinstance(q, list) or not all(isinstance(c, list) for c in q):
            raise SchemaError("question: expected a list of lists of state indices")
        cells = []
        for ci, cell in enumerate(q):
            for s in cell:
                if not isinstance(s, int) or isinstance(s, bool) or \
                        not 0 <= s < len(states):
                    raise SchemaError(f"question[{ci}]: invalid state index {s!r}")
            cells.append(tuple(cell))
        question = tuple(cells)
    try:
        game = Game(states=states, prior=np.array(prior), messages=messages,
                    actions=actions, payoff=payoff, question=question)
    except ValueError as e:
        raise SchemaError(f"game: {e}") from e
    profiles: dict[str, MixedProfile] = {}
    if "profiles" in obj:
        if not isinstance(obj["profiles"], dict):
            raise SchemaError("profiles: expected an object of named profiles")
        for name, p in obj["profiles"].items():
            where = f"profiles.{name}"
            _check_keys(p, where, ("sender", "receiver"))
            sender = _parse_matrix(p["sender"], (len(states), len(messages)),
                                   f"{where}.sender")
            receiver = _parse_matrix(p["receiver"], (len(messages), len(actions)),
                                     f"{where}.receiver")
            try:
                profiles[name] = MixedProfile(sender, receiver)
            except ValueError as e:
                raise SchemaError(f"{where}: {e}") from e
    return game, profiles


def load_game(path: str) -> tuple[Game, dict[str, MixedProfile]]:
    return game_from_obj(_load_json(path))
