import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from vaguetalk import (Around, Between, BudgetExceeded, SchemaError, game_from_obj,
                       load_game, load_scenario, scenario_from_obj)

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


def minimal_scenario_obj():
    return {
        "grid": {"min": 0, "max": 80, "step": 10, "unit": "persons"},
        "observations": [
            {"id": "o1",
             "probs": [0, 0.01, 0.01, 0.16, 0.64, 0.16, 0.01, 0.01, 0],
             "weight": 1.0},
        ],
        "menu": {"generate": "precise+around"},
    }


def minimal_game_obj():
    return {
        "states": ["a", "b"],
        "prior": [0.5, 0.5],
        "messages": ["m0", "m1"],
        "actions": ["x", "y"],
        "payoff": [[1, 0], [0, 1]],
    }


class TestScenarioParsing:
    def test_minimal(self):
        sc = scenario_from_obj(minimal_scenario_obj())
        assert sc.grid.tolist() == list(np.arange(0.0, 81.0, 10.0))
        assert sc.unit == "persons"
        assert len(sc.menu) == 54
        assert sc.lam == 4.0
        assert sc.listener_mode == "auto"
        # defaults: uniform x prior, uniform t priors
        assert np.allclose(sc.x_prior.probs, 1 / 9)

    def test_explicit_fields(self):
        obj = minimal_scenario_obj()
        obj["x_prior"] = "uniform"
        obj["t_prior"] = {"around": "uniform"}
        obj["lambda"] = 1.0
        obj["mode"] = "bruteforce"
        obj["menu"] = [{"kind": "around", "args": [40]},
                       {"kind": "between", "args": [10, 70]}]
        sc = scenario_from_obj(obj)
        assert sc.menu == (Around(40.0), Between(10.0, 70.0))
        assert sc.lam == 1.0
        assert sc.listener_mode == "bruteforce"

    def test_explicit_t_prior_support(self):
        obj = minimal_scenario_obj()
        obj["t_prior"] = {"around": {"support": [0, 10, 20],
                                     "probs": [0.5, 0.3, 0.2]}}
        sc = scenario_from_obj(obj)
        assert sc.t_priors["around"].probs.tolist() == [0.5, 0.3, 0.2]

    def test_unknown_key_rejected(self):
        obj = minimal_scenario_obj()
        obj["gird"] = obj["grid"]
        with pytest.raises(SchemaError, match="unknown key"):
            scenario_from_obj(obj)

    def test_missing_key_rejected(self):
        obj = minimal_scenario_obj()
        del obj["menu"]
        with pytest.raises(SchemaError, match="missing required"):
            scenario_from_obj(obj)

    def test_grid_validation(self):
        obj = minimal_scenario_obj()
        obj["grid"] = {"min": 0, "max": 85, "step": 10, "unit": "u"}
        with pytest.raises(SchemaError, match="multiple of step"):
            scenario_from_obj(obj)
        obj["grid"] = {"min": 0, "max": 80, "step": 0, "unit": "u"}
        with pytest.raises(SchemaError):
            scenario_from_obj(obj)

    def test_menu_bounds_must_sit_on_grid(self):
        obj = minimal_scenario_obj()
        obj["menu"] = [{"kind": "around", "args": [45]}]
        with pytest.raises(SchemaError, match="grid"):
            scenario_from_obj(obj)

    def test_observation_probs_length(self):
        obj = minimal_scenario_obj()
        obj["observations"][0]["probs"] = [0.5, 0.5]
        with pytest.raises(SchemaError):
            scenario_from_obj(obj)

    def test_duplicate_observation_ids(self):
        obj = minimal_scenario_obj()
        obj["observations"].append(dict(obj["observations"][0]))
        obj["observations"][0]["weight"] = 0.5
        obj["observations"][1]["weight"] = 0.5
        with pytest.raises(SchemaError, match="duplicate"):
            scenario_from_obj(obj)

    def test_weights_renormalized_within_tolerance(self):
        obj = minimal_scenario_obj()
        obj["observations"][0]["weight"] = 1.0000004
        sc = scenario_from_obj(obj)
        assert sc.weights == (1.0,)
        obj["observations"][0]["weight"] = 0.8
        with pytest.raises(SchemaError, match="sum"):
            scenario_from_obj(obj)

    def test_boolean_is_not_a_number(self):
        obj = minimal_scenario_obj()
        obj["lambda"] = True
        with pytest.raises(SchemaError):
            scenario_from_obj(obj)

    def test_bad_mode(self):
        obj = minimal_scenario_obj()
        obj["mode"] = "quick"
        with pytest.raises(SchemaError, match="mode"):
            scenario_from_obj(obj)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(minimal_scenario_obj()))
        sc = load_scenario(str(path))
        assert len(sc.menu) == 54

    def test_load_errors(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_scenario(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_scenario(str(bad))

    def test_cell_budget_admits_the_n_201_scaling_row(self):
        obj = minimal_scenario_obj()
        obj["grid"] = {"min": 0, "max": 200, "step": 1, "unit": "u"}
        obj["observations"][0]["probs"] = "uniform"
        sc = scenario_from_obj(obj)  # 20 502 messages x 201 points = 4.1 M cells
        assert len(sc.menu) == 20_502

    def test_cell_budget_covers_listed_menus(self):
        obj = minimal_scenario_obj()
        obj["grid"] = {"min": 0, "max": 99_999, "step": 1, "unit": "u"}
        obj["t_prior"] = {kind: {"support": [0]} for kind in ("around", "threshold")}
        obj["observations"][0]["probs"] = "uniform"
        obj["menu"] = [{"kind": "exact", "args": [k]} for k in range(100)]
        assert len(scenario_from_obj(obj).menu) == 100  # exactly 10 M cells
        obj["menu"].append({"kind": "exact", "args": [100]})
        with pytest.raises(BudgetExceeded, match=r"menu \(101 messages x 100000 grid points\)"):
            scenario_from_obj(obj)


    def test_default_t_priors_are_sized_before_they_are_built(self):
        obj = minimal_scenario_obj()
        obj["grid"] = {"min": 0, "max": 1_999_999, "step": 1, "unit": "u"}
        obj["observations"][0]["probs"] = "uniform"
        obj["menu"] = [{"kind": "exact", "args": [0]}]
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=r"^t_prior\.around \(2000000 grid points x "
                                                     r"1000000 parameter values\)"):
                scenario_from_obj(obj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6  # the grid alone is 16 MB

    def test_given_t_priors_replace_the_sized_defaults(self):
        obj = minimal_scenario_obj()
        obj["grid"] = {"min": 0, "max": 9_999, "step": 1, "unit": "u"}
        obj["observations"][0]["probs"] = "uniform"
        obj["menu"] = [{"kind": "exact", "args": [0]}]
        obj["t_prior"] = {"around": {"support": [0, 1]}}
        with pytest.raises(BudgetExceeded, match=r"^t_prior\.threshold \(10000 grid points"):
            scenario_from_obj(obj)
        obj["t_prior"]["threshold"] = {"support": [5]}
        sc = scenario_from_obj(obj)
        assert list(sc.t_priors) == ["around", "threshold"]
        assert [len(t) for t in sc.t_priors.values()] == [2, 1]


class TestGameParsing:
    def test_minimal(self):
        g, profiles = game_from_obj(minimal_game_obj())
        assert g.states == ("a", "b")
        assert g.n_messages == 2
        assert profiles == {}
        assert g.question is None

    def test_question_and_profiles(self):
        obj = minimal_game_obj()
        obj["question"] = [[0], [1]]
        obj["profiles"] = {
            "sep": {"sender": [[1, 0], [0, 1]], "receiver": [[1, 0], [0, 1]]},
        }
        g, profiles = game_from_obj(obj)
        assert g.question == ((0,), (1,))
        assert profiles["sep"].is_pure

    def test_label_duplicates(self):
        obj = minimal_game_obj()
        obj["states"] = ["a", "a"]
        with pytest.raises(SchemaError, match="distinct"):
            game_from_obj(obj)

    def test_payoff_shape_errors(self):
        obj = minimal_game_obj()
        obj["payoff"] = [[1, 0]]
        with pytest.raises(SchemaError):
            game_from_obj(obj)
        obj["payoff"] = [[1], [0]]
        with pytest.raises(SchemaError):
            game_from_obj(obj)

    def test_question_index_validation(self):
        obj = minimal_game_obj()
        obj["question"] = [[0], [2]]
        with pytest.raises(SchemaError, match="question"):
            game_from_obj(obj)
        obj["question"] = [[0], [True]]
        with pytest.raises(SchemaError, match="question"):
            game_from_obj(obj)

    def test_question_must_partition(self):
        obj = minimal_game_obj()
        obj["question"] = [[0]]
        with pytest.raises(SchemaError):
            game_from_obj(obj)

    def test_profile_shape_errors(self):
        obj = minimal_game_obj()
        obj["profiles"] = {"bad": {"sender": [[1, 0]], "receiver": [[1, 0], [0, 1]]}}
        with pytest.raises(SchemaError):
            game_from_obj(obj)

    def test_profile_rows_must_be_stochastic(self):
        obj = minimal_game_obj()
        obj["profiles"] = {"bad": {"sender": [[0.7, 0.7], [1, 0]],
                                   "receiver": [[1, 0], [0, 1]]}}
        with pytest.raises(SchemaError):
            game_from_obj(obj)

    def test_shipped_data_files_load(self):
        g, profiles = load_game(str(DATA / "heights3.json"))
        assert g.n_states == 3
        assert set(profiles) == {"pure", "mixed"}
        g2, p2 = load_game(str(DATA / "question_game.json"))
        assert g2.question == ((2,), (0, 1))
        assert "vague" in p2

    def test_shipped_scenarios_load(self):
        for name in ("attendance", "attendance_two_messages",
                     "pointmass", "synonyms"):
            sc = load_scenario(str(DATA / f"{name}.json"))
            assert len(sc.menu) >= 1
