import csv
import io
import json
import pathlib

import pytest

from vaguetalk import games
from vaguetalk.cli import main

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
ATTENDANCE = str(DATA / "attendance.json")
TWO_MESSAGES = str(DATA / "attendance_two_messages.json")
POINTMASS = str(DATA / "pointmass.json")
SYNONYMS = str(DATA / "synonyms.json")
HEIGHTS = str(DATA / "heights3.json")
QUESTION = str(DATA / "question_game.json")

TENT = [0.04, 0.08, 0.12, 0.16, 0.20, 0.16, 0.12, 0.08, 0.04]


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse errors exit directly
        code = e.code if isinstance(e.code, int) else 2
    out, err = capsys.readouterr()
    return code, out, err


class TestPosterior:
    def test_csv_default(self, capsys):
        code, out, _ = run(capsys, "posterior", ATTENDANCE, "around 40")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["support", "prior", "posterior"]
        assert len(rows) == 10
        posterior = [float(r[2]) for r in rows[1:]]
        assert posterior == TENT
        assert rows[1][0] == "0" and rows[-1][0] == "80"

    def test_json_flag(self, capsys):
        code, out, _ = run(capsys, "posterior", ATTENDANCE,
                           "between 10 70", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["message"] == "between 10 and 70"
        assert report["unit"] == "persons"
        assert report["posterior"][0] == 0.0
        assert report["posterior"][1] == pytest.approx(1 / 7, abs=1e-12)

    def test_byte_stability(self, capsys):
        _, first, _ = run(capsys, "posterior", ATTENDANCE, "around 40", "--json")
        _, second, _ = run(capsys, "posterior", ATTENDANCE, "around 40", "--json")
        assert first == second

    def test_impossible_message_exits_3(self, capsys):
        code, _, err = run(capsys, "posterior", ATTENDANCE, "between 90 100")
        assert code == 3
        assert "error" in err

    def test_unparseable_message_exits_2(self, capsys):
        code, _, _ = run(capsys, "posterior", ATTENDANCE, "roughly 40")
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "posterior", "no_such_file.json", "tall")
        assert code == 2

    def test_bad_usage_exits_2(self, capsys):
        code, _, _ = run(capsys, "posterior")
        assert code == 2


class TestSpeak:
    def test_hardmax_choice(self, capsys):
        code, out, _ = run(capsys, "speak", ATTENDANCE)
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "hardmax"
        assert report["choice"] == "around 40"
        assert report["utility"] == pytest.approx(-0.6531295544462791, abs=1e-10)

    def test_paper_format_rounds(self, capsys):
        code, out, _ = run(capsys, "speak", ATTENDANCE, "--paper-format")
        assert code == 0
        report = json.loads(out)
        assert report["utility"] == -0.65
        by_label = {u["label"]: u["utility"] for u in report["utilities"]}
        assert by_label["between 10 and 70"] == -0.89

    def test_softmax_two_messages(self, capsys):
        code, out, _ = run(capsys, "speak", TWO_MESSAGES, "--soft")
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "softmax"
        assert report["lambda"] == 1.0
        probs = {d["label"]: d["prob"] for d in report["distribution"]}
        assert probs["around 40"] == pytest.approx(0.5589, abs=2e-3)
        assert probs["between 10 and 70"] == pytest.approx(0.4411, abs=2e-3)

    def test_lambda_override(self, capsys):
        _, out, _ = run(capsys, "speak", TWO_MESSAGES, "--soft",
                        "--lambda", "100")
        probs = {d["label"]: d["prob"] for d in json.loads(out)["distribution"]}
        assert probs["around 40"] > 0.99

    def test_pointmass_prefers_exact(self, capsys):
        _, out, _ = run(capsys, "speak", POINTMASS)
        report = json.loads(out)
        assert report["choice"] == "exactly 40"
        assert report["utility"] == 0.0

    def test_no_truthful_message_exits_4(self, capsys, tmp_path):
        obj = {
            "grid": {"min": 0, "max": 20, "step": 10, "unit": "u"},
            "observations": [{"id": "o", "probs": [0.5, 0.0, 0.5], "weight": 1}],
            "menu": [{"kind": "exact", "args": [0]}],
        }
        path = tmp_path / "hopeless.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "speak", str(path))
        assert code == 4
        assert "error" in err


class TestIbr:
    def test_attendance_trace(self, capsys):
        code, out, _ = run(capsys, "ibr", ATTENDANCE)
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is True
        assert report["fixed_point_level"] == 1
        assert report["final_speaker_pure"] is True
        assert report["cycle_detected"] is False
        check = report["fixed_point_check"]
        assert check["speaker_ok"] and check["listener_ok"]
        assert check["speaker_residual"] == 0.0
        # level 0 has no speaker
        assert report["levels"][0]["speaker"] is None

    def test_no_fallback_exits_3(self, capsys):
        # 53 menu messages go unsent; without the literal fallback the
        # listener row for them is undefined
        code, _, err = run(capsys, "ibr", ATTENDANCE, "--no-fallback")
        assert code == 3
        assert "never sent" in err

    def test_softmax_mode(self, capsys):
        code, out, _ = run(capsys, "ibr", SYNONYMS, "--mode", "softmax",
                           "--lambda", "4")
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is True

    def test_level_cap(self, capsys):
        code, out, _ = run(capsys, "ibr", ATTENDANCE, "--levels", "1")
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is False
        assert len(report["levels"]) == 2


class TestGame:
    def test_enumerate_heights(self, capsys):
        code, out, _ = run(capsys, "game", HEIGHTS, "enumerate")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 18
        assert report["best_payoff"] == pytest.approx(2 / 3, abs=1e-9)
        assert len(report["equilibria"]) == 18

    def test_check_named_profiles(self, capsys):
        code, out, _ = run(capsys, "game", HEIGHTS, "check", "--mixed")
        report = json.loads(out)
        assert code == 0 and report["nash"] is True
        assert report["payoff"] == pytest.approx(2 / 3, abs=1e-9)
        code, out, _ = run(capsys, "game", HEIGHTS, "check", "--pure")
        assert json.loads(out)["nash"] is True

    def test_check_needs_profile_when_ambiguous(self, capsys):
        code, _, err = run(capsys, "game", HEIGHTS, "check")
        assert code == 2
        assert "--profile" in err

    def test_check_profile_from_path(self, capsys, tmp_path):
        p = tmp_path / "profile.json"
        p.write_text(json.dumps({
            "sender": [[1, 0], [1, 0], [0, 1]],
            "receiver": [[1, 0, 0], [0, 0, 1]],
        }))
        code, out, _ = run(capsys, "game", HEIGHTS, "check",
                           "--profile", str(p))
        assert code == 0
        assert json.loads(out)["nash"] is True

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["directory", "bad-json"])
    def test_unreadable_profile_path_exits_2(self, capsys, tmp_path, content):
        path = tmp_path
        if content is not None:
            path = tmp_path / "profile.json"
            path.write_text(content)
        code, _, err = run(capsys, "game", QUESTION, "check", "--profile", str(path))
        assert code == 2
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_dominance_on_file(self, capsys):
        code, out, _ = run(capsys, "game", HEIGHTS, "dominance", "--seed", "0")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert report["n_verified"] >= 1
        assert report["best_pure_payoff"] == pytest.approx(2 / 3, abs=1e-9)

    def test_random_batch(self, capsys):
        code, out, _ = run(capsys, "game", "random", "dominance",
                           "--n", "5", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["games"] == 5
        assert report["all_pass"] is True
        assert report["failures"] == []

    def test_random_only_supports_dominance(self, capsys):
        code, _, _ = run(capsys, "game", "random", "enumerate")
        assert code == 2

    def test_vs_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("VS_SEED", "9")
        code, out, _ = run(capsys, "game", "random", "dominance", "--n", "2")
        assert code == 0
        assert json.loads(out)["seed"] == 9

    def test_meaning(self, capsys):
        code, out, _ = run(capsys, "game", HEIGHTS, "meaning", "--pure")
        report = json.loads(out)
        assert code == 0
        assert report["kind"] == "PARTITION"
        code, out, _ = run(capsys, "game", HEIGHTS, "meaning", "--mixed")
        assert json.loads(out)["kind"] == "COVER"

    def test_precision_defaults_to_single_profile(self, capsys):
        code, out, _ = run(capsys, "game", QUESTION, "precision")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "VagueWrtQuestion"
        assert report["cell_priors"][1] == pytest.approx(2 / 3, abs=1e-12)
        posterior_m = next(p for p in report["posteriors"]
                           if p["message"] == "m")
        assert posterior_m["cells"] == [0.5, 0.5]

    def test_precision_without_question_exits_3(self, capsys):
        code, _, _ = run(capsys, "game", HEIGHTS, "precision", "--pure")
        assert code == 3

    def test_precisify(self, capsys):
        code, out, _ = run(capsys, "game", QUESTION, "precisify")
        assert code == 0
        report = json.loads(out)
        assert report["sender_map"] == [1, 1, 0]
        assert report["receiver_map"] == [0, 1]
        assert report["nash"] is True
        assert report["verdict"] == "Precise"
        assert report["payoff"] == 1.0

    def test_budget_exits_5(self, capsys):
        code, _, err = run(capsys, "game", HEIGHTS, "enumerate",
                           "--budget", "10")
        assert code == 5
        assert "budget" in err



#: scenario files past the 10 M cell budget, each in a different way
OVERSIZE = {
    # 301 * 302 / 2 + 301 = 45 752 messages x 301 grid points: 13.8 M cells
    "menu": ({"min": 0, "max": 300, "step": 1}, {"generate": "precise+around"}),
    # a 2-message menu, but "tall" needs 4 001 points x 4 001 default thresholds
    "t_prior": ({"min": 0, "max": 4000, "step": 1}, {"generate": "threshold"}),
    # 10 000 001 points: rejected before the grid is built
    "grid": ({"min": 0, "max": 10_000_000, "step": 1}, [{"kind": "exact", "args": [0]}]),
}


@pytest.mark.parametrize("argv", [("posterior", "tall"), ("speak",), ("ibr",)],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("size", OVERSIZE)
def test_oversize_scenario_exits_5(capsys, tmp_path, size, argv):
    grid, menu = OVERSIZE[size]
    path = tmp_path / "oversize.json"
    path.write_text(json.dumps({
        "grid": {**grid, "unit": "u"},
        "observations": [{"id": "o", "probs": "uniform", "weight": 1}],
        "menu": menu,
    }))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 5
    assert out == ""
    assert err.startswith(f"error: {size}") and err.count("\n") == 1
    assert "over the budget of 1e+07" in err


class TestScenario:
    def test_around_table1_json(self, capsys):
        code, out, _ = run(capsys, "scenario", "around-table1")
        assert code == 0
        report = json.loads(out)
        assert report["kl_between_2dp"] == 0.89
        assert report["kl_around_2dp"] == 0.65
        assert report["winner"] == "around 40"
        assert report["winner_strict"] is True
        assert report["posterior_around"] == TENT

    def test_paper_format(self, capsys):
        _, out, _ = run(capsys, "scenario", "around-table1", "--paper-format")
        report = json.loads(out)
        assert report["kl_between"] == 0.89
        assert report["kl_around"] == 0.65

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "scenario", "tall-uniform", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header = rows[0]
        assert header[:3] == ["support", "prior", "p_o"]
        assert "posterior_tall" in header
        assert "kl_tall" in header
        assert len(rows) == 12  # header + 11 grid points
        tall_col = header.index("posterior_tall")
        assert float(rows[-1][tall_col]) == pytest.approx(1 / 6, abs=1e-12)

    def test_csv_handles_inf(self, capsys):
        _, out, _ = run(capsys, "scenario", "tall-uniform", "--csv")
        rows = list(csv.reader(io.StringIO(out)))
        col = rows[0].index("kl_at least 170")
        assert rows[1][col] == "inf"

    def test_tall_gaussian(self, capsys):
        code, out, _ = run(capsys, "scenario", "tall-gaussian")
        report = json.loads(out)
        assert code == 0
        assert report["ratio_inequality_ok"] is True
        assert report["mode_shifted_up"] is True

    def test_optimality_search(self, capsys):
        code, out, _ = run(capsys, "scenario", "optimality-search",
                           "--samples", "5", "--seed", "0")
        assert code == 0
        report = json.loads(out)
        assert report["around"]["n_witnesses"] >= 1
        assert report["threshold"]["n_witnesses"] >= 1

    def test_search_csv(self, capsys):
        code, out, _ = run(capsys, "scenario", "optimality-search", "--csv",
                           "--samples", "5", "--seed", "0")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "kind"
        assert any(r[0] == "around" for r in rows[1:])
        assert any(r[0] == "threshold" for r in rows[1:])

    def test_unknown_name_exits_2(self, capsys):
        code, _, _ = run(capsys, "scenario", "table1")
        assert code == 2

    def test_byte_stability_across_runs(self, capsys):
        _, a, _ = run(capsys, "scenario", "around-table1")
        _, b, _ = run(capsys, "scenario", "around-table1")
        assert a == b
        _, c, _ = run(capsys, "scenario", "optimality-search",
                      "--samples", "8", "--seed", "3")
        _, d, _ = run(capsys, "scenario", "optimality-search",
                      "--samples", "8", "--seed", "3")
        assert c == d


class TestBadNumbers:
    @pytest.mark.parametrize("argv", [
        ("ibr", ATTENDANCE, "--levels", "0"),
        ("ibr", ATTENDANCE, "--levels", "two"),
        ("ibr", ATTENDANCE, "--tol", "0"),
        ("ibr", SYNONYMS, "--mode", "softmax", "--lambda", "-1"),
        ("speak", TWO_MESSAGES, "--soft", "--lambda", "-1"),
        ("speak", TWO_MESSAGES, "--soft", "--lambda", "nan"),
        ("game", HEIGHTS, "enumerate", "--budget", "-5"),
        ("game", HEIGHTS, "check", "--mixed", "--tol", "-1"),
        ("game", "random", "dominance", "--n", "-3"),
        ("scenario", "optimality-search", "--samples", "0"),
        ("game", "random", "dominance", "--n", "1", "--seed", "-1"),
        ("scenario", "optimality-search", "--seed", "-1"),
    ])
    def test_out_of_range_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("vaguetalk ")  # argparse's error line

    @pytest.mark.parametrize("vs_seed", ["-4", "abc"])
    def test_bad_vs_seed_exits_2(self, capsys, monkeypatch, vs_seed):
        monkeypatch.setenv("VS_SEED", vs_seed)
        code, out, err = run(capsys, "game", "random", "dominance", "--n", "1")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("vaguetalk game: error: argument --seed")

    def test_unknown_observation_exits_2(self, capsys):
        code, _, err = run(capsys, "speak", ATTENDANCE, "--observation", "nosuch")
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_internal_key_error_is_not_bad_input(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")
        monkeypatch.setattr(games, "enumerate_pure_equilibria", broken)
        with pytest.raises(KeyError):
            main(["game", HEIGHTS, "enumerate"])
