import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from typing import Any

import numpy as np
import pytest

from vaguetalk import cli, games, listener
from vaguetalk.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
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

    def test_iterate_and_its_check_build_one_l0(self, capsys, monkeypatch):
        # the L0 store keys on the prior's identity, and both calls read sc.prior
        builds, build = [], listener._literal_outcomes
        monkeypatch.setattr(listener, "_literal_outcomes",
                            lambda prior, menu: builds.append(len(menu)) or build(prior, menu))
        monkeypatch.setattr(listener, "_last_rows", None)
        code, out, _ = run(capsys, "ibr", ATTENDANCE)
        assert code == 0 and json.loads(out)["fixed_point_check"]["listener_ok"]
        assert builds == [54]

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

    # sha256 of `ibr <file> --mode softmax` stdout, recorded from the dense
    # recursion that computed a full utility table at every level
    @pytest.mark.parametrize("name, digest", [
        ("attendance.json", "d17dff8637aa5f91ff33294a7b90e0bda38548020de68abbc833d6dfcddd3864"),
        ("attendance_two_messages.json",
         "7dc11543e62617456a38c762787628c3b9c9b7025a00715919629df9ddcf99c2"),
        ("pointmass.json", "902c656a858db3d777e0c726123ea0b1c53ba400634f9fe97ebcc747957adb32"),
        ("synonyms.json", "8ac1d657949e558e3152f3b11c8639679269ec1edbac3b7dd993313f5b9c349a"),
    ])
    def test_softmax_output_is_pinned(self, capsys, name, digest):
        code, out, _ = run(capsys, "ibr", str(DATA / name), "--mode", "softmax")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # attendance writes 17 KB, so print itself meets the closed pipe; the
    # 1 KB of attendance_two_messages stays buffered until main flushes it
    @pytest.mark.parametrize("path", [ATTENDANCE, TWO_MESSAGES])
    def test_closed_pipe_exits_1_without_a_traceback(self, path):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first byte
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        try:
            proc = subprocess.run([sys.executable, "-m", "vaguetalk.cli", "ibr", path,
                                   "--mode", "softmax"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=300)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


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

    @pytest.mark.parametrize("content", [
        None, "{not json", json.dumps({"sender": [[1, 0]], "receiver": [[1, 0], [0, 1]]})],
        ids=["directory", "bad-json", "misfit"])
    def test_unreadable_profile_path_exits_2(self, capsys, tmp_path, content):
        path = tmp_path
        if content is not None:
            path = tmp_path / "profile.json"
            path.write_text(content)
        code, _, err = run(capsys, "game", QUESTION, "check", "--profile", str(path))
        assert code == 2
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert str(path) in err

    def test_dominance_on_file(self, capsys):
        code, out, _ = run(capsys, "game", HEIGHTS, "dominance", "--seed", "0")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert report["n_verified"] >= 1
        assert report["best_pure_payoff"] == pytest.approx(2 / 3, abs=1e-9)

    def test_dominance_on_a_wide_game_exits_5(self, capsys, tmp_path):
        # 10^2 * 10^10 pure profiles: the candidates stop at the cap after a
        # few receiver maps, and enumeration refuses the size
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "states": ["a", "b"], "prior": [0.5, 0.5],
            "messages": [f"m{i}" for i in range(10)],
            "actions": [f"x{i}" for i in range(10)],
            "payoff": [[1] + [0] * 9, [0, 1] + [0] * 8],
        }))
        code, out, err = run(capsys, "game", str(path), "dominance")
        assert code == 5
        assert out == ""
        assert "budget" in err

    def test_dominance_on_a_file_with_a_misfit_profile_exits_2(self, capsys, tmp_path):
        game = json.loads(pathlib.Path(HEIGHTS).read_text())
        game["profiles"]["mixed"]["sender"] = [[1, 0], [0, 1]]
        path = tmp_path / "misfit.json"
        path.write_text(json.dumps(game))
        code, out, err = run(capsys, "game", str(path), "dominance")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: profiles.mixed.sender")

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


#: scenario files for the exit-code table, written to its working directory
TABLE_FILES = {
    "hopeless.json": {  # no message is true of the whole observation
        "grid": {"min": 0, "max": 20, "step": 10, "unit": "u"},
        "observations": [{"id": "o", "probs": [0.5, 0.0, 0.5], "weight": 1}],
        "menu": [{"kind": "exact", "args": [0]}],
    },
    "closedform.json": {  # closed-form mode outside the uniform setting
        "grid": {"min": 0, "max": 80, "step": 10, "unit": "persons"},
        "x_prior": TENT,
        "observations": [{"id": "o1", "probs": [0.0, 0.01, 0.01, 0.16, 0.64, 0.16,
                                                0.01, 0.01, 0.0], "weight": 1}],
        "menu": [{"kind": "around", "args": [40]}, {"kind": "between", "args": [10, 70]}],
        "mode": "closedform",
    },
    "nan_bound.json": {  # json.dumps writes the bound as NaN
        "grid": {"min": 0, "max": 20, "step": 10, "unit": "u"},
        "observations": [{"id": "o", "probs": "uniform", "weight": 1}],
        "menu": [{"kind": "between", "args": [10, math.nan]}],
    },
    "bool_bound.json": {  # JSON true and false are not the numbers 1 and 0
        "grid": {"min": 0, "max": 2, "step": 1, "unit": "u"},
        "observations": [{"id": "o", "probs": [0.5, 0.5, 0.0], "weight": 1}],
        "menu": [{"kind": "between", "args": [False, True]}],
    },
    "oversize.json": {
        "grid": {**OVERSIZE["grid"][0], "unit": "u"},
        "observations": [{"id": "o", "probs": "uniform", "weight": 1}],
        "menu": OVERSIZE["grid"][1],
    },
    "huge_step.json": {  # an integer past the float range
        "grid": {"min": 0, "max": 80, "step": 10 ** 400, "unit": "u"},
        "observations": [{"id": "o", "probs": "uniform", "weight": 1}],
        "menu": {"generate": "around"},
    },
    "huge_label.json": {
        "states": ["a", 10 ** 400], "prior": [0.5, 0.5], "messages": ["m", "n"],
        "actions": ["x", "y"], "payoff": [[1, 0], [0, 1]],
    },
    "huge_profile.json": {"sender": [[1, 0], [1, 0], [0, 10 ** 400]],
                          "receiver": [[1, 0, 0], [0, 0, 1]]},
    # JSON text, since json.dumps cannot write an integer longer than Python
    # parses by default (4 300 digits)
    "digit_limit.json": '{"grid": {"min": 0, "max": 80, "step": %s, "unit": "u"}}' % ("9" * 5000),
    "empty_interval.json": {
        "grid": {"min": 0, "max": 20, "step": 10, "unit": "u"},
        "observations": [{"id": "o", "probs": "uniform", "weight": 1}],
        "menu": [{"kind": "between", "args": [20, 10]}],
    },
    "bare_arg.json": {  # args is a number, not a list
        "grid": {"min": 0, "max": 20, "step": 10, "unit": "u"},
        "observations": [{"id": "o", "probs": "uniform", "weight": 1}],
        "menu": [{"kind": "around", "args": 10}],
    },
    "list_kind.json": {
        "grid": {"min": 0, "max": 20, "step": 10, "unit": "u"},
        "observations": [{"id": "o", "probs": "uniform", "weight": 1}],
        "menu": [{"kind": ["around"], "args": [10]}],
    },
}

#: every documented exit code each subcommand can reach; only speak honours
#: "mode", so the closed-form file fails there alone
EXIT_CODES = [
    (("posterior", ATTENDANCE, "around 40"), 0),
    (("posterior", "closedform.json", "around 40"), 0),
    (("posterior", ATTENDANCE, "roughly 40"), 2),
    (("posterior", ATTENDANCE, "between 10 nan"), 2),
    (("posterior", ATTENDANCE, "around inf"), 2),
    (("posterior", ATTENDANCE, "between 90 100"), 3),
    (("posterior", "oversize.json", "tall"), 5),
    (("posterior", ATTENDANCE, "between 10 70 90"), 2),
    (("posterior", ATTENDANCE, "around 40 50"), 2),
    (("posterior", ATTENDANCE, "between 70 10"), 2),
    (("posterior", "huge_step.json", "around 40"), 2),
    (("posterior", "digit_limit.json", "around 40"), 2),
    (("posterior", "empty_interval.json", "around 10"), 2),
    (("posterior", "bare_arg.json", "around 10"), 2),
    (("posterior", "list_kind.json", "around 10"), 2),
    (("speak", ATTENDANCE), 0),
    (("speak", ATTENDANCE, "--observation", "nosuch"), 2),
    (("speak", "closedform.json"), 3),
    (("speak", "bool_bound.json"), 2),
    (("speak", "hopeless.json"), 4),
    (("speak", "oversize.json"), 5),
    (("ibr", ATTENDANCE), 0),
    (("ibr", "closedform.json"), 0),
    (("ibr", "no_such_file.json"), 2),
    (("ibr", "nan_bound.json"), 2),
    (("ibr", ATTENDANCE, "--no-fallback"), 3),
    (("ibr", "hopeless.json"), 4),
    (("ibr", "oversize.json"), 5),
    (("game", HEIGHTS, "enumerate"), 0),
    (("game", "random", "enumerate"), 2),
    (("game", HEIGHTS, "precision", "--pure"), 3),
    (("game", HEIGHTS, "enumerate", "--budget", "10"), 5),
    (("game", "huge_label.json", "enumerate"), 2),
    (("game", HEIGHTS, "check", "--profile", "huge_profile.json"), 2),
    (("scenario", "tall-uniform"), 0),
    (("scenario", "no-such-report"), 2),
]


@pytest.mark.parametrize("argv, code", EXIT_CODES, ids=[
    "-".join([argv[0], str(code)] + [pathlib.Path(a).stem.replace(" ", "_") for a in argv[1:]])
    for argv, code in EXIT_CODES])
def test_documented_exit_codes(capsys, tmp_path, monkeypatch, argv, code):
    for name, obj in TABLE_FILES.items():
        (tmp_path / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 0:
        assert out and err == ""
    else:
        assert out == "" and "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1


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
        ("game", "random", "dominance", "--n", "100001"),
        ("game", "random", "dominance", "--n", "50000000"),
        ("scenario", "optimality-search", "--samples", "10001"),
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


class TestParserReuse:
    RANDOM = ("game", "random", "dominance", "--n", "1")

    def test_vs_seed_is_read_at_each_call(self, capsys, monkeypatch):
        monkeypatch.setenv("VS_SEED", "9")
        code, out, _ = run(capsys, *self.RANDOM)
        assert code == 0 and json.loads(out)["seed"] == 9
        monkeypatch.delenv("VS_SEED")
        code, out, _ = run(capsys, *self.RANDOM)
        assert code == 0 and json.loads(out)["seed"] == 0
        monkeypatch.setenv("VS_SEED", "abc")
        code, out, err = run(capsys, *self.RANDOM)
        assert code == 2 and out == ""
        assert err.splitlines()[-1].startswith("vaguetalk game: error: argument --seed")
        monkeypatch.setenv("VS_SEED", "3")
        code, out, _ = run(capsys, *self.RANDOM)
        assert code == 0 and json.loads(out)["seed"] == 3

    def test_same_vs_seed_reuses_the_parser(self, capsys, monkeypatch):
        monkeypatch.setenv("VS_SEED", "4")
        run(capsys, *self.RANDOM)
        hits = cli._parser.cache_info().hits
        code, out, _ = run(capsys, *self.RANDOM)
        assert code == 0 and json.loads(out)["seed"] == 4
        assert cli._parser.cache_info().hits == hits + 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


def reference_clean(value: Any) -> Any:
    """cli._clean as it was before float arrays were formatted in one pass:
    one Python call per value."""
    if isinstance(value, dict):
        return {k: reference_clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_clean(v) for v in value]
    if isinstance(value, (np.floating, float)):
        x = float(value)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return float(f"{x:.12g}")
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [reference_clean(v) for v in value.tolist()]
    return value


def random_report(rng, depth=0):
    """A nested report of dicts, lists and tuples over the leaves a report
    holds: floats with nan, +-inf and -0.0, numpy scalars and 0-3-d arrays."""
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1 / 3, 1e-300, 123456789.123456789]
    kind = int(rng.integers(10 if depth < 3 else 6))
    if kind == 0:
        if rng.random() < 0.5:
            return float(rng.choice(special))
        return float(rng.normal() * 10.0 ** rng.integers(-20, 20))
    if kind == 1:
        return np.float32(rng.normal())
    if kind == 2:
        return np.int64(rng.integers(-1000, 1000))
    if kind == 3:
        return [None, True, "text", 7][int(rng.integers(4))]
    if kind in (4, 5):
        shape = tuple(int(k) for k in rng.integers(0, 4, size=int(rng.integers(0, 4))))
        dtype = [np.float64, np.float32, np.int64, bool][int(rng.integers(4))]
        a = np.asarray(rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5)).astype(dtype)
        if a.dtype.kind == "f" and a.size and rng.random() < 0.5:
            a.flat[int(rng.integers(a.size))] = rng.choice(special)
        return a
    items = [random_report(rng, depth + 1) for _ in range(int(rng.integers(4)))]
    if kind == 6:
        return tuple(items)
    if kind == 7:
        return items
    return {f"k{i}": v for i, v in enumerate(items)}


def zero_d_as_scalars(value):
    """The report with each 0-d array replaced by its Python scalar, since
    the reference cannot iterate a 0-d array."""
    if isinstance(value, dict):
        return {k: zero_d_as_scalars(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(zero_d_as_scalars(v) for v in value)
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return value.tolist()
    return value


def test_clean_matches_the_one_call_per_value_reference():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        report = random_report(rng)
        want = json.dumps(reference_clean(zero_d_as_scalars(report)), sort_keys=True,
                          allow_nan=False)
        assert json.dumps(cli._clean(report), sort_keys=True, allow_nan=False) == want


@pytest.mark.parametrize("value, want", [
    (np.True_, "true"),
    (np.False_, "false"),
    (np.array(True), "true"),
    (np.array([[True, False]]), "[[true, false]]"),
    ({"nash": np.bool_(False), "entries": [np.True_]}, '{"nash": false, "entries": [true]}'),
])
def test_clean_writes_numpy_bools_as_json_bools(value, want):
    assert json.dumps(cli._clean(value)) == want


class TestResultBudget:
    @staticmethod
    def constant_game(n_states):
        """Every profile of a constant-payoff game is an equilibrium: 2^n * 4
        of them, 8.4 M at 21 states, inside the search budget."""
        return {"states": [f"s{i}" for i in range(n_states)],
                "prior": [1.0 / n_states] * n_states,
                "messages": ["m0", "m1"], "actions": ["x0", "x1"],
                "payoff": [[1.0, 1.0]] * n_states}

    @pytest.mark.parametrize("sub", ["enumerate", "dominance"])
    def test_cli_exits_5_with_one_line(self, capsys, tmp_path, sub):
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(self.constant_game(21)))
        code, out, err = run(capsys, "game", str(path), sub)
        assert code == 5
        assert out == ""
        assert err == "error: pure equilibria exceed the result budget 100000\n"
