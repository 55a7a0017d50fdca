import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vaguetalk import (SHORT, TALL, Around, AtLeast, AtMost, Between, Exact,
                       IndependentPrior, Message, MessageParseError, MissingParameter,
                       Threshold, denotation, denotation_vector, literal_update,
                       message_from_json, parse_message, precise_alternatives, uniform,
                       vague_alternatives)

GRID = np.arange(0.0, 81.0, 10.0)


class TestDenotations:
    def test_exact(self):
        m = Exact(40.0)
        assert denotation(m, 40.0)
        assert not denotation(m, 41.0)

    def test_between_inclusive_ends(self):
        m = Between(10.0, 70.0)
        assert denotation(m, 10.0) and denotation(m, 70.0)
        assert not denotation(m, 0.0) and not denotation(m, 80.0)

    def test_between_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Between(70.0, 10.0)

    def test_half_lines(self):
        assert denotation(AtLeast(10.0), 10.0)
        assert not denotation(AtLeast(10.0), 0.0)
        assert denotation(AtMost(70.0), 70.0)
        assert not denotation(AtMost(70.0), 80.0)

    def test_around_needs_parameter(self):
        m = Around(40.0)
        with pytest.raises(MissingParameter):
            denotation(m, 40.0)
        assert denotation(m, 50.0, t=10.0)
        assert not denotation(m, 50.0, t=9.0)
        # halo is symmetric and closed
        assert denotation(m, 30.0, t=10.0)

    def test_threshold_weak_vs_strict(self):
        # tall is weak (>=), short is strict (<): exhaustive and exclusive
        for x in GRID:
            for t in GRID:
                assert denotation(TALL, x, t) != denotation(SHORT, x, t)

    def test_threshold_polarity_validation(self):
        with pytest.raises(ValueError):
            Threshold(">")

    def test_vague_flags(self):
        assert Around(40.0).vague and TALL.vague and SHORT.vague
        assert not Exact(40.0).vague and not Between(0.0, 10.0).vague
        assert Around(40.0).param_kind == "around"
        assert TALL.param_kind == "threshold"
        assert Exact(40.0).param_kind is None

    def test_vector_matches_scalar(self):
        for m, t in [(Exact(40.0), None), (Between(20.0, 60.0), None),
                     (AtLeast(30.0), None), (AtMost(50.0), None),
                     (Around(40.0), 20.0), (TALL, 40.0), (SHORT, 40.0)]:
            vec = denotation_vector(m, GRID, t)
            assert vec.tolist() == [denotation(m, x, t) for x in GRID]

    def test_grid_column_broadcasts_against_parameter_values(self):
        ts = np.array([-5.0, 0.0, 10.0, 25.0, 40.0, 80.0, 95.0])
        for m in (Around(40.0), Around(35.0), TALL, SHORT):
            truth = denotation_vector(m, GRID[:, None], ts)
            per_t = np.stack([denotation_vector(m, GRID, float(t)) for t in ts], axis=1)
            assert truth.shape == (GRID.size, ts.size)
            assert np.array_equal(truth, per_t)
            assert truth.tolist() == [[denotation(m, float(x), float(t)) for t in ts]
                                      for x in GRID]


class Unheard(Message):
    """A precise message kind no denotation knows."""

    @property
    def label(self) -> str:
        return "unheard"


class TestUnknownKind:
    # the type is checked before the parameter, with or without a t
    @pytest.mark.parametrize("t", [None, 40.0])
    def test_denotation(self, t):
        with pytest.raises(TypeError, match="^unknown message type Unheard$"):
            denotation(Unheard(), 40.0, t)

    @pytest.mark.parametrize("t", [None, GRID])
    def test_denotation_vector(self, t):
        with pytest.raises(TypeError, match="^unknown message type Unheard$"):
            denotation_vector(Unheard(), GRID[:, None], t)

    def test_literal_update(self):
        with pytest.raises(TypeError, match="^unknown message type Unheard$"):
            literal_update(IndependentPrior(uniform(GRID)), Unheard())


class TestLabels:
    def test_labels(self):
        assert Exact(40.0).label == "exactly 40"
        assert Between(10.0, 70.0).label == "between 10 and 70"
        assert AtLeast(10.0).label == "at least 10"
        assert AtMost(70.0).label == "at most 70"
        assert Around(40.0).label == "around 40"
        assert TALL.label == "tall"
        assert SHORT.label == "short"
        assert str(Around(40.0)) == "around 40"


class TestMenus:
    def test_precise_menu_size_on_nine_grid(self):
        # 45 interval denotations on 9 points; half-lines all duplicate one
        menu = precise_alternatives(GRID)
        assert len(menu) == 45

    def test_no_duplicate_denotations(self):
        menu = precise_alternatives(GRID)
        keys = {tuple(denotation_vector(m, GRID).tolist()) for m in menu}
        assert len(keys) == len(menu)

    def test_every_subinterval_is_covered(self):
        menu = precise_alternatives(GRID)
        keys = {tuple(denotation_vector(m, GRID).tolist()) for m in menu}
        n = len(GRID)
        want = set()
        for i in range(n):
            for j in range(i, n):
                want.add(tuple(i <= k <= j for k in range(n)))
        assert keys == want

    def test_first_generated_wins_dedup(self):
        # "at least 0" denotes the full grid, same as between(0, 80)
        menu = precise_alternatives(GRID)
        assert not any(isinstance(m, (AtLeast, AtMost)) for m in menu)

    @pytest.mark.parametrize("grid", [[0.0, 10.0, 10.0, 20.0], [20.0, 10.0, 0.0]])
    def test_precise_menu_needs_strictly_increasing_grid(self, grid):
        with pytest.raises(ValueError, match="strictly increasing"):
            precise_alternatives(grid)

    @pytest.mark.parametrize("grid", [[1.0, 1.0, 0.0], [0.0, np.nan], [np.nan], [0.0, np.inf],
                                      [-np.inf, 0.0], [np.inf, np.inf], [[0.0, 1.0]], []])
    def test_both_menus_check_the_grid_alike(self, grid):
        with pytest.raises(ValueError, match="strictly increasing|nonempty"):
            precise_alternatives(grid)
        for kind in ("around", "threshold"):
            with pytest.raises(ValueError, match="strictly increasing|nonempty"):
                vague_alternatives(grid, kind)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1,
                    max_size=12, unique=True).map(sorted))
    def test_precise_menu_equals_the_constructors_menu(self, values):
        grid = np.array(values)
        got = precise_alternatives(grid)
        points = list(np.asarray(values, dtype=float))
        want = [Exact(lo) if i == j else Between(lo, points[j])
                for i, lo in enumerate(points) for j in range(i, len(points))]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert vars(g) == vars(w)
            assert [type(v) for v in vars(g).values()] == [np.float64] * len(vars(w))
            assert g == w and hash(g) == hash(w)
            assert repr(g) == repr(w) and g.label == w.label and g.to_json() == w.to_json()
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.lo = 0.0
        assert vague_alternatives(grid, "around") == [Around(v) for v in points]

    def test_vague_menus(self):
        arounds = vague_alternatives(GRID, "around")
        assert len(arounds) == 9
        assert all(isinstance(m, Around) for m in arounds)
        pair = vague_alternatives(GRID, "threshold")
        assert pair == [TALL, SHORT]
        with pytest.raises(ValueError):
            vague_alternatives(GRID, "fuzzy")

    @given(st.integers(min_value=1, max_value=8))
    def test_menu_size_is_triangular(self, n):
        grid = np.arange(float(n))
        assert len(precise_alternatives(grid)) == n * (n + 1) // 2


class TestParsing:
    def test_text_forms(self):
        assert parse_message("around 40") == Around(40.0)
        assert parse_message("between 10 70") == Between(10.0, 70.0)
        assert parse_message("between 10 and 70") == Between(10.0, 70.0)
        assert parse_message("at least 10") == AtLeast(10.0)
        assert parse_message("atleast 10") == AtLeast(10.0)
        assert parse_message("at most 70") == AtMost(70.0)
        assert parse_message("exactly 40") == Exact(40.0)
        assert parse_message("tall") == TALL
        assert parse_message("short") == SHORT
        assert parse_message("  AROUND 40  ") == Around(40.0)

    def test_bad_text(self):
        for bad in ["", "roughly 40", "between 10", "around", "tall 5"]:
            with pytest.raises(MessageParseError):
                parse_message(bad)

    def test_json_roundtrip(self):
        msgs = [Exact(40.0), Between(10.0, 70.0), AtLeast(10.0),
                AtMost(70.0), Around(40.0), TALL, SHORT]
        for m in msgs:
            assert message_from_json(m.to_json()) == m

    def test_json_errors(self):
        with pytest.raises(MessageParseError):
            message_from_json({"kind": "roughly", "args": [40]})
        with pytest.raises(MessageParseError):
            message_from_json({"kind": "between", "args": [10]})
        with pytest.raises(MessageParseError):
            message_from_json({"kind": "exact", "args": ["40"]})
        with pytest.raises(MessageParseError):
            message_from_json(["around", 40])


@given(st.floats(min_value=-100, max_value=100),
       st.floats(min_value=-100, max_value=100),
       st.floats(min_value=0, max_value=50))
def test_around_halo_grows_with_t(center, x, t):
    # larger halo can only add worlds, never remove them
    if denotation(Around(center), x, t):
        assert denotation(Around(center), x, t + 1.0)


@given(st.floats(min_value=-100, max_value=100),
       st.floats(min_value=-100, max_value=100))
def test_threshold_monotone_in_x(x, t):
    if denotation(TALL, x, t):
        assert denotation(TALL, x + 1.0, t)
    if denotation(SHORT, x, t):
        assert denotation(SHORT, x - 1.0, t)
