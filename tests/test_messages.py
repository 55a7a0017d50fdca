import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vaguetalk import (SHORT, TALL, Around, AtLeast, AtMost, Between, Exact,
                       IndependentPrior, Menu, Message, MessageParseError, MissingParameter,
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


class Roughly(Around):
    """A subclass of Around: a Menu keeps it as an object."""


#: a sorted grid of 1 to 12 distinct points
grids = st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1,
                 max_size=12, unique=True).map(sorted)


def user_messages(points):
    """Messages a caller makes: every kind, float fields on and off the grid,
    int fields, a subclass, and the threshold pair."""
    value = st.one_of(st.sampled_from(points), st.floats(min_value=-1e6, max_value=1e6),
                      st.integers(min_value=-3, max_value=3))
    return st.one_of(value.map(Exact), value.map(AtLeast), value.map(AtMost),
                     st.tuples(value, value).map(lambda b: Between(min(b), max(b))),
                     value.map(Around), value.map(Roughly), st.sampled_from([TALL, SHORT]))


@st.composite
def menus(draw):
    """(menu, the messages it should read as, the user objects in it): builder
    menus and user lists joined by + in either direction, then sliced."""
    values = draw(grids)
    grid, points = np.array(values), list(np.asarray(values, dtype=float))
    pieces = [
        (precise_alternatives(grid), [Exact(lo) if i == j else Between(lo, points[j])
                                      for i, lo in enumerate(points)
                                      for j in range(i, len(points))]),
        (vague_alternatives(grid, "around"), [Around(v) for v in points]),
        (vague_alternatives(grid, "threshold"), [TALL, SHORT]),
    ]
    menu, want = draw(st.sampled_from(pieces))
    users = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.booleans()):
            piece = piece_want = draw(st.lists(user_messages(points), max_size=4))
            users += piece
        else:
            piece, piece_want = draw(st.sampled_from(pieces))
        if draw(st.booleans()):
            menu, want = menu + piece, want + piece_want
        else:  # a user list goes through Menu.__radd__
            menu, want = piece + menu, piece_want + want
    start, stop = draw(st.integers(-3, 3)), draw(st.none() | st.integers(-3, 40))
    step = draw(st.sampled_from([None, 1, 2, -1]))
    return menu[start:stop:step], want[start:stop:step], users


def twin(m):
    """An equal message with its int fields as floats and its whole float
    fields as ints: a Menu holds the one in its arrays, the other as an object."""
    if type(m) not in (Exact, Between, AtLeast, AtMost, Around):
        return m
    return type(m)(*(float(v) if isinstance(v, int) else int(v) if v.is_integer() else v
                     for v in vars(m).values()))


def assert_same_message(got, want):
    assert type(got) is type(want)
    assert [(k, type(v)) for k, v in vars(got).items()] == \
        [(k, type(v)) for k, v in vars(want).items()]
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert got.label == want.label and got.to_json() == want.to_json()


class TestMenuArrays:
    @given(menus())
    def test_menus_read_as_the_constructors_messages(self, case):
        menu, want, users = case
        assert isinstance(menu, Menu) and len(menu) == len(want)
        for j, w in enumerate(want):
            assert_same_message(menu[j], w)
            assert_same_message(menu[j - len(want)], w)
        assert all(m is u for m, u in zip(menu, want) if any(u is x for x in users))
        assert menu == want and want == menu and menu == tuple(want) and tuple(want) == menu
        assert menu == Menu.of(want) and not menu != want
        assert menu != want + [TALL] and (menu == want[::-1]) == (want == want[::-1])
        with pytest.raises(IndexError):
            menu[len(want)]

    @given(st.lists(user_messages([0.0, 1.5]), max_size=8))
    def test_of_keeps_the_callers_objects(self, user):
        menu = Menu.of(user)
        assert len(menu) == len(user) and all(m is u for m, u in zip(menu, user))
        assert Menu.of(menu) is menu
        assert all(m is u for m, u in zip(menu[1:] + user, user[1:] + user))

    @given(menus(), st.data())
    def test_index_is_list_index(self, case, data):
        menu, want, users = case
        points = sorted({v for m in want for v in vars(m).values()
                         if isinstance(v, float) and math.isfinite(v)} or {0.0})
        # members, equal copies, int/float twins (of the user objects above
        # all, which the arrays may not hold), absent messages, int centres
        members = st.sampled_from(want) if want else st.just(TALL)
        probes = [twin(m) for m in users] + data.draw(st.lists(st.one_of(
            members, members.map(copy.copy), members.map(twin), user_messages(points),
            st.integers(min_value=-3, max_value=12).map(Around)), min_size=1, max_size=4))
        start = data.draw(st.integers(min_value=-len(want) - 1, max_value=len(want) + 1))
        stop = data.draw(st.integers(min_value=-len(want) - 1, max_value=len(want) + 1))
        for probe in probes:
            for args in ((), (start,), (start, stop)):
                try:
                    expected = list(menu).index(probe, *args)
                except ValueError:
                    with pytest.raises(ValueError):
                        menu.index(probe, *args)
                else:
                    assert menu.index(probe, *args) == expected
            assert (probe in menu) == (probe in want)

    def test_index_reads_the_arrays(self, monkeypatch):
        grid = np.arange(0.0, 41.0)
        menu = precise_alternatives(grid) + vague_alternatives(grid, "around")
        monkeypatch.setattr(Menu, "__getitem__", None)
        assert menu.index(Around(20.0)) == 861 + 20 == menu.index(Around(20))
        assert menu.index(Between(1.0, 3.0)) == 41 + 2 and menu.index(Exact(40.0)) == 860
        with pytest.raises(ValueError):
            menu.index(AtLeast(1.0))

    @given(menus())
    def test_copies_and_pickles_read_as_the_menu(self, case):
        menu, want, _ = case
        for other in (copy.copy(menu), copy.deepcopy(menu), pickle.loads(pickle.dumps(menu))):
            assert isinstance(other, Menu) and other == want
            assert not any(a.flags.writeable for a in (other.codes, other.lo, other.hi))

    @given(menus())
    def test_arrays_and_attributes_cannot_be_written(self, case):
        menu, _, _ = case
        for name in ("codes", "lo", "hi", "centres"):
            array = getattr(menu, name)
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
            with pytest.raises(AttributeError):
                setattr(menu, name, array.copy())
        with pytest.raises(AttributeError):
            menu.slots = ()
        with pytest.raises(AttributeError):
            menu.extra = 1
        with pytest.raises(TypeError):
            hash(menu)


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

    @pytest.mark.parametrize("kind, args", [("between", [False, True]), ("between", [0, True]),
                                            ("between", [False, 1.0]), ("around", [True]),
                                            ("exact", [False])])
    def test_json_booleans_are_not_numbers(self, kind, args):
        with pytest.raises(MessageParseError, match="numeric args"):
            message_from_json({"kind": kind, "args": args})

    @pytest.mark.parametrize("text, obj", [
        ("between 10 nan", {"kind": "between", "args": [10, math.nan]}),
        ("between -inf 10", {"kind": "between", "args": [-math.inf, 10]}),
        ("around inf", {"kind": "around", "args": [math.inf]}),
        ("exactly NaN", {"kind": "exact", "args": [math.nan]}),
        ("at least 1e400", {"kind": "at_least", "args": [10 ** 400]}),
        ("at most -infinity", {"kind": "at_most", "args": [-math.inf]}),
    ])
    def test_non_finite_numbers_are_parse_errors(self, text, obj):
        with pytest.raises(MessageParseError, match="finite"):
            parse_message(text)
        with pytest.raises(MessageParseError, match="finite"):
            message_from_json(obj)

    @pytest.mark.parametrize("spec", [
        "between 70 10", {"kind": "between", "args": [70, 10]},  # empty intervals
        {"kind": "around", "args": 40}, {"kind": ["around"], "args": [40]},
    ], ids=["text-empty-interval", "json-empty-interval", "json-args-not-a-list",
            "json-kind-not-a-string"])
    def test_malformed_specs_are_parse_errors(self, spec):
        with pytest.raises(MessageParseError):
            parse_message(spec) if isinstance(spec, str) else message_from_json(spec)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ARITY = {"exact": 1, "between": 2, "at_least": 1, "at_most": 1, "around": 1, "tall": 0,
         "short": 0}


def text_spec(kind: str, args) -> str:
    """The text form of a wire kind and args; ``repr`` keeps every float exact."""
    return " ".join([kind.replace("_", " "), *map(repr, args)])


@given(st.one_of(
    st.builds(Exact, FINITE), st.builds(AtLeast, FINITE), st.builds(AtMost, FINITE),
    st.builds(Around, FINITE), st.sampled_from([TALL, SHORT]),
    st.builds(lambda a, b: Between(min(a, b), max(a, b)), FINITE, FINITE)))
def test_json_and_text_specs_decode_to_the_same_message(m):
    wire = m.to_json()
    assert message_from_json(wire) == m == parse_message(text_spec(wire["kind"], wire["args"]))


@given(st.sampled_from(sorted(ARITY)), st.data())
def test_wrong_arity_raises_in_both_forms(kind, data):
    size = data.draw(st.integers(0, 3).filter(lambda n: n != ARITY[kind]))
    args = sorted(data.draw(st.lists(FINITE, min_size=size, max_size=size)))
    with pytest.raises(MessageParseError):
        message_from_json({"kind": kind, "args": args})
    with pytest.raises(MessageParseError):
        parse_message(text_spec(kind, args))


@given(st.sampled_from([k for k, n in ARITY.items() if n]), st.data())
def test_a_number_that_is_not_finite_raises_in_both_forms(kind, data):
    args = sorted(data.draw(st.lists(FINITE, min_size=ARITY[kind], max_size=ARITY[kind])))
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, True, False,
                                     10 ** 400, -10 ** 400]))
    args[data.draw(st.integers(0, len(args) - 1))] = bad
    with pytest.raises(MessageParseError):
        message_from_json({"kind": kind, "args": args})
    with pytest.raises(MessageParseError):
        parse_message(text_spec(kind, args))


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
