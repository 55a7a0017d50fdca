import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaguetalk import (SHORT, TALL, Around, AtLeast, AtMost, Between, Dist, Exact,
                       ExplicitJointPrior, IndependentPrior, Message, MissingParamPrior,
                       NonUniformPreconditionViolated, Threshold, ZeroPosterior,
                       around_closed_form, closed_form_posterior, denotation,
                       denotation_vector,
                       joint_enumeration_posterior, literal_listener_strategy,
                       literal_update, precise_alternatives, tall_closed_form, uniform,
                       vague_alternatives)
from vaguetalk import listener
from vaguetalk.listener import _literal_outcomes, _literal_rows

GRID = np.arange(0.0, 81.0, 10.0)


def table_prior():
    # uniform world prior, halo half-width uniform over 0..40 at step 10
    return IndependentPrior(
        uniform(GRID),
        {"around": uniform(np.arange(0.0, 41.0, 10.0))},
    )


def enumerate_joint(x_prior, t_prior, m):
    """Tiny independent reimplementation: loop every (x, t) cell."""
    weights = []
    for x, px in zip(x_prior.support, x_prior.probs):
        total = 0.0
        for t, pt in zip(t_prior.support, t_prior.probs):
            if denotation(m, float(x), float(t)):
                total += px * pt
        weights.append(total)
    z = sum(weights)
    return [w / z for w in weights]


class TestPreciseUpdate:
    def test_between_restricts_and_renormalizes(self):
        post = literal_update(table_prior(), Between(10.0, 70.0))
        expected = [0.0] + [1.0 / 7.0] * 7 + [0.0]
        assert np.max(np.abs(post.probs - expected)) <= 1e-12

    def test_exact_collapses_to_point(self):
        post = literal_update(table_prior(), Exact(40.0))
        assert post.p(40.0) == 1.0

    def test_nonuniform_prior(self):
        prior = IndependentPrior(Dist([0.0, 10.0, 20.0], [0.2, 0.3, 0.5]))
        post = literal_update(prior, AtLeast(10.0))
        assert np.allclose(post.probs, [0.0, 0.375, 0.625], atol=1e-15)

    def test_false_everywhere_raises(self):
        with pytest.raises(ZeroPosterior):
            literal_update(table_prior(), Between(90.0, 100.0))
        with pytest.raises(ZeroPosterior):
            literal_update(table_prior(), Exact(45.0))

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0),
                    min_size=4, max_size=10),
           st.data())
    @settings(max_examples=60)
    def test_surviving_ratios_preserved(self, weights, data):
        # restrict-and-renormalize cannot reweight inside the denotation
        w = np.asarray(weights)
        grid = np.arange(len(w), dtype=float)
        prior = IndependentPrior(Dist(grid, w / w.sum()))
        lo = data.draw(st.integers(0, len(w) - 1))
        hi = data.draw(st.integers(lo, len(w) - 1))
        post = literal_update(prior, Between(float(lo), float(hi)))
        for a in range(lo, hi + 1):
            for b in range(lo, hi + 1):
                lhs = post.probs[a] * prior.x.probs[b]
                rhs = post.probs[b] * prior.x.probs[a]
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestVagueUpdate:
    def test_around_small_hand_case(self):
        prior = IndependentPrior(
            uniform([0.0, 10.0, 20.0]),
            {"around": uniform([0.0, 10.0])},
        )
        post = literal_update(prior, Around(10.0))
        assert np.allclose(post.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_table_around_row(self):
        post = literal_update(table_prior(), Around(40.0))
        expected = [0.04, 0.08, 0.12, 0.16, 0.20, 0.16, 0.12, 0.08, 0.04]
        assert np.max(np.abs(post.probs - expected)) <= 1e-12

    def test_matches_joint_enumeration(self):
        prior = table_prior()
        t = prior.t_priors["around"]
        for center in GRID:
            m = Around(float(center))
            post = literal_update(prior, m)
            oracle = enumerate_joint(prior.x, t, m)
            assert np.max(np.abs(post.probs - oracle)) <= 1e-12

    def test_missing_param_prior(self):
        prior = IndependentPrior(uniform(GRID))
        with pytest.raises(MissingParamPrior):
            literal_update(prior, Around(40.0))

    def test_tall_on_index_grid(self):
        grid = np.arange(3.0)
        prior = IndependentPrior(uniform(grid), {"threshold": uniform(grid)})
        post = literal_update(prior, TALL)
        assert np.allclose(post.probs, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)


class TestExplicitJoint:
    def test_hand_computed(self):
        joint = ExplicitJointPrior([0.0, 1.0], [0.0, 1.0],
                                   [[0.1, 0.2], [0.3, 0.4]], "around")
        post = literal_update(joint, Around(0.0))
        # true cells: (0,0), (0,1), (1,1)
        assert np.allclose(post.probs, [0.3 / 0.7, 0.4 / 0.7], atol=1e-15)

    def test_marginals(self):
        joint = ExplicitJointPrior([0.0, 1.0], [0.0, 1.0],
                                   [[0.1, 0.2], [0.3, 0.4]], "around")
        assert np.allclose(joint.x_marginal.probs, [0.3, 0.7])
        assert np.allclose(joint.t_marginal.probs, [0.4, 0.6])

    def test_independent_product_agrees(self):
        x = Dist([0.0, 10.0, 20.0], [0.2, 0.3, 0.5])
        t = Dist([0.0, 10.0], [0.6, 0.4])
        matrix = np.outer(x.probs, t.probs)
        joint = ExplicitJointPrior(x.support, t.support, matrix, "around")
        indep = IndependentPrior(x, {"around": t})
        for c in x.support:
            a = literal_update(indep, Around(float(c)))
            b = literal_update(joint, Around(float(c)))
            assert a.approx_equal(b, tol=1e-12)

    def test_precise_message_uses_x_marginal(self):
        joint = ExplicitJointPrior([0.0, 1.0], [0.0, 1.0],
                                   [[0.1, 0.2], [0.3, 0.4]], "around")
        post = literal_update(joint, AtLeast(1.0))
        assert post.probs.tolist() == [0.0, 1.0]

    def test_kind_mismatch(self):
        joint = ExplicitJointPrior([0.0, 1.0], [0.0, 1.0],
                                   [[0.25, 0.25], [0.25, 0.25]], "threshold")
        with pytest.raises(MissingParamPrior):
            literal_update(joint, Around(0.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplicitJointPrior([0.0, 1.0], [0.0], [[0.5], [0.6]], "around")
        with pytest.raises(ValueError):
            ExplicitJointPrior([0.0, 1.0], [0.0, 1.0],
                               [[0.5, 0.5], [0.5, 0.5]], "around")

    @pytest.mark.parametrize("xs, ts", [([0.0, np.nan], [0.0, 1.0]), ([0.0, 1.0], [np.nan, 1.0]),
                                        ([0.0, np.inf], [0.0, 1.0]), ([0.0, 1.0], [-np.inf, 0.0]),
                                        ([], [0.0, 1.0]), ([0.0, 1.0], [[0.0, 1.0]])])
    def test_supports_must_be_finite_grids(self, xs, ts):
        joint = np.full((len(xs), 2), 1.0 / (2 * len(xs))) if xs else np.zeros((0, 2))
        with pytest.raises(ValueError, match="supports must be nonempty, finite and strictly"):
            ExplicitJointPrior(xs, ts, joint, "around")


class TestClosedForms:
    def test_around_formula_values(self):
        d = around_closed_form(4)
        assert d.probs.tolist() == [0.04, 0.08, 0.12, 0.16, 0.20,
                                    0.16, 0.12, 0.08, 0.04]

    def test_tall_formula_values(self):
        d = tall_closed_form(10)
        assert np.allclose(d.probs, 2.0 * (np.arange(11) + 1) / (11 * 12),
                           atol=0.0)
        assert d.probs[-1] == 1.0 / 6.0

    def test_degenerate_sizes(self):
        assert around_closed_form(0).probs.tolist() == [1.0]
        assert tall_closed_form(0).probs.tolist() == [1.0]
        with pytest.raises(ValueError):
            around_closed_form(-1)

    @given(st.integers(min_value=0, max_value=12))
    def test_around_matches_enumeration(self, n):
        grid = np.arange(2 * n + 1, dtype=float)
        x = uniform(grid)
        t = uniform(np.arange(n + 1, dtype=float))
        oracle = enumerate_joint(x, t, Around(float(n)))
        assert np.max(np.abs(around_closed_form(n).probs - oracle)) <= 1e-12

    @given(st.integers(min_value=0, max_value=12))
    def test_tall_matches_enumeration(self, n):
        grid = np.arange(n + 1, dtype=float)
        x = uniform(grid)
        oracle = enumerate_joint(x, uniform(grid), TALL)
        assert np.max(np.abs(tall_closed_form(n).probs - oracle)) <= 1e-12

    def test_dispatch_around(self):
        post = closed_form_posterior(table_prior(), Around(40.0))
        brute = literal_update(table_prior(), Around(40.0))
        assert post.probs.tolist() == [0.04, 0.08, 0.12, 0.16, 0.20,
                                       0.16, 0.12, 0.08, 0.04]
        assert np.max(np.abs(post.probs - brute.probs)) <= 1e-12

    def test_dispatch_tall(self):
        grid = np.arange(150.0, 201.0, 5.0)
        prior = IndependentPrior(uniform(grid), {"threshold": uniform(grid)})
        post = closed_form_posterior(prior, TALL)
        assert post.approx_equal(literal_update(prior, TALL), tol=1e-12)

    def test_preconditions_rejected(self):
        skew = IndependentPrior(
            Dist(GRID, np.arange(1.0, 10.0) / 45.0),
            {"around": uniform(np.arange(0.0, 41.0, 10.0))},
        )
        with pytest.raises(NonUniformPreconditionViolated):
            closed_form_posterior(skew, Around(40.0))
        # off-center message
        with pytest.raises(NonUniformPreconditionViolated):
            closed_form_posterior(table_prior(), Around(30.0))
        # even-size grid
        even = IndependentPrior(uniform(np.arange(0.0, 71.0, 10.0)),
                                {"around": uniform(np.arange(0.0, 41.0, 10.0))})
        with pytest.raises(NonUniformPreconditionViolated):
            closed_form_posterior(even, Around(30.0))
        # halo prior on the wrong support
        bad_t = IndependentPrior(uniform(GRID),
                                 {"around": uniform(np.arange(0.0, 31.0, 10.0))})
        with pytest.raises(NonUniformPreconditionViolated):
            closed_form_posterior(bad_t, Around(40.0))
        # strict polarity has no closed form
        grid = np.arange(11.0)
        p = IndependentPrior(uniform(grid), {"threshold": uniform(grid)})
        with pytest.raises(NonUniformPreconditionViolated):
            closed_form_posterior(p, Threshold("<"))
        with pytest.raises(NonUniformPreconditionViolated):
            closed_form_posterior(table_prior(), Between(10.0, 70.0))


@st.composite
def points(draw, lo, hi, scale, max_size=6):
    """A strictly increasing grid of integers in [lo, hi], times scale."""
    values = draw(st.sets(st.integers(min_value=lo, max_value=hi), min_size=1, max_size=max_size))
    return scale * np.array(sorted(values), dtype=float)


@st.composite
def weights_with_zeros(draw, n):
    """Nonnegative weights summing to 1, any of them possibly zero."""
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0))
    w = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    if not w.any():
        w[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    return w / w.sum()


def messages(scale):
    """Precise, "around", "tall" and "short" messages near a [0, 10] grid."""
    value = st.integers(min_value=-2, max_value=12).map(lambda v: scale * v)
    return st.one_of(value.map(Exact), value.map(AtLeast), value.map(AtMost),
                     st.tuples(value, value).map(lambda b: Between(min(b), max(b))),
                     value.map(Around), st.sampled_from([TALL, SHORT]))


@st.composite
def independent_cases(draw):
    scale = draw(st.sampled_from([1.0, 0.5, 2.5]))
    grid = draw(points(0, 10, scale, max_size=8))
    x = Dist(grid, draw(weights_with_zeros(grid.size)))
    t_priors = {}
    for kind, lo, hi in (("around", 0, 6), ("threshold", -2, 12)):
        ts = draw(points(lo, hi, scale))
        t_priors[kind] = Dist(ts, draw(weights_with_zeros(ts.size)))
    menu = draw(st.lists(messages(scale), min_size=1, max_size=8))
    return IndependentPrior(x, t_priors), menu


@st.composite
def explicit_cases(draw):
    scale = draw(st.sampled_from([1.0, 0.5, 2.5]))
    grid = draw(points(0, 10, scale, max_size=8))
    kind = draw(st.sampled_from(["around", "threshold"]))
    ts = draw(points(0, 6, scale) if kind == "around" else points(-2, 12, scale))
    joint = draw(weights_with_zeros(grid.size * ts.size)).reshape(grid.size, ts.size)
    menu = draw(st.lists(messages(scale).filter(lambda m: m.param_kind in (None, kind)),
                         min_size=1, max_size=8))
    return ExplicitJointPrior(grid, ts, joint, kind), menu


def explicit_enumeration(prior, m):
    """Plain double loop over the (x, t) cells of an explicit joint prior."""
    weights = []
    for k, x in enumerate(prior.x_support):
        total = 0.0
        for i, t in enumerate(prior.t_support):
            if denotation(m, float(x), float(t)):
                total += float(prior.joint[k, i])
        weights.append(total)
    z = sum(weights)
    if z <= 0:
        raise ValueError(f"{m.label!r} is false everywhere under the prior")
    return [w / z for w in weights]


def check_literal_rows(prior, menu, oracle):
    """L0 rows match the oracle; the first dead message raises ZeroPosterior.

    Also checks that literal_update is the matrix's one-message case, bit
    for bit.
    """
    rows = []
    for m in menu:
        try:
            rows.append(oracle(m))
        except ValueError:
            rows.append(None)
    dead = [m for m, row in zip(menu, rows) if row is None]
    if dead:
        with pytest.raises(ZeroPosterior, match=re.escape(f"{dead[0].label!r} is false")):
            literal_listener_strategy(prior, menu)
        menu = [m for m, row in zip(menu, rows) if row is not None]
        rows = [row for row in rows if row is not None]
    if not menu:
        return
    L = literal_listener_strategy(prior, menu)
    assert np.max(np.abs(L.matrix - np.array(rows))) <= 1e-12
    for m, row in zip(menu, L.matrix):
        assert literal_update(prior, m).probs.tobytes() == row.tobytes()


class Mystery(Message):
    """A vague message kind no denotation knows."""

    vague = True
    param_kind = "around"

    @property
    def label(self) -> str:
        return "mystery"


class TestLiteralRows:
    """The one L0 kernel against the plain-Python enumeration oracles."""

    @given(independent_cases())
    @settings(max_examples=200, deadline=None)
    def test_independent_prior_matches_joint_enumeration(self, case):
        prior, menu = case

        def oracle(m):
            t = prior.t_priors[m.param_kind] if m.vague else uniform([0.0])
            return joint_enumeration_posterior(prior.x, t, m).probs

        check_literal_rows(prior, menu, oracle)

    @given(explicit_cases())
    @settings(max_examples=200, deadline=None)
    def test_explicit_joint_matches_plain_double_loop(self, case):
        prior, menu = case
        check_literal_rows(prior, menu, lambda m: explicit_enumeration(prior, m))

    def test_first_failing_message_in_menu_order_raises(self):
        # no mass at 0 and no threshold prior: "exactly 0" fails before "tall"
        prior = IndependentPrior(Dist([0.0, 1.0, 2.0], [0.0, 0.5, 0.5]))
        with pytest.raises(ZeroPosterior, match="'exactly 0' is false everywhere"):
            literal_listener_strategy(prior, [Exact(2.0), Exact(0.0), TALL])
        with pytest.raises(MissingParamPrior, match="'threshold'"):
            literal_listener_strategy(prior, [Exact(2.0), TALL, Exact(0.0)])

    def test_explicit_joint_dead_precise_and_other_kind_in_menu_order(self):
        joint = ExplicitJointPrior([0.0, 1.0], [0.0, 1.0], [[0.0, 0.0], [0.5, 0.5]], "around")
        with pytest.raises(ZeroPosterior, match="'exactly 0' is false everywhere"):
            literal_listener_strategy(joint, [Around(1.0), Exact(0.0), TALL])
        with pytest.raises(MissingParamPrior, match="message needs 'threshold'"):
            literal_listener_strategy(joint, [Around(1.0), TALL, Exact(0.0)])

    def test_unknown_message_type_after_earlier_dead_message(self):
        prior = IndependentPrior(Dist([0.0, 1.0], [0.0, 1.0]), {"around": uniform([0.0])})
        with pytest.raises(TypeError, match="^unknown message type Mystery$"):
            literal_listener_strategy(prior, [Exact(1.0), Mystery(), Exact(0.0)])
        with pytest.raises(ZeroPosterior, match="'at most 0' is false everywhere"):
            literal_listener_strategy(prior, [Exact(1.0), AtMost(0.0), Mystery()])

    @given(independent_cases(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_full_precise_and_around_menu_matches_joint_enumeration(self, case, data):
        prior, _ = case
        grid = prior.x.support
        menu = precise_alternatives(grid) + vague_alternatives(grid, "around")
        menu = data.draw(st.permutations(menu))

        def oracle(m):
            t = prior.t_priors["around"] if m.vague else uniform([0.0])
            return joint_enumeration_posterior(prior.x, t, m).probs

        check_literal_rows(prior, menu, oracle)


def _seeded_dist(rng, support, zero_share):
    """Weights on support with about zero_share of them zero, never all."""
    w = rng.random(support.size) * (rng.random(support.size) >= zero_share)
    if not w.any():
        w[rng.integers(support.size)] = 1.0
    return Dist(support, w / w.sum())


def _seeded_points(rng, lo, hi, scale, size):
    values = rng.choice(np.arange(lo, hi + 1), size=size, replace=False)
    return scale * np.sort(values).astype(float)


def _seeded_menu(rng, scale, size):
    """All six message kinds, values on and off a [-5, 20] grid."""
    def value():
        return scale * (int(rng.integers(-8, 24)) + (0.5 if rng.random() < 0.2 else 0.0))

    makers = (lambda: Exact(value()), lambda: AtLeast(value()), lambda: AtMost(value()),
              lambda: Between(*sorted((value(), value()))), lambda: Around(value()),
              lambda: TALL if rng.random() < 0.5 else SHORT)
    return [makers[rng.integers(len(makers))]() for _ in range(size)]


def _seeded_case(rng):
    """One (prior, menu): independent or explicit joint, zero cells, t priors
    sometimes missing, menus of 1 to 300 messages."""
    scale = float(rng.choice([1.0, 0.5, 2.5]))
    grid = _seeded_points(rng, -5, 20, scale, int(rng.integers(1, 16)))
    zero_share = float(rng.choice([0.0, 0.2, 0.5]))
    size = int(rng.integers(1, 9)) if rng.random() < 0.6 else int(rng.integers(9, 301))
    menu = _seeded_menu(rng, scale, size)
    if rng.random() < 0.3:
        kind = str(rng.choice(["around", "threshold"]))
        ts = (_seeded_points(rng, 0, 8, scale, int(rng.integers(1, 6))) if kind == "around"
              else _seeded_points(rng, -8, 24, scale, int(rng.integers(1, 9))))
        joint = _seeded_dist(rng, np.arange(float(grid.size * ts.size)), zero_share).probs
        return ExplicitJointPrior(grid, ts, joint.reshape(grid.size, ts.size), kind), menu
    t_priors = {}
    if rng.random() < 0.8:
        t_priors["around"] = _seeded_dist(
            rng, _seeded_points(rng, 0, 8, scale, int(rng.integers(1, 6))), zero_share)
    if rng.random() < 0.8:
        t_priors["threshold"] = _seeded_dist(
            rng, _seeded_points(rng, -8, 24, scale, int(rng.integers(1, 9))), zero_share)
    return IndependentPrior(_seeded_dist(rng, grid, zero_share), t_priors), menu


def _wide_case(rng, n):
    """The precise + around + threshold menu on an n-point grid, non-uniform priors."""
    grid = np.arange(float(n))
    x = _seeded_dist(rng, grid, 0.0)
    t_priors = {"around": _seeded_dist(rng, np.arange(float(n // 2 + 1)), 0.1),
                "threshold": _seeded_dist(rng, grid, 0.1)}
    menu = (precise_alternatives(grid) + vague_alternatives(grid, "around")
            + vague_alternatives(grid, "threshold"))
    return IndependentPrior(x, t_priors), menu


def _update_row(prior, m):
    post = literal_update(prior, m)
    return post.support, post.probs[None, :]


def _pin(h, call):
    """Feed the bytes of call()'s (grid, matrix), or its exception's type and text."""
    try:
        grid, matrix = call()
    except Exception as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return False
    h.update(grid.tobytes() + matrix.tobytes() + repr(matrix.shape).encode())
    return True


class TestPinnedL0:
    # sha256 of the L0 matrices (or the exception raised) of 600 seeded
    # cases, of each case's menu with its failing messages dropped, and of
    # the first five one-message updates; any change to a byte of L0 or to
    # which message fails first shows here
    DIGEST = "d0775f3985003e0740c6b32b432015a13fa7c2a54e283ca0ab90a29d5262d262"

    def test_l0_output_is_pinned(self):
        rng = np.random.default_rng(20231)
        cases = [_seeded_case(rng) for _ in range(596)]
        cases += [_wide_case(rng, n) for n in (9, 9, 41, 41)]
        h = hashlib.sha256()
        for prior, menu in cases:
            for m in menu[:5]:
                _pin(h, lambda: _update_row(prior, m))
            if not _pin(h, lambda: _literal_rows(prior, menu)):
                alive = [m for m in menu
                         if _pin(hashlib.sha256(), lambda: _literal_rows(prior, (m,)))]
                _pin(h, lambda: _literal_rows(prior, alive))
        assert h.hexdigest() == self.DIGEST


# The L0 kernel before it sorted the menu by type: one (lo, hi) lambda per
# precise kind and every other message built on its own. Kept as the oracle
# that the typed pass and the broadcast "around" rows must match bit for bit.
_PARENT_BOUNDS = {
    Exact: lambda m: (m.value, m.value),
    Between: lambda m: (m.lo, m.hi),
    AtLeast: lambda m: (m.lo, math.inf),
    AtMost: lambda m: (-math.inf, m.hi),
}


def _parent_message_weights(prior, m, xs, x_probs):
    if not m.vague:
        return x_probs * denotation_vector(m, xs)
    if isinstance(prior, IndependentPrior):
        t = prior.t_prior_for(m)
        return x_probs * (denotation_vector(m, xs[:, None], t.support) @ t.probs)
    if m.param_kind == prior.param_kind:
        return (prior.joint * denotation_vector(m, xs[:, None], prior.t_support)).sum(axis=1)
    raise MissingParamPrior(f"joint prior is over kind {prior.param_kind!r}, "
                            f"message needs {m.param_kind!r}")


def parent_literal_outcomes(prior, menu):
    if isinstance(prior, IndependentPrior):
        xs, x_probs = prior.x.support, prior.x.probs
    else:
        xs, x_probs = prior.x_support, prior.joint.sum(axis=1)
    lows, highs, other, errors = [], [], {}, {}
    for j, m in enumerate(menu):
        bounds = _PARENT_BOUNDS.get(type(m))
        if bounds is not None:
            lo, hi = bounds(m)
        else:
            try:
                other[j] = _parent_message_weights(prior, m, xs, x_probs)
            except (TypeError, ValueError) as exc:
                errors[j] = exc
            lo, hi = math.inf, -math.inf
        lows.append(lo)
        highs.append(hi)
    if other and len(other) == len(lows):
        weights = np.array(list(other.values()))
    else:
        lo = np.array(lows, dtype=float)[:, None]
        hi = np.array(highs, dtype=float)[:, None]
        weights = x_probs * ((xs >= lo) & (xs <= hi))
        for j, w in other.items():
            weights[j] = w
    totals = weights.sum(axis=1, keepdims=True)
    if not totals.all():
        for j in np.flatnonzero(totals == 0).tolist():
            if j not in errors:
                errors[j] = ZeroPosterior(f"{menu[j].label!r} is false everywhere under the prior")
        totals[totals == 0] = 1.0
    weights /= totals
    return xs, weights, errors


class Approximately(Around):
    """A subclass of Around: it takes the per-message route."""


def l0_messages(scale, hi):
    """Every kind the L0 kernel sorts: precise, "around" with float and int
    centres on and off a [0, hi] grid, an Around subclass, "tall", "short"."""
    index = st.integers(min_value=-2, max_value=hi + 2)
    return st.one_of(messages(scale), index.map(lambda v: Around(scale * v)),
                     index.map(lambda v: Around(scale * (v + 0.5))),
                     index.map(lambda v: Approximately(scale * v)), index.map(Around))


@st.composite
def sized_points(draw, lo, hi, scale, min_size, max_size):
    """``points`` with its size drawn first, so that every size is as likely."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    values = draw(st.sets(st.integers(min_value=lo, max_value=hi), min_size=size, max_size=size))
    return scale * np.array(sorted(values), dtype=float)


@st.composite
def l0_cases(draw):
    """An explicit joint, or an independent prior whose t priors may be
    missing; a menu with repeated messages. Wide cases (up to 45 grid points
    and 25 halo values) reach the sizes where a flattened (k*n, T) t-sum
    rounds differently from one product per row."""
    scale = draw(st.sampled_from([1.0, 0.5, 2.5]))
    wide = draw(st.booleans())
    hi = 60 if wide else 10
    grid = draw(sized_points(0, hi, scale, 15, 45) if wide else points(0, hi, scale))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        kind = draw(st.sampled_from(["around", "threshold"]))
        ts = draw(points(0, 6, scale) if kind == "around" else points(-2, 12, scale))
        joint = draw(weights_with_zeros(grid.size * ts.size)).reshape(grid.size, ts.size)
        prior = ExplicitJointPrior(grid, ts, joint, kind)
    else:
        t_priors = {}
        sizes = (("around", 0, hi // 2, 25 if wide else 6), ("threshold", -2, hi + 2, 6))
        for kind, lo, top, size in sizes:
            if draw(st.integers(min_value=0, max_value=4)):
                ts = draw(sized_points(lo, top, scale, 1, size))
                t_priors[kind] = Dist(ts, draw(weights_with_zeros(ts.size)))
        prior = IndependentPrior(Dist(grid, draw(weights_with_zeros(grid.size))), t_priors)
    menu = draw(st.lists(l0_messages(scale, hi), min_size=1, max_size=12))
    menu += draw(st.lists(st.sampled_from(menu), max_size=4))
    if wide:
        menu += vague_alternatives(grid, "around")
    return prior, draw(st.permutations(menu))


def _error_key(exc):
    return type(exc), str(exc)


class TestL0AgainstPerMessageKernel:
    @given(l0_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_message_kernel_bit_for_bit(self, case):
        prior, menu = case
        xs, got, errors = _literal_outcomes(prior, menu)
        want_xs, want, want_errors = parent_literal_outcomes(prior, menu)
        assert xs.tobytes() == want_xs.tobytes()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert {j: _error_key(e) for j, e in errors.items()} == \
            {j: _error_key(e) for j, e in want_errors.items()}
        if errors:
            with pytest.raises(Exception) as raised:
                _literal_rows(prior, menu)
            assert _error_key(raised.value) == _error_key(want_errors[min(want_errors)])
        for j, m in enumerate(menu):
            if j in errors:
                continue
            if isinstance(prior, IndependentPrior):
                t = prior.t_priors[m.param_kind] if m.vague else uniform([0.0])
                oracle = joint_enumeration_posterior(prior.x, t, m).probs
            else:
                oracle = explicit_enumeration(prior, m)
            assert np.max(np.abs(got[j] - oracle)) <= 1e-12

    @pytest.mark.parametrize("blocks", [1, 13 * 6, 5 * 13 * 6 + 1])
    def test_around_blocks_match_per_message_kernel(self, monkeypatch, blocks):
        # 1 cell and one message's 13 x 6 truth matrix both give one centre
        # per block; the last gives five, leaving a short block at the end
        monkeypatch.setattr(listener, "_AROUND_BLOCK_CELLS", blocks)
        rng = np.random.default_rng(7)
        grid = np.arange(0.0, 13.0)
        prior = IndependentPrior(_seeded_dist(rng, grid, 0.2),
                                 {"around": _seeded_dist(rng, np.arange(0.0, 6.0), 0.2)})
        menu = list(rng.permutation(precise_alternatives(grid)[:20]
                                    + vague_alternatives(grid, "around") + [Around(2.5)]))
        _, got, errors = _literal_outcomes(prior, menu)
        _, want, want_errors = parent_literal_outcomes(prior, menu)
        assert got.tobytes() == want.tobytes()
        assert errors.keys() == want_errors.keys()

    def test_around_truth_memory_does_not_grow_with_the_menu(self):
        # 400 centres x 400 grid points x 200 halo values: a (k, n, T) truth
        # stack would be 32 MB; the rows need the L0 matrix, one block of
        # truth and a few float copies of one message's (n, T) truth matrix
        n, T = 400, 200
        grid = np.arange(float(n))
        prior = IndependentPrior(uniform(grid), {"around": uniform(np.arange(float(T)))})
        menu = vague_alternatives(grid, "around")
        tracemalloc.start()
        try:
            _, got, _ = _literal_outcomes(prior, menu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < got.nbytes + listener._AROUND_BLOCK_CELLS + 4 * n * T * 8

    def test_missing_around_prior_is_one_error_per_message(self):
        prior = IndependentPrior(uniform([0.0, 1.0, 2.0]), {"threshold": uniform([1.0])})
        _, _, errors = _literal_outcomes(prior, [Around(1.0), Exact(1.0), Around(1.0), TALL])
        assert sorted(errors) == [0, 2]
        assert errors[0] is not errors[2]
        assert all(isinstance(e, MissingParamPrior) for e in errors.values())
