"""The one integer gate, errors.require_int: every count, index and label
the library takes is refused as a ParameterError when it is not an integer
or lies outside its range, and a numpy integer is taken as the Python int it
equals."""

import re
from fractions import Fraction

import numpy as np
import pytest

from crosspeaks import bounds, codes, exactmath, family as family_mod, geometry, halfspace
from crosspeaks import harness, oracles, verify
from crosspeaks.errors import ParameterError, require_addressable, require_int


def _rng():
    return np.random.default_rng(7)


def _game_naming(fam, hypothesis):
    """A two-trial q=0 game whose learner names `hypothesis` every trial."""
    class Fixed:
        def play(self, session, family, rng):
            return hypothesis
    config = harness.GameConfig(family=fam, query_budget=0, epsilon=Fraction(1, 64),
                                trials=2, seed=0)
    return harness.run_game(config, Fixed())


def _membership_entry(index):
    transcript = oracles.Transcript(3)
    transcript.record_membership((index, 2), (True, False))
    return transcript.entries


def _random_entry(label):
    transcript = oracles.Transcript(3)
    transcript.record_random((label, 2))
    return transcript.entries


# name -> (call(family_32, v), a valid integer v[, (an out-of-range v, its
# refusal)]); each call returns arrays, tuples of them, or plain values, so
# the int and numpy-int results compare
ENTRY_POINTS = {
    "OracleSession.random_batch count": (
        lambda fam, v: harness.OracleSession(fam.body(3), 5, _rng()).random_batch(v), 3),
    "choose_parameters d": (lambda fam, v: bounds.choose_parameters(v, Fraction(1, 8)), 64),
    "success_upper_bound n": (
        lambda fam, v: bounds.success_upper_bound(v, 2, 1, 256, Fraction(1, 64)), 3,
        (-1, "need n >= 1, got -1")),
    "success_upper_bound k": (
        lambda fam, v: bounds.success_upper_bound(3, v, 1, 256, Fraction(1, 64)), 2,
        (0, "need k >= 1, got 0")),
    "success_upper_bound q": (
        lambda fam, v: bounds.success_upper_bound(3, 2, v, 100, Fraction(1, 1000)), 1),
    "success_upper_bound family_size": (
        lambda fam, v: bounds.success_upper_bound(3, 2, 1, v, Fraction(1, 1000)), 100),
    "separation_floor n": (lambda fam, v: bounds.separation_floor(v, 2), 3,
                           (0, "need n >= 1, got 0")),
    "separation_floor k": (lambda fam, v: bounds.separation_floor(3, v), 2,
                           (0, "need k >= 1, got 0")),
    "separation_holds n": (lambda fam, v: bounds.separation_holds(v, 2, Fraction(1, 64)), 3,
                           (0, "need n >= 1, got 0")),
    "separation_holds k": (lambda fam, v: bounds.separation_holds(3, v, Fraction(1, 64)), 2,
                           (0, "need k >= 1, got 0")),
    "answer_space_size n": (lambda fam, v: bounds.answer_space_size(v, 2), 3),
    "answer_space_size k": (lambda fam, v: bounds.answer_space_size(3, v), 2),
    "inner_seed_distance n": (lambda fam, v: bounds.inner_seed_distance(v), 3),
    "binomial_ball_size q": (lambda fam, v: exactmath.binomial_ball_size(v, 5, 2), 3),
    "binomial_ball_size n": (lambda fam, v: exactmath.binomial_ball_size(2, v, 2), 5),
    "binomial_ball_size r": (lambda fam, v: exactmath.binomial_ball_size(2, 5, v), 2),
    "exp_neg_bounds terms": (lambda fam, v: exactmath.exp_neg_bounds(Fraction(1, 3), v), 8),
    "gv_floor q": (lambda fam, v: bounds.gv_floor(v, 8, 3), 2),
    "gv_floor length": (lambda fam, v: bounds.gv_floor(2, v, 3), 8),
    "gv_floor min_dist": (lambda fam, v: bounds.gv_floor(2, 8, v), 3),
    "certified_code q": (
        lambda fam, v: codes.certified_code(v, 3, [[0, 0, 1], [1, 1, 0]]).words, 2),
    "certified_code length": (
        lambda fam, v: codes.certified_code(2, v, [[0, 0, 1], [1, 1, 0]]).words, 3),
    "gv_greedy q": (lambda fam, v: codes.gv_greedy(v, 4, 2).words, 2),
    "gv_greedy length": (lambda fam, v: codes.gv_greedy(3, v, 2).words, 4),
    "gv_greedy min_dist": (lambda fam, v: codes.gv_greedy(3, 4, v).words, 2),
    "membership_q_oracle n": (lambda fam, v: geometry.membership_q_oracle(v, [], [0, 0, 0]), 3),
    "q_membership_scaled_batch n": (
        lambda fam, v: geometry.q_membership_scaled_batch(v, [], np.zeros((1, 3), int), 1), 3),
    "index_to_signs index": (lambda fam, v: geometry.index_to_signs(3, v), 5,
                             (8, "orthant index 8 out of range [0, 8)")),
    "peak_vertices n": (lambda fam, v: geometry.peak_vertices(v, 1), 3,
                        (1, "need n >= 2, got 1")),
    "peak_vertices index": (lambda fam, v: geometry.peak_vertices(3, v), 5,
                            (-1, "orthant index -1 out of range [0, 8)")),
    "make_geometry n": (lambda fam, v: geometry.make_geometry(v), 3),
    "InnerBody n": (lambda fam, v: geometry.InnerBody(v, 0b1011).text(), 3),
    "InnerBody mask": (lambda fam, v: geometry.InnerBody(3, v).text(), 0b1011),
    "label_text value": (lambda fam, v: geometry.label_text(3, v), 5,
                         (10, "label 10 out of range [0, 10)")),
    "classify_batch n": (lambda fam, v: geometry.classify_batch(v, np.full((2, 3), 0.25)), 3,
                         (0, "need n >= 1, got 0")),
    "classify_point n": (lambda fam, v: geometry.classify_point(v, [0.25] * 3), 3,
                         (0, "need n >= 1, got 0")),
    "sample_region_label_rows count": (
        lambda fam, v: geometry.sample_region_label_rows(fam.body(3).factors, v, _rng()), 3),
    "sample_region_labels count": (
        lambda fam, v: geometry.sample_region_labels(fam.inner.bodies[1], v, _rng()), 3),
    "sample_inner_batch count": (
        lambda fam, v: geometry.sample_inner_batch(fam.inner.bodies[1], v, _rng()), 3),
    "inner_family_from_code n": (
        lambda fam, v: family_mod.inner_family_from_code(v, fam.inner.code).masks, 3),
    "build_inner_family n": (lambda fam, v: family_mod.build_inner_family(v).masks, 2),
    "build_product_family k": (
        lambda fam, v: family_mod.build_product_family(2, v).outer.words, 2),
    "ProductFamily.body index": (lambda fam, v: fam.body(v).text(), 3),
    "Transcript.record_membership index": (lambda fam, v: _membership_entry(v), 3,
                                           (8, "peak index 8 out of range [0, 8)")),
    "Transcript.record_random label": (lambda fam, v: _random_entry(v), 8,
                                       (9, "label 9 out of range [0, 9)")),
    "run_game hypothesis": (_game_naming, 3, (256, "hypothesis 256 out of range [0, 256)")),
    "discrete_membership index": (
        lambda fam, v: oracles.discrete_membership(fam.body(3), (v, 1)), 2,
        (-1, "peak index -1 out of range [0, 8)")),
    "parse_transcript_log n": (
        lambda fam, v: oracles.parse_transcript_log(v, "R C,P1").entries, 3),
    "discrete_random_batch count": (
        lambda fam, v: oracles.discrete_random_batch(fam.body(3), v, _rng()), 3),
    "continuous_random_batch count": (
        lambda fam, v: oracles.continuous_random_batch(fam.body(3), v, _rng()), 3),
    "corollary_explore pair index": (
        lambda fam, v: halfspace.corollary_explore(fam, [(v, 1)], 1, 1000, 0).rows, 3,
        (256, "pair index 256 out of range [0, 256)")),
    "corollary_explore seed": (
        lambda fam, v: halfspace.corollary_explore(fam, [(3, 1)], 1, 1000, v).rows, 3,
        (-1, "need seed >= 0, got -1")),
    "noise_floor samples": (lambda fam, v: halfspace.noise_floor(v, 10), 1000),
    "noise_floor directions": (lambda fam, v: halfspace.noise_floor(1000, v), 10),
    "direction_set n": (lambda fam, v: halfspace.direction_set(v, 2, 3, _rng()), 3,
                        (1, "need n >= 2, got 1")),
    "direction_set k": (lambda fam, v: halfspace.direction_set(3, v, 3, _rng()), 2,
                        (0, "need k >= 1, got 0")),
    "direction_set random_count": (lambda fam, v: halfspace.direction_set(3, 2, v, _rng()), 2),
    "halfspace_discrepancy dirs": (
        lambda fam, v: halfspace.halfspace_discrepancy(fam.body(3), fam.body(5), v, 1000, 1), 1),
    "halfspace_discrepancy samples": (
        lambda fam, v: halfspace.halfspace_discrepancy(fam.body(3), fam.body(5), 1, v, 1), 1000),
    "halfspace_discrepancy seed": (
        lambda fam, v: halfspace.halfspace_discrepancy(fam.body(3), fam.body(5), 1, 1000, v), 1,
        (-1, "need seed >= 0, got -1")),
}


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_takes_integers_only(family_32, name):
    call, good, *out_of_range = ENTRY_POINTS[name]
    for bad in (2.5, Fraction(5, 2)):
        with pytest.raises(ParameterError, match="must be an integer, not"):
            call(family_32, bad)
    for bad, message in out_of_range:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            call(family_32, bad)
    assert _same(call(family_32, np.int64(good)), call(family_32, good))


def test_require_int_messages():
    assert require_int(np.int64(5), "count", 0) == 5
    assert type(require_int(np.uint8(5), "count")) is int
    with pytest.raises(ParameterError, match=r"^count must be an integer, not 2\.5$"):
        require_int(2.5, "count")
    with pytest.raises(ParameterError, match=r"^count must be an integer, not Fraction\(5, 2\)$"):
        require_int(Fraction(5, 2), "count", 0)
    with pytest.raises(ParameterError, match=r"^need count >= 1, got 0$"):
        require_int(0, "count", 1)
    assert require_int(np.int64(7), "peak index", 0, 8) == 7
    for value in (-1, 8):
        with pytest.raises(ParameterError,
                           match=rf"^peak index {value} out of range \[0, 8\)$"):
            require_int(value, "peak index", 0, 8)
    assert require_addressable(np.int64(4), 3, "labels") == 4
    with pytest.raises(ParameterError, match=r"^need labels count >= 0, got -1$"):
        require_addressable(-1, 3, "labels")


def test_run_verification_refuses_a_bad_seed_before_any_check(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", (("none", lambda ctx: pytest.fail("ran a check")),))
    for seed, message in ((-1, "need seed >= 0, got -1"),
                          (1.5, "seed must be an integer, not 1.5")):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            verify.run_verification(seed=seed)


# ---------------------------------------------------------------------------
# indices that were truncated with int() are refused

def test_membership_reads_an_index_generator_once(family_32):
    body = family_32.body(3)
    want = oracles.discrete_membership(body, (1, 2))
    assert oracles.discrete_membership(body, (i for i in (1, 2))) == want
    session = harness.OracleSession(body, 1, _rng())
    assert session.membership(i for i in (1, 2)) == want
    assert session.transcript.entries == [("M", (1, 2), want)]


def test_session_membership_refuses_float_indices(family_32):
    session = harness.OracleSession(family_32.body(3), 2, _rng())
    with pytest.raises(ParameterError, match="peak index"):
        session.membership((1.9, 2.2))
    assert session.transcript.entries == []
    assert session.membership((np.int64(1), 2)) == session.membership((1, 2))


def test_session_membership_checks_each_index_once(family_32, monkeypatch):
    checked = []

    def counting(value, what, *bounds, _real=oracles.require_int):
        checked.append(what)
        return _real(value, what, *bounds)
    session = harness.OracleSession(family_32.body(3), 4, _rng())
    monkeypatch.setattr(oracles, "require_int", counting)
    answers = session.membership((np.int64(1), 2))
    assert checked == ["peak index"] * 2
    assert session.transcript.entries == [("M", (1, 2), answers)]
    assert all(type(i) is int for i in session.transcript.entries[0][1])
    for indices, message in (((1, 8), "peak index 8 out of range [0, 8)"),
                             ((1,), "query has 1 indices, body has 2 factors"),
                             ((), "query has 0 indices, body has 2 factors")):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            session.membership(indices)
    assert len(session.transcript.entries) == 1


def test_membership_refuses_a_transcript_of_another_n(family_32):
    transcript = oracles.Transcript(4)
    with pytest.raises(ParameterError, match="transcript has n=4, body has n=3"):
        oracles.discrete_membership(family_32.body(3), (1, 2), transcript)
    assert transcript.entries == []


def test_transcript_refuses_float_labels():
    transcript = oracles.Transcript(3)
    with pytest.raises(ParameterError, match="label"):
        transcript.record_random([1.7, 8.0])
    assert transcript.entries == []


def test_transcript_refuses_answers_that_are_not_bools(family_32):
    transcript = oracles.Transcript(3)
    for answers in ((1, 0), ("true", False), (None, True)):
        with pytest.raises(ParameterError, match="must be bools"):
            transcript.record_membership((1, 2), answers)
    assert transcript.entries == []
    transcript.record_membership((np.int64(1), 2), [True, False])
    assert transcript.entries == [("M", (1, 2), (True, False))]
    assert len(harness.consistent_indices(transcript, family_32)) > 0


def test_corollary_explore_refuses_float_pairs(family_32):
    with pytest.raises(ParameterError, match="pair index"):
        halfspace.corollary_explore(family_32, [(0.5, 1.7)], 1, 1000, 0)


def test_label_text_refuses_an_integral_float():
    with pytest.raises(ParameterError, match="label"):
        geometry.label_text(3, 3.0)


# ---------------------------------------------------------------------------
# numpy integers where the library needs a Python int's bit_length

def test_choose_parameters_and_query_bound_take_numpy_ints():
    d = np.int64(64)
    assert bounds.choose_parameters(d, 1 / 8) == bounds.choose_parameters(64, 1 / 8)
    assert bounds.query_lower_bound(d, Fraction(1, 8)) == bounds.query_lower_bound(
        64, Fraction(1, 8))
    assert bounds.query_lower_bound(d, Fraction(1, 8)).q_floor == 194


def test_gv_greedy_takes_a_numpy_alphabet_size():
    code = codes.gv_greedy(np.int64(2), 4, 2)
    assert type(code.alphabet_size) is int
    assert np.array_equal(code.words, codes.gv_greedy(2, 4, 2).words)
    assert code.min_distance == 2


def test_simulate_batch_zero_width_draws_nothing():
    rng = _rng()
    state = rng.bit_generator.state
    points = oracles.simulate_batch(3, np.zeros((2, 0), dtype=np.int64), rng)
    assert points.shape == (2, 0) and points.dtype == np.float64
    assert rng.bit_generator.state == state
