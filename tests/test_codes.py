import functools
import hashlib
import itertools
import math
import operator
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crosspeaks import codes
from crosspeaks.codes import (certified_code, complement_extend, format_code,
                              gv_floor, gv_greedy, min_distance_exhaustive,
                              parse_code)
from crosspeaks.errors import (BudgetExceededError, ParameterError,
                               VerificationError)
from crosspeaks.exactmath import binomial_ball_size


# ---------------------------------------------------------------------------
# ball sizes and the size floor

def test_v_q_examples():
    # V_q(n, r), the Hamming-ball size behind the greedy floor
    assert binomial_ball_size(2, 4, 1) == 5
    assert binomial_ball_size(2, 4, 2) == 11
    for q in (2, 3, 16):
        for n in (1, 4, 8):
            assert binomial_ball_size(q, n, 0) == 1
            assert binomial_ball_size(q, n, n) == q ** n


def test_v_q_matches_comb_sum():
    for q, n, r in itertools.product((2, 3, 16), (1, 4, 8), range(9)):
        want = sum(math.comb(n, i) * (q - 1) ** i for i in range(min(r, n) + 1))
        assert binomial_ball_size(q, n, r) == want


def test_gv_floor_examples():
    assert gv_floor(2, 4, 2) == math.ceil(16 / 5)  # = 4
    assert gv_floor(2, 8, 4) == math.ceil(256 / binomial_ball_size(2, 8, 3))
    assert gv_floor(16, 4, 2) == math.ceil(16 ** 4 / binomial_ball_size(16, 4, 1))


# ---------------------------------------------------------------------------
# greedy construction

def test_greedy_2_4_2_exact_words():
    # lexicographic scan at distance 2 keeps exactly the even-weight words
    code = gv_greedy(2, 4, 2)
    want = tuple(w for w in itertools.product((0, 1), repeat=4)
                 if sum(w) % 2 == 0)
    assert code.words.tolist() == [list(w) for w in want]
    assert code.size == 8
    assert code.min_distance == 2


def test_greedy_distance_one_keeps_everything():
    code = gv_greedy(2, 4, 1)
    assert code.size == 16
    assert code.words.tolist() == [list(w) for w in itertools.product((0, 1), repeat=4)]


def test_greedy_grid_meets_floor_and_certifies():
    for q, length, d in [(2, 4, 2), (2, 8, 4), (2, 8, 2), (3, 4, 2),
                         (4, 8, 4), (16, 4, 2)]:
        code = gv_greedy(q, length, d)
        assert code.size >= gv_floor(q, length, d)
        assert code.min_distance >= d
        assert min_distance_exhaustive(code.words) == code.min_distance


def test_greedy_known_sizes():
    assert gv_greedy(2, 8, 4).size == 16
    assert gv_greedy(16, 4, 2).size == 4096
    assert gv_greedy(4, 8, 4).size == 256


def test_code_words_are_a_read_only_matrix():
    code = gv_greedy(16, 4, 2)
    assert code.words.shape == (4096, 4) and code.words.dtype == np.uint8
    assert not code.words.flags.writeable
    with pytest.raises(ValueError):
        code.words[0, 0] = 1
    # a writeable input array is copied, so its owner cannot change the code
    words = np.array([[0, 1], [1, 0]])
    code = certified_code(2, 2, words)
    words[0, 0] = 1
    assert code.words.tolist() == [[0, 1], [1, 0]]
    assert certified_code(300, 2, [(0, 1), (256, 1)]).words.dtype == np.uint16


@functools.cache
def _reference_greedy(q, length, min_dist):
    """The greedy definition itself, in plain Python: every word in
    lexicographic order, kept when its Hamming distance to each kept word is
    at least min_dist."""
    kept = []
    for word in itertools.product(range(q), repeat=length):
        if all(sum(map(operator.ne, word, k)) >= min_dist for k in reversed(kept)):
            kept.append(word)
    return tuple(kept)


@settings(deadline=None)
@given(q=st.sampled_from((2, 3, 4, 5, 8)), length=st.integers(1, 6), data=st.data())
def test_greedy_matches_reference(q, length, data):
    # powers of two build by XOR doubling, 3 and 5 by the window scan
    min_dist = data.draw(st.integers(1, length), label="min_dist")
    # the reference is quadratic in the code size, which the Singleton bound
    # caps at q^(length - min_dist + 1); skip the few cases it would take
    # seconds on: (4, 6, 1), (5, 5, 1) and (5, 6, d <= 3)
    assume(q ** (2 * length - min_dist + 1) <= 1 << 22)
    code = gv_greedy(q, length, min_dist)
    assert code.words.tolist() == [list(w) for w in _reference_greedy(q, length, min_dist)]
    assert code.alphabet_size == q


def test_greedy_pinned_words():
    # SHA-256 of format_code output from the earlier pairwise-filter scan:
    # the bitmap scan must reproduce it byte for byte
    pins = {
        (16, 4, 2): "66329d8ae64651df707a9d444d3ac0cc774a28a31a33b93f4978d6e8207c9045",
        (4, 8, 4): "f6af79d326ecb7fc09a132d783a6b7e9edcaed54f571c89ba0f774bcb8e70efe",
    }
    for args, digest in pins.items():
        text = format_code(gv_greedy(*args))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_greedy_deterministic():
    a = gv_greedy(2, 8, 4)
    b = gv_greedy(2, 8, 4)
    assert a.words.tolist() == b.words.tolist()


def test_greedy_budget():
    with pytest.raises(BudgetExceededError):
        gv_greedy(2, 30, 4)


def test_greedy_pair_budget_checked_before_scan():
    # gv_floor(3, 13, 2) = 59049 words: over an alphabet that is no power of
    # two only the pair scan certifies, and its 1.7e9 pairs could never fit
    # the default pair budget, so the scan is refused up front
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        gv_greedy(3, 13, 2)
    assert time.perf_counter() - start < 2.0


def test_greedy_bad_parameters():
    with pytest.raises(ParameterError):
        gv_greedy(1, 4, 2)
    with pytest.raises(ParameterError):
        gv_greedy(2, 4, 5)
    with pytest.raises(ParameterError):
        gv_greedy(2, 4, 0)


# ---------------------------------------------------------------------------
# complement extension

def test_complement_extend_small():
    code = certified_code(2, 2, [(0, 1), (1, 0)])
    out = complement_extend(code)
    assert out.words.tolist() == [[0, 1, 1, 0], [1, 0, 0, 1]]
    assert out.length == 4
    assert out.min_distance == 4


def test_complement_extend_diameter_code():
    base = certified_code(2, 4, list(itertools.product((0, 1), repeat=4)))
    assert base.min_distance == 1
    out = complement_extend(base)
    assert out.size == 16
    assert out.length == 8
    assert out.min_distance == 2
    # constant weight: every word has exactly length/2 ones
    assert all(sum(w) == 4 for w in out.words)


def test_complement_extend_rejects_qary():
    with pytest.raises(ParameterError, match="binary"):
        complement_extend(certified_code(3, 2, [(0, 1), (2, 0)]))


def test_complement_extend_doubles_distance():
    for length, d in [(4, 2), (8, 4), (8, 2)]:
        base = gv_greedy(2, length, d)
        out = complement_extend(base)
        assert out.min_distance == 2 * base.min_distance
        assert out.size == base.size


# ---------------------------------------------------------------------------
# distance certification and word validation

def test_min_distance_examples():
    assert min_distance_exhaustive([(0, 0, 0, 0), (1, 1, 1, 1)]) == 4
    even = [w for w in itertools.product((0, 1), repeat=4) if sum(w) % 2 == 0]
    assert min_distance_exhaustive(even) == 2


def test_min_distance_symbols_past_one_byte():
    # outer codes over inner families of more than 256 bodies
    code = certified_code(300, 2, [(0, 1), (256, 1)])
    assert code.min_distance == 1
    assert min_distance_exhaustive([(0, 70000), (0, 4464)]) == 1
    # as floats, 2^63 and 2^63 + 1 would compare equal
    with pytest.raises(ParameterError):
        min_distance_exhaustive([(0, 1 << 63), (0, (1 << 63) + 1)])


def test_min_distance_needs_two_words():
    with pytest.raises(ParameterError):
        min_distance_exhaustive([])
    with pytest.raises(ParameterError):
        min_distance_exhaustive([(0, 1)])


def test_min_distance_pair_budget(monkeypatch):
    words = list(itertools.product((0, 1), repeat=4))  # 120 pairs
    monkeypatch.setattr(codes, "DEFAULT_PAIR_BUDGET", 119)
    with pytest.raises(BudgetExceededError):
        min_distance_exhaustive(words)
    # the budget is checked before the scan: ragged words would fail in it
    with pytest.raises(BudgetExceededError):
        min_distance_exhaustive(words[:-1] + [(0, 1)])
    monkeypatch.setattr(codes, "DEFAULT_PAIR_BUDGET", 120)
    assert min_distance_exhaustive(words) == 1


def _span_words(m, length, basis):
    """Every XOR combination of the packed length*m-bit basis ints, unpacked
    into words of m-bit symbols, in sorted order."""
    span = {0}
    for v in basis:
        span |= {x ^ v for x in span}
    return [tuple(x >> (m * (length - 1 - i)) & ((1 << m) - 1) for i in range(length))
            for x in sorted(span)]


@st.composite
def _spans(draw):
    m = draw(st.integers(1, 4), label="m")  # q = 2, 4, 8, 16
    length = draw(st.integers(1, 12 // m), label="length")
    bits = length * m
    basis = draw(st.lists(st.integers(1, (1 << bits) - 1), min_size=1,
                          max_size=min(bits, 8)), label="basis")
    words = _span_words(m, length, basis)
    return m, length, draw(st.permutations(words), label="order")


@settings(deadline=None)
@given(span=_spans())
def test_closure_certificate_matches_pair_scan(span):
    m, length, words = span
    assume(len(words) >= 2)
    want = min_distance_exhaustive(words)
    with pytest.MonkeyPatch.context() as patch:
        # a closed code never reaches the pair scan: a zero budget cannot bite
        patch.setattr(codes, "DEFAULT_PAIR_BUDGET", 0)
        assert certified_code(1 << m, length, words).min_distance == want


@settings(deadline=None)
@given(span=_spans(), data=st.data())
def test_non_closed_codes_fall_back_to_pair_scan(span, data):
    m, length, words = span
    q = 1 << m
    assume(len(words) >= 4)
    i = data.draw(st.integers(0, len(words) - 1), label="index")
    dropped = words[:i] + words[i + 1:]  # 2^r - 1 words: not a power of two
    assert certified_code(q, length, dropped).min_distance == min_distance_exhaustive(dropped)
    outside = [w for w in itertools.product(range(q), repeat=length) if w not in words]
    assume(outside)
    swapped = list(words)
    swapped[i] = data.draw(st.sampled_from(outside), label="outsider")
    # still 2^r distinct words, but of GF(2) rank r + 1
    assert certified_code(q, length, swapped).min_distance == min_distance_exhaustive(swapped)
    shift = swapped[i]  # a coset of the span: 2^r words of rank r + 1, no zero word
    coset = [tuple(a ^ b for a, b in zip(w, shift)) for w in words]
    assert certified_code(q, length, coset).min_distance == min_distance_exhaustive(coset)


@settings(deadline=None)
@given(length=st.integers(1, 4), data=st.data())
def test_ternary_codes_certify_by_pair_scan(length, data):
    words = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * length),
                               min_size=2, max_size=16, unique=True), label="words")
    assert certified_code(3, length, words).min_distance == min_distance_exhaustive(words)


def test_greedy_code_past_the_pair_budget_certifies_by_closure(monkeypatch):
    # the floor's 1075 words fit the budget; the code's 4096 words (8386560
    # pairs) would not, as (16, 6, 3)'s 65536 words do not at the default
    monkeypatch.setattr(codes, "DEFAULT_PAIR_BUDGET", 600_000)
    code = gv_greedy(16, 4, 2)
    assert code.size == 4096 and code.min_distance == 2
    with pytest.raises(BudgetExceededError):
        min_distance_exhaustive(code.words)


def test_certified_rejects_bad_words():
    with pytest.raises(ParameterError):
        certified_code(2, 3, [(0, 1)])  # wrong length
    with pytest.raises(ParameterError):
        certified_code(2, 2, [(0, 2)])  # symbol out of range
    with pytest.raises(ParameterError):
        certified_code(2, 2, [(0, 1), (0, 1)])  # duplicate
    with pytest.raises(ParameterError):
        certified_code(1, 2, [(0, 0)])
    with pytest.raises(ParameterError):
        certified_code(2, 2, [(0, 1), (1,)])  # ragged rows
    with pytest.raises(ParameterError):
        certified_code(2, 2, [(0, 1), (1, 0.0)])  # float symbol
    with pytest.raises(ParameterError):
        certified_code(2, 2, [(0, 1), (1, 1 << 63)])  # past int64
    with pytest.raises(ParameterError):
        certified_code(4, 2, [])  # no words
    with pytest.raises(ParameterError):
        certified_code(2, 2, np.array([[0, 1], [0, 1]], dtype=np.uint8))  # duplicate rows
    with pytest.raises(ParameterError):
        certified_code(2, 2, np.zeros((2, 1, 2), dtype=np.uint8))  # not a matrix
    for q, word in ((2, (0, 0)), (4, (0, 0)), (16, (3, 1)), (3, (2, 1))):
        with pytest.raises(ParameterError):
            certified_code(q, 2, [word])  # one word has no minimum distance


# ---------------------------------------------------------------------------
# serialization

def test_format_parse_roundtrip_binary():
    code = gv_greedy(2, 8, 4)
    text = format_code(code)
    assert text.splitlines()[0] == "q=2 len=8 dmin=4"
    back = parse_code(text)
    assert back.alphabet_size == 2
    assert back.words.tolist() == code.words.tolist()
    assert back.min_distance == code.min_distance


def test_format_parse_roundtrip_qary():
    code = gv_greedy(3, 4, 2)
    text = format_code(code)
    assert text.splitlines()[0] == "q=3 len=4 dmin=2"
    assert "," in text.splitlines()[1]
    back = parse_code(text)
    assert back.alphabet_size == 3
    assert back.words.tolist() == code.words.tolist()


def test_parse_rejects_corrupt_dmin():
    text = format_code(gv_greedy(2, 4, 2)).replace("dmin=2", "dmin=3")
    with pytest.raises(VerificationError):
        parse_code(text)


def test_parse_rejects_malformed():
    with pytest.raises(ParameterError):
        parse_code("")
    with pytest.raises(ParameterError):
        parse_code("q=2 len=4\n0000\n")
    with pytest.raises(ParameterError):
        parse_code("q=2 len=4 dmin=2\n00x0\n1111\n")
    with pytest.raises(ParameterError):
        parse_code("q=3 len=4 dmin=4\n0,0,0,0\n0,1,x,0\n")
