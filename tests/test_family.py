"""Family construction and the exact pairwise-distance machinery.

The distance values here are checked by two unrelated routes: the closed
intersection-volume formula and plain Monte Carlo frequency.  Keep both;
collapsing them would leave the formula checking itself.
"""

import dataclasses
import decimal
import functools
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from crosspeaks import codes
from crosspeaks import family as family_mod
from crosspeaks.bounds import inner_seed_distance
from crosspeaks.errors import (BudgetExceededError, ParameterError,
                               VerificationError)
from crosspeaks.exactmath import compare_exp_neg
from crosspeaks.family import (InnerFamily, ProductBody, ProductFamily, _pair_threshold,
                               build_inner_family,
                               build_product_family, certify_cardinality,
                               certify_equal_volumes, certify_separation,
                               exact_distance,
                               format_manifest, inner_family_from_code,
                               outer_distance_floor,
                               intersection_volume, intersection_volume_inner,
                               parse_manifest, product_family_from_parts,
                               read_manifest, scan_separation,
                               write_manifest)
from crosspeaks.geometry import (InnerBody, classify_batch,
                                 core_label_value, inner_volume,
                                 make_geometry, sample_inner_batch)
from crosspeaks.codes import certified_code, gv_greedy
from crosspeaks.verify import run_verification

F = Fraction


# ---------------------------------------------------------------------------
# inner families

def test_inner_family_3():
    fam = build_inner_family(3)
    assert fam.size == 16
    assert all(b.peak_count == 4 for b in fam.bodies)
    assert all(inner_volume(b) == F(5, 3) for b in fam.bodies)
    masks = [b.mask for b in fam.bodies]
    assert len(set(masks)) == 16
    for a, b in itertools.combinations(masks, 2):
        assert bin(a ^ b).count("1") >= 2


def test_inner_family_2():
    fam = build_inner_family(2)
    assert fam.size == 4
    assert all(b.peak_count == 2 for b in fam.bodies)
    for a, b in itertools.combinations(fam.bodies, 2):
        assert bin(a.mask ^ b.mask).count("1") >= 1


def test_inner_family_rejects_bad_codes():
    with pytest.raises(VerificationError):
        # not constant weight
        inner_family_from_code(2, certified_code(2, 4, [(1, 1, 1, 0), (0, 0, 0, 1)]))
    with pytest.raises(ParameterError):
        inner_family_from_code(3, certified_code(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)]))
    with pytest.raises(BudgetExceededError):
        build_inner_family(6)


def test_inner_family_rejects_qary_code():
    code = certified_code(3, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    with pytest.raises(ParameterError, match="binary"):
        inner_family_from_code(2, code)


def test_inner_family_rejects_masks_wider_than_dtype():
    # n=6 has 64 orthants, one bit each, past the 32-bit peak masks
    half = (1,) * 32 + (0,) * 32
    code = certified_code(2, 64, [half, half[::-1]])
    with pytest.raises(ParameterError, match="64-bit peak masks"):
        inner_family_from_code(6, code)


# ---------------------------------------------------------------------------
# exact distances, cross-checked by sampling

def _shared(a, b):
    return sum(a.has_peak(i) and b.has_peak(i) for i in range(1 << a.n))


def _pair_sharing(fam, shared):
    for a, b in itertools.combinations(fam.bodies, 2):
        if _shared(a, b) == shared:
            return a, b
    raise AssertionError(f"no pair sharing {shared} peaks")


def _inner_distance(a, b):
    return exact_distance(ProductBody((a,)), ProductBody((b,)))


def test_inner_distance_formula():
    # n=3: ratio core/peak = 16, weight 4, so a pair sharing m peaks sits at
    # 1 - (16+m)/20
    fam = build_inner_family(3)
    for m in (2, 3):
        a, b = _pair_sharing(fam, m)
        assert intersection_volume_inner(a, b) == F(4, 3) + m * F(1, 12)
        assert _inner_distance(a, b) == 1 - F(16 + m, 20)
    a, b = _pair_sharing(fam, 3)
    assert _inner_distance(a, b) == F(1, 20)


def test_inner_distance_monte_carlo(rng):
    # independent route: sample body a, count hits in body b; the exact
    # answer 1/20 must land within 3 sigma
    fam = build_inner_family(3)
    a, b = _pair_sharing(fam, 3)
    count = 2_000_000
    pts, _ = sample_inner_batch(a, count, rng)
    inside_b = [core_label_value(3), *(i for i in range(8) if b.has_peak(i))]
    hit = np.isin(classify_batch(3, pts), inside_b)
    miss = 1.0 - float(np.mean(hit))
    sigma = math.sqrt(0.05 * 0.95 / count)
    assert abs(miss - 0.05) < 3 * sigma


def test_product_distance_two_factors():
    fam = build_inner_family(3)
    a, b = _pair_sharing(fam, 3)
    pa = ProductBody((a, a, a, a))
    pb = ProductBody((b, b, a, a))
    # two differing factors, each sharing 3 peaks: 1 - (19/20)^2
    assert exact_distance(pa, pb) == 1 - F(19, 20) ** 2
    assert exact_distance(pa, pb) == F(39, 400)


def test_distance_identity_and_symmetry():
    fam = build_inner_family(3)
    for a, b in itertools.combinations(fam.bodies, 2):
        d = _inner_distance(a, b)
        assert d == _inner_distance(b, a)
        assert 0 < d < 1
    for a in fam.bodies:
        assert _inner_distance(a, a) == 0


def test_distance_triangle_sampled(family_32, rng):
    idx = rng.integers(0, family_32.size, size=(40, 3))
    for i, j, l in idx:
        a, b, c = (family_32.body(int(t)) for t in (i, j, l))
        assert exact_distance(a, c) <= exact_distance(a, b) + exact_distance(b, c)


def test_distance_rejects_mismatched_shapes():
    with pytest.raises(ParameterError):
        _inner_distance(InnerBody(2, 0), InnerBody(3, 0))
    pa = ProductBody((InnerBody(3, 0),))
    pb = ProductBody((InnerBody(3, 0),) * 2)
    with pytest.raises(ParameterError):
        intersection_volume(pa, pb)
    with pytest.raises(ParameterError):
        exact_distance(pa, pb)


@settings(deadline=None)
@given(n=st.integers(2, 4), k=st.integers(1, 4), data=st.data())
def test_exact_distance_matches_volume_reference(n, k, data):
    # the integer form must equal (max vol - intersection) / max vol computed
    # from the Fraction volumes, also when the two volumes differ
    mask = st.integers(0, (1 << (1 << n)) - 1)
    a, b = (ProductBody(tuple(InnerBody(n, data.draw(mask)) for _ in range(k)))
            for _ in range(2))
    big = max(a.volume(), b.volume())
    expected = (big - intersection_volume(a, b)) / big
    assert exact_distance(a, b) == expected == exact_distance(b, a)


def test_per_factor_ratio_cap():
    # every differing inner pair keeps (r + shared)/(r + weight) under
    # (1 + 3/(8(n-1))) / (1 + 1/(2(n-1))), which is 19/20 at n=3
    fam = build_inner_family(3)
    cap = (1 + F(3, 16)) / (1 + F(1, 4))
    assert cap == F(19, 20)
    for a, b in itertools.combinations(fam.bodies, 2):
        m = _shared(a, b)
        assert F(16 + m, 20) <= cap


def test_inner_symmetric_difference_floor():
    # vol(a XOR b) >= vol(O_n) / (4 (n-1)) for any two distinct family bodies
    for n in (2, 3):
        fam = build_inner_family(n)
        g = make_geometry(n)
        floor = g.core_volume / (4 * (n - 1))
        for a, b in itertools.combinations(fam.bodies, 2):
            sym = 2 * (inner_volume(a) - intersection_volume_inner(a, b))
            assert sym >= floor


# ---------------------------------------------------------------------------
# separation certificates

def test_construction_code_distances():
    assert [inner_seed_distance(n) for n in range(2, 6)] == [1, 1, 2, 4]
    assert [outer_distance_floor(k) for k in range(1, 6)] == [1, 1, 2, 2, 3]
    for n in (2, 3, 4):  # complement extension doubles the seed distance
        assert build_inner_family(n).code.min_distance == 2 * inner_seed_distance(n)


def test_pair_threshold_matches_decimal():
    # T = floor(den * e^(-k/(16n))), against stdlib decimal at 300 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 300
        for n in (2, 3, 4, 5):
            w = 1 << (n - 1)
            for k in range(1, 13):
                den = ((1 << n) * (n - 1) + w) ** k
                exact = decimal.Decimal(den) * (-decimal.Decimal(k) / (16 * n)).exp()
                assert _pair_threshold(n, k, w) == (int(exact), den), (n, k)


def test_certify_separation_32(family_32):
    rep = certify_separation(family_32)
    assert rep.mode == "all"
    assert rep.family_size == 256
    assert rep.pairs_checked == 256 * 255 // 2
    assert rep.min_distance == F(1, 20)
    assert rep.min_distance > rep.floor_hi
    assert rep.max_shared_on_diff <= 3 * 8 // 8
    assert rep.min_differing_factors >= 1


def test_certify_separation_34(family_34):
    rep = certify_separation(family_34)
    assert rep.mode == "all"
    assert rep.family_size == 4096
    assert rep.min_distance == F(39, 400)
    assert rep.min_distance > rep.floor_hi
    assert rep.max_shared_on_diff == 3
    assert rep.min_differing_factors >= 2


def test_certify_separation_exact_past_int64():
    # n=5, k=16: den = (R + w)^k = 144^16 overflows int64, and the one pair
    # shares no peak in any factor, so its distance is 1 - (128/144)^16
    half = (1,) * 16 + (0,) * 16
    inner = inner_family_from_code(5, certified_code(2, 32, [half, half[::-1]]))
    family = product_family_from_parts(
        inner, certified_code(2, 16, [(0,) * 16, (1,) * 16]))
    rep = certify_separation(family)
    assert rep.min_distance == 1 - F(8, 9) ** 16
    assert rep.min_distance == exact_distance(family.body(0), family.body(1))


def test_matching_tests_every_mask_word(family_32, family_34):
    half = (1,) * 16 + (0,) * 16
    wide = product_family_from_parts(   # k 2^n = 512 bits: eight mask words
        inner_family_from_code(5, certified_code(2, 32, [half, half[::-1]])),
        certified_code(2, 16, [(0,) * 16, (1,) * 16]))
    inner = build_inner_family(3)
    shifted = product_family_from_parts(   # 72 bits: factor 8 in a second word
        inner, certified_code(inner.size, 9, [tuple((s + j) % inner.size for j in range(9))
                                              for s in range(inner.size)]))
    rng = np.random.default_rng(7)
    for family in (family_32, family_34, wide, shifted):
        # the reference reads each factor's InnerBody.mask as a Python int
        masks = [[f.mask for f in family.body(i).factors] for i in range(family.size)]
        width = 1 << family.n
        for _ in range(40):
            # one body's peaks on random care bits, some factors unpinned
            body = int(rng.integers(family.size))
            care = rng.integers(0, 1 << width, size=family.k).tolist()
            care = [0 if rng.random() < 0.5 else c for c in care]
            want = [m & c for m, c in zip(masks[body], care)]
            # the pins packed as _matching takes them, factor j's at bit j 2^n
            care_bits = sum(c << j * width for j, c in enumerate(care))
            want_bits = sum(w << j * width for j, w in enumerate(want))
            fast = family._matching(care_bits, want_bits)
            slow = [i for i, row in enumerate(masks)
                    if all(m & c == w for m, c, w in zip(row, care, want))]
            assert fast.tolist() == slow
            assert body in fast


@functools.cache
def _inner_family(n):
    return build_inner_family(n)


def _cut(masks, width):
    """The 64-bit words, least significant first, of masks laid end to end
    as one Python int, mask j at bit j width: the cut _matching takes."""
    bits = sum(int(m) << j * width for j, m in enumerate(masks))
    return [bits >> 64 * i & (1 << 64) - 1 for i in range(-(-len(masks) * width // 64))]


@pytest.mark.parametrize("n, k", [(2, 17), (3, 9), (4, 5)])
def test_pack_cuts_the_layout_as_python_ints_do(n, k):
    # each k leaves a partial last word; _mask_words is checked against
    # each body's InnerBody.mask ints
    inner, width = _inner_family(n), 1 << n
    words = [tuple((s + j) % inner.size for j in range(k)) for s in range(inner.size)]
    family = product_family_from_parts(inner, certified_code(inner.size, k, words))
    masks = np.random.default_rng(n).integers(0, 1 << width, size=(3, 4, k)).astype(np.uint64)
    packed = family._pack(masks)
    assert packed.dtype == np.uint64
    assert packed.tolist() == [[_cut(row, width) for row in block] for block in masks]
    assert family._pack(masks[0, 0]).tolist() == _cut(masks[0, 0], width)
    assert family._mask_words.tolist() == [
        _cut([f.mask for f in family.body(i).factors], width) for i in range(family.size)]


@pytest.mark.parametrize("name", ["28", "32", "34", "two_word"])
@pytest.mark.parametrize("chunk", [1, 7, None])
def test_pin_index_rows_are_the_mask_words_bits(request, monkeypatch, name, chunk):
    # row b is bit b of every body's _mask_words row as one Python int,
    # body i at bit i: bits past F and the rows of mask bits past k 2^n
    # (the two-word family's 72 pins fill 128 rows) stay zero, at every
    # pass size
    family = dataclasses.replace(request.getfixturevalue(f"family_{name}"))  # nothing cached
    if chunk:
        monkeypatch.setattr(family_mod, "_PIN_INDEX_BYTES", chunk)
    words, index = family._mask_words, family._pin_index
    assert index.dtype == np.uint64
    assert index.shape == (64 * words.shape[1], -(-family.size // 64))
    for b, row in enumerate(index):
        bit = words[:, b >> 6] >> np.uint64(b & 63) & np.uint64(1)
        want = sum(1 << i for i in np.flatnonzero(bit).tolist())
        assert int.from_bytes(row.astype("<u8").tobytes(), "little") == want, b
    assert np.count_nonzero(index.any(axis=1)) == family.k << family.n
    with pytest.raises(ValueError):
        index[0, 0] = 0


@settings(deadline=None)
@given(n=st.sampled_from((2, 3)), k=st.integers(1, 4), data=st.data())
def test_certify_separation_matches_brute_force(n, k, data):
    # random outer words over a greedy inner family, with no outer distance
    # floor: the certificate must raise exactly when a pair breaks one of its
    # three conditions, and otherwise report what a Fraction scan finds
    inner = _inner_family(n)
    # a small top symbol makes pairs that differ in few factors common
    symbol = st.integers(0, data.draw(st.integers(1, inner.size - 1), label="top"))
    words = data.draw(st.lists(st.tuples(*[symbol] * k), min_size=2, max_size=8,
                               unique=True), label="outer words")
    family = ProductFamily(inner, certified_code(inner.size, k, words))
    dists, shared, diffs = [], [], []
    for i, j in itertools.combinations(range(family.size), 2):
        a, b = family.body(i), family.body(j)
        dists.append(exact_distance(a, b))
        differ = [(fa, fb) for fa, fb in zip(a.factors, b.factors) if fa != fb]
        diffs.append(len(differ))
        shared.append(max(_shared(fa, fb) for fa, fb in differ))
    violated = (any(compare_exp_neg(F(k, 16 * n), 1 - d) < 0 for d in dists)
                or any(8 * m > 3 * (1 << n) for m in shared)
                or any(2 * c < k for c in diffs))
    if violated:
        with pytest.raises(VerificationError):
            certify_separation(family)
        return
    rep = certify_separation(family)
    assert rep.pairs_checked == len(dists)
    assert rep.min_distance == min(dists)
    assert rep.max_shared_on_diff == max(shared)
    assert rep.min_differing_factors == min(diffs)


def test_code_bound_certifies_past_the_pair_budget():
    # 16384 and 65536 bodies: 1.3e8 and 2.1e9 pairs, over the default budget
    # of 5e7, certified exactly by the code bound's witnessed minimum
    for (n, k), want in {(4, 2): F(1, 28), (3, 6): F(1141, 8000)}.items():
        family = build_product_family(n, k)
        rep = certify_separation(family)
        assert rep.method == "code-bound" and rep.mode == "all"
        assert rep.pairs_checked == family.size * (family.size - 1) // 2
        assert rep.min_distance == want > rep.floor_hi
        assert rep.min_differing_factors == family.outer.min_distance


@settings(deadline=None)
@given(n=st.sampled_from((2, 3)), k=st.integers(1, 4), data=st.data())
def test_code_bound_matches_pair_scan(n, k, data):
    # outer codes that are GF(2) spans of inner indices are XOR-closed, so
    # certify_separation tries the code bound: it must report what the pair
    # scan reports, or raise the same VerificationError
    inner = _inner_family(n)
    symbol = st.integers(0, inner.size - 1)
    basis = data.draw(st.lists(st.tuples(*[symbol] * k), min_size=1, max_size=4),
                      label="basis")
    span = {(0,) * k}
    for v in basis:
        span |= {tuple(a ^ b for a, b in zip(w, v)) for w in span}
    assume(len(span) >= 2)
    family = ProductFamily(inner, certified_code(inner.size, k, sorted(span)))
    try:
        scan = scan_separation(family)
    except VerificationError as exc:
        with pytest.raises(VerificationError) as raised:
            certify_separation(family)
        assert str(raised.value) == str(exc)
        return
    rep = certify_separation(family)
    event(rep.method)
    assert rep.method in ("code-bound", "pair-scan")
    assert rep.min_distance == scan.min_distance
    assert rep.max_shared_on_diff == scan.max_shared_on_diff
    assert rep.min_differing_factors == scan.min_differing_factors
    assert dataclasses.replace(rep, method=scan.method) == scan


def test_certify_separation_pair_budget(family_32, monkeypatch):
    # family_32's 256 words minus one are not XOR-closed: only the pair scan
    # certifies them, and the budget applies to it alone
    open_code = ProductFamily(family_32.inner, certified_code(
        family_32.inner.size, 2, family_32.outer.words[1:]))
    pairs = 255 * 254 // 2
    # these words differ in one factor of four, which the certificate rejects
    inner = _inner_family(3)
    bad = ProductFamily(inner, certified_code(
        inner.size, 4, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]))
    monkeypatch.setattr(codes, "DEFAULT_PAIR_BUDGET", pairs - 1)
    with pytest.raises(BudgetExceededError):
        certify_separation(open_code)
    monkeypatch.setattr(codes, "DEFAULT_PAIR_BUDGET", pairs)
    rep = certify_separation(open_code, seed=1)
    assert rep.mode == "all" and rep.pairs_checked == pairs
    assert rep.method == "pair-scan"
    assert certify_separation(open_code, seed=2) == rep  # seed has no effect
    # the closed code certifies by its bound, which scans no pair
    monkeypatch.setattr(codes, "DEFAULT_PAIR_BUDGET", 0)
    rep = certify_separation(family_32)
    assert rep.method == "code-bound"
    assert rep.mode == "all" and rep.pairs_checked == 256 * 255 // 2
    # the budget is checked before the scan
    monkeypatch.setattr(codes, "DEFAULT_PAIR_BUDGET", 2)
    with pytest.raises(BudgetExceededError):
        certify_separation(bad)
    monkeypatch.setattr(codes, "DEFAULT_PAIR_BUDGET", 3)
    with pytest.raises(VerificationError):
        certify_separation(bad)


def test_certify_separation_refuses_a_shared_peak_overflow():
    # two n = 4 bodies sharing 7 > 3*2^4/8 = 6 peaks, too close for an inner
    # family: the code bound gives up on 8 s* > 3 * 2^n and the pair scan names
    # the pair
    masks = (0x00FF, 0x017F)
    code = certified_code(2, 16, [[m >> i & 1 for i in range(16)] for m in masks])
    inner = InnerFamily(4, code, tuple(InnerBody(4, m) for m in masks))
    family = product_family_from_parts(inner, certified_code(2, 2, [(0, 0), (1, 1)]))
    assert family.outer.xor_closed
    with pytest.raises(VerificationError, match=re.escape(
            "pair (0, 1) shares 7 peaks in a differing factor, over 3*2^n/8")):
        certify_separation(family)


def test_code_bound_reads_closure_off_the_code(family_32, monkeypatch):
    # certified_code decides XOR closure once and the Code records it
    monkeypatch.setattr(codes, "closure_distance",
                        lambda q, words: pytest.fail("closure decided twice"))
    assert family_32.outer.xor_closed
    assert certify_separation(family_32).method == "code-bound"


def test_verification_failures_name_the_seed():
    # a library error raised inside a check carries the seed, as the
    # runner's own checks always did, and a check's text is unchanged
    inner = _inner_family(3)
    cases = (([(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)],
              "outer min distance 1 under ceil(k/2) = 2 (seed=7)"),
             ([(0, 0), (0, 1)], "family size at (3, 2) drifted to 2 (seed=7)"))
    for words, detail in cases:
        family = ProductFamily(inner, certified_code(inner.size, len(words[0]), words))
        last = run_verification(family, seed=7)[-1]
        assert (last.name, last.passed, last.detail) == ("family-separation", False, detail)


def test_certify_cardinality_and_volumes(family_32, family_34):
    certify_cardinality(family_32)  # 256 > (16/4)^1
    certify_cardinality(family_34)  # 4096 > (16/4)^2
    assert certify_equal_volumes(family_32) == F(5, 3) ** 2
    assert certify_equal_volumes(family_34) == F(5, 3) ** 4


# ---------------------------------------------------------------------------
# product family plumbing

def test_family_shapes(family_34):
    assert family_34.n == 3
    assert family_34.k == 4
    assert family_34.dimension == 12
    assert family_34.size == 4096
    assert len(family_34) == 4096
    body = family_34.body(0)
    assert body.k == 4 and body.n == 3
    assert body.volume() == F(5, 3) ** 4
    with pytest.raises(ParameterError):
        family_34.body(4096)


def test_family_equal_volumes_all_bodies(family_32):
    vols = {family_32.body(i).volume() for i in range(family_32.size)}
    assert vols == {F(5, 3) ** 2}


def test_binary_outer_code_over_two_body_inner_family():
    inner = inner_family_from_code(2, certified_code(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)]))
    outer = gv_greedy(2, 4, 2)
    family = product_family_from_parts(inner, outer)
    assert family.size == 8
    assert inner.masks.tolist() == [0b0011, 0b1100]
    assert [[f.mask for f in family.body(i).factors] for i in range(family.size)] == [
        [(0b0011, 0b1100)[s] for s in w] for w in outer.words.tolist()]


def test_inner_masks_built_once_read_only(family_32):
    masks = family_32.inner.masks
    assert family_32.inner.masks is masks
    assert masks.dtype == np.uint64 and masks.shape == (family_32.inner.size,)
    assert not masks.flags.writeable
    with pytest.raises(ValueError):
        masks[0] = 0
    assert masks.tolist() == [b.mask for b in family_32.inner.bodies]


def test_build_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        build_product_family(3, 0)
    with pytest.raises(BudgetExceededError):
        build_product_family(3, 9)


# ---------------------------------------------------------------------------
# manifests

def test_manifest_roundtrip_bytes(family_32, tmp_path):
    text = format_manifest(family_32)
    fam2 = parse_manifest(text)
    assert format_manifest(fam2) == text
    path = tmp_path / "fam.manifest"
    write_manifest(family_32, path)
    fam3 = read_manifest(path)
    assert format_manifest(fam3) == text
    assert fam3.outer.words.tolist() == family_32.outer.words.tolist()
    assert fam3.inner.code.words.tolist() == family_32.inner.code.words.tolist()


def test_manifest_header_content(family_32):
    lines = format_manifest(family_32).splitlines()
    assert lines[0] == "# crosspeaks family manifest v1"
    assert lines[1] == "n=3 k=2 inner_size=16 outer_size=256"


def test_manifest_rejects_corruption(family_32):
    text = format_manifest(family_32)
    with pytest.raises(ParameterError):
        parse_manifest("")
    with pytest.raises(ParameterError):
        parse_manifest(text.replace("outer_size=256", "outer_size=255"))
    with pytest.raises(ParameterError):
        parse_manifest(text.replace("n=3 k=2", "x=3 k=2"))
    # int() spellings the writer never emits, in the header and an outer word
    for old, bad in (("n=3 k=2", "n=+3 k=0_2"), ("outer_size=256", "outer_size=0256"),
                     ("\n0,1\n", "\n0,0_1\n"), ("\n0,1\n", "\n0,+1\n"),
                     ("\n0,1\n", "\n0, 1\n")):
        assert old in text
        with pytest.raises(ParameterError):
            parse_manifest(text.replace(old, bad, 1))
    # a well-formed inner code block over three symbols
    with pytest.raises(ParameterError, match="binary"):
        parse_manifest("n=2 k=1 inner_size=2 outer_size=2\n0\n1\n"
                       "q=3 len=4 dmin=4\n1,1,0,0\n0,0,1,1\n")
    # flipping one bit of the inner code breaks the stored dmin certificate
    # or the constant-weight family invariant
    lines = text.splitlines()
    swap = lines[-1].replace("0", "1", 1)
    assert swap != lines[-1]
    with pytest.raises((VerificationError, ParameterError)):
        parse_manifest("\n".join(lines[:-1] + [swap]) + "\n")
