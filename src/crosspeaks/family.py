"""Families of hard-to-tell-apart bodies, indexed by error-correcting codes.

Inner level: fix n, take the greedy binary code of length 2^(n-1) and
distance ceil(2^n/8), and extend each word by its complement.  The
extended words are constant-weight 2^(n-1) words over the 2^n orthants, and
each word is a body's peak mask (coordinate i = orthant i = mask bit i): an
InnerBody with exactly half the peaks, any two differing in at least 2^n/4
peaks, i.e. symmetric-difference volume >= vol(O_n)/(4(n-1)).

Product level: a q-ary outer code (alphabet = the inner bodies, length k,
distance >= ceil(k/2)) turns each codeword into a k-fold product body in
dimension d = kn.  The normalized distance

    dist(K, L) = vol(K \\ L) / max(vol K, vol L)

factorizes: for equal-volume bodies it is 1 - prod_i (R + m_i) / (R + w)
with R = 2^n (n-1), w = 2^(n-1) the per-factor peak count, and m_i the
number of shared peaks in factor i.  The inner code's distance keeps
m_i <= 3 * 2^n / 8 in differing factors and the outer code's makes at least
ceil(k/2) factors differ; certify_separation checks, in exact integer
arithmetic, that every pair clears 1 - e^(-k/(16n)).  It proves this as the
construction does when the outer code is XOR-closed: with s* the most peaks
two distinct inner bodies share and d the outer distance, every pair has
prod (R + m_i) <= (R + w)^(k-d) (R + s*)^d, and a pair attaining the bound
makes it the exact minimum.  Other codes take scan_separation, which checks
all F(F-1)/2 pairs and is the code bound's oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes as codes_mod
from .bounds import inner_seed_distance, separation_floor
from .codes import Code, certified_code
from .errors import BudgetExceededError, ParameterError, VerificationError, require_int
from .exactmath import exp_neg_brackets
from .geometry import InnerBody, core_weight, inner_volume, make_geometry

# construction caps, read at call time
DEFAULT_MAX_N = 4
DEFAULT_MAX_K = 8

MANIFEST_COMMENT = "# crosspeaks family manifest v1"
MAX_MASK_BITS = 32  # inner_family_from_code forms masks as an int64 product: n <= 5
_WORD = (1 << 64) - 1  # one uint64 word of packed factor masks
_PIN_INDEX_BYTES = 1 << 7  # bitset bytes, 8 bodies each, _pin_index fills a pass


# ---------------------------------------------------------------------------
# inner families

@dataclass(frozen=True)
class InnerFamily:
    """All bodies carved from one constant-weight binary code.

    code words live over length 2^n (one coordinate per orthant, coordinate
    i = orthant i); every word has weight 2^(n-1) and pairwise distance
    >= 2^n / 4.
    """

    n: int
    code: Code
    bodies: tuple[InnerBody, ...]

    @property
    def size(self) -> int:
        return len(self.bodies)

    @functools.cached_property
    def masks(self) -> np.ndarray:
        """(size,) uint64 vector of the bodies' peak masks, built once and
        read-only."""
        masks = np.array([b.mask for b in self.bodies], dtype=np.uint64)
        masks.flags.writeable = False
        return masks


def inner_family_from_code(n: int, code: Code) -> InnerFamily:
    """Wrap a binary code as an inner family, validating the family invariants."""
    if code.alphabet_size != 2:
        raise ParameterError(f"inner code must be binary, got q={code.alphabet_size}")
    n = require_int(n, "n", 2)
    if n > MAX_MASK_BITS.bit_length() - 1:  # decided before 2^n is formed: n may be 10^12
        raise ParameterError(
            f"n={n} needs {1 << n if n < 64 else f'2^{n}'}-bit peak masks; at most "
            f"{MAX_MASK_BITS} bits (n <= 5) are supported")
    orthants = 1 << n
    if code.length != orthants:
        raise ParameterError(
            f"code length {code.length} != 2^n = {orthants}")
    half = orthants // 2
    if (code.words.sum(axis=1) != half).any():
        raise VerificationError(f"an inner word is not constant weight {half}")
    if code.size >= 2 and 4 * code.min_distance < orthants:
        raise VerificationError(
            f"min distance {code.min_distance} under the floor {orthants}/4")
    masks = code.words @ (1 << np.arange(orthants, dtype=np.int64))  # coordinate i is bit i
    bodies = tuple(InnerBody(n, mask) for mask in masks.tolist())
    return InnerFamily(n=n, code=code, bodies=bodies)


def outer_distance_floor(k: int) -> int:
    """ceil(k/2), the fewest factors in which two family bodies may differ."""
    return -((-k) // 2)


def build_inner_family(n: int) -> InnerFamily:
    """Greedy seed code over length 2^(n-1), complement-extended."""
    n = require_int(n, "n", 2)
    if n > DEFAULT_MAX_N:
        raise BudgetExceededError(f"n={n} over the construction cap {DEFAULT_MAX_N}")
    seed = codes_mod.gv_greedy(2, 1 << (n - 1), inner_seed_distance(n))
    return inner_family_from_code(n, codes_mod.complement_extend(seed))


# ---------------------------------------------------------------------------
# product bodies and families

@dataclass(frozen=True)
class ProductBody:
    """A k-fold product of same-dimension inner bodies, living in R^(kn)."""

    factors: tuple[InnerBody, ...]

    def __post_init__(self) -> None:
        if len({f.n for f in self.factors}) != 1:
            raise ParameterError("a product body needs one or more factors, all of one dimension")

    @property
    def n(self) -> int:
        return self.factors[0].n

    @property
    def k(self) -> int:
        return len(self.factors)

    @property
    def dimension(self) -> int:
        return self.n * self.k

    def volume(self) -> Fraction:
        v = Fraction(1)
        for f in self.factors:
            v *= inner_volume(f)
        return v

    def text(self) -> str:
        return "|".join(f.text() for f in self.factors)


@dataclass(frozen=True)
class ProductFamily:
    """Inner family + outer code; bodies materialize on demand by index."""

    inner: InnerFamily
    outer: Code

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def k(self) -> int:
        return self.outer.length

    @property
    def dimension(self) -> int:
        return self.n * self.k

    @property
    def size(self) -> int:
        return self.outer.size

    def __len__(self) -> int:
        return self.outer.size

    def body(self, index: int) -> ProductBody:
        index = require_int(index, "body index", 0, self.size)
        word = self.outer.words[index].tolist()
        return ProductBody(tuple(self.inner.bodies[s] for s in word))

    @functools.cached_property
    def _mask_words(self) -> np.ndarray:
        """Every body's factor masks packed by _pack, built once and read-only."""
        out = self._pack(self.inner.masks[self.outer.words])
        out.flags.writeable = False
        return out

    @functools.cached_property
    def _pin_index(self) -> np.ndarray:
        """_mask_words turned on its side, built once and read-only, in
        passes of _PIN_INDEX_BYTES columns: row b, one for each bit of a
        _mask_words row (factor b >> n, orthant b & (2^n - 1), _pack's
        order), is a little-endian uint64 bitset over [0, F) of the bodies
        carrying that peak, body i at bit i & 63 of word i >> 6.  Padding
        bits, and the rows of the masks' padding bits, are zero."""
        words = self._mask_words.astype("<u8", copy=False)
        out = np.zeros((64 * words.shape[1], -(-self.size // 64) * 8), dtype=np.uint8)
        for at in range(0, out.shape[1], _PIN_INDEX_BYTES):
            bits = np.unpackbits(words[8 * at:8 * (at + _PIN_INDEX_BYTES)].view(np.uint8),
                                 axis=1, bitorder="little")
            packed = np.packbits(bits.T, axis=1, bitorder="little")
            out[:, at:at + packed.shape[1]] = packed
        out = out.view("<u8").astype(np.uint64, copy=False)
        out.flags.writeable = False
        return out

    def _pack(self, masks: np.ndarray) -> np.ndarray:
        """(..., k) uint64 factor peak masks as (..., ceil(k 2^n / 64)) uint64
        words: a row's masks end to end, factor j's at bit j 2^n, cut into
        64-bit words.  2^n divides 64, so no factor straddles two words."""
        width = 1 << self.n
        per = 64 // width       # factors per word
        shifts = (np.arange(self.k) % per * width).astype(np.uint64)
        return np.bitwise_or.reduceat(masks << shifts, np.arange(0, self.k, per), axis=-1)

    def _matching(self, care_bits: int, want_bits: int) -> np.ndarray:
        """Indices of the bodies whose masks equal want_bits on every bit of
        care_bits, both pins packed like the masks, factor j's at bit j 2^n,
        so one test per 64-bit word covers 64 / 2^n factors; the caller
        checked that want_bits lies inside care_bits < 2^(k 2^n)."""
        if not care_bits:
            return np.arange(self.size)
        words, alive = self._mask_words, None
        for i in range(words.shape[1]):
            word_care = care_bits >> 64 * i & _WORD
            if word_care:
                hit = words[:, i] & word_care == want_bits >> 64 * i & _WORD
                alive = hit if alive is None else alive & hit
        return alive.nonzero()[0]


def product_family_from_parts(inner: InnerFamily, outer: Code) -> ProductFamily:
    if outer.alphabet_size != inner.size:
        raise ParameterError(
            f"outer alphabet {outer.alphabet_size} != inner family size {inner.size}")
    need = outer_distance_floor(outer.length)
    if outer.size >= 2 and outer.min_distance < need:
        raise VerificationError(
            f"outer min distance {outer.min_distance} under ceil(k/2) = {need}")
    return ProductFamily(inner=inner, outer=outer)


def build_product_family(n: int, k: int) -> ProductFamily:
    """The inner family at n under the greedy outer code of length k and
    distance ceil(k/2); product_family_from_parts takes any other outer code."""
    k = require_int(k, "k", 1)
    if k > DEFAULT_MAX_K:
        raise BudgetExceededError(f"k={k} over the construction cap {DEFAULT_MAX_K}")
    inner = build_inner_family(n)
    outer = codes_mod.gv_greedy(inner.size, k, outer_distance_floor(k))
    return product_family_from_parts(inner, outer)


# ---------------------------------------------------------------------------
# exact distances

def intersection_volume_inner(a: InnerBody, b: InnerBody) -> Fraction:
    """vol(a intersect b) = core + |shared peaks| * peak, exactly: every peak
    is either wholly inside or wholly outside the other body."""
    if a.n != b.n:
        raise ParameterError("intersection needs equal dimensions")
    g = make_geometry(a.n)
    shared = (a.mask & b.mask).bit_count()
    return g.core_volume + shared * g.peak_volume


def intersection_volume(a: ProductBody, b: ProductBody) -> Fraction:
    if a.n != b.n or a.k != b.k:
        raise ParameterError("intersection needs matching (n, k)")
    v = Fraction(1)
    for fa, fb in zip(a.factors, b.factors):
        v *= intersection_volume_inner(fa, fb)
    return v


def exact_distance(a: ProductBody, b: ProductBody) -> Fraction:
    """dist(a, b) = vol(bigger \\ smaller) / vol(bigger), exact.

    With R = 2^n (n-1) = core/peak, a factor with p peaks has volume
    core (R + p)/R and two factors sharing m peaks intersect in core (R + m)/R,
    so the common factor (core/R)^k cancels and the distance is
    (big - inter)/big over the integers big = max(prod (R + p_a), prod (R + p_b))
    and inter = prod (R + m).  ProductBody.volume and intersection_volume are
    the Fraction reference; the two-branch form covers unequal-volume pairs.
    """
    if a.n != b.n or a.k != b.k:
        raise ParameterError("intersection needs matching (n, k)")
    r = core_weight(a.n)
    vol_a = vol_b = inter = 1
    for fa, fb in zip(a.factors, b.factors):
        vol_a *= r + fa.peak_count
        vol_b *= r + fb.peak_count
        inter *= r + (fa.mask & fb.mask).bit_count()
    big = max(vol_a, vol_b)
    return Fraction(big - inter, big)


# ---------------------------------------------------------------------------
# separation certificate

def _pair_threshold(n: int, k: int, w: int) -> tuple[int, int]:
    """(T, den) such that for intersection counts m_1..m_k the pair clears the
    floor 1 - e^(-k/(16n)) iff prod (R + m_i) <= T, where den = (R + w)^k.

    dist = 1 - num/den with num = prod (R + m_i); dist > 1 - e^(-x) iff
    num < den * e^(-x).  Since e^(-x) is irrational for rational x != 0,
    den * e^(-x) is never an integer and T = floor(den * e^(-x)) is decided
    exactly from rational bounds on e^(-x).
    """
    den = (core_weight(n) + w) ** k
    for lo, hi in exp_neg_brackets(Fraction(k, 16 * n)):
        t_lo = den * lo.numerator // lo.denominator
        if t_lo == den * hi.numerator // hi.denominator:
            return t_lo, den


@dataclass(frozen=True)
class SeparationReport:
    n: int
    k: int
    family_size: int
    pairs_checked: int
    mode: str  # always "all": every distinct pair is covered
    min_distance: Fraction
    floor_lo: Fraction
    floor_hi: Fraction
    max_shared_on_diff: int
    min_differing_factors: int
    method: str  # "code-bound" or "pair-scan"


def certify_separation(family: ProductFamily, *, seed: int = 0) -> SeparationReport:
    """Check that every two bodies are over 1 - e^(-k/(16n)) apart, the way
    the construction proves it, else pair by pair.

    The code bound: let s* be the most peaks two distinct inner bodies share
    and d the outer code's minimum distance.  Two bodies differ in at least
    d factors, so every pair has prod (R + m_i) <= (R + w)^(k-d) (R + s*)^d.
    It is used when the outer code is XOR-closed, d >= ceil(k/2),
    8 s* <= 3 * 2^n and the bound clears the floor, and when a witness
    attains it: a pair (c, c XOR u), u a codeword of weight d, that shares
    s* peaks in each of u's factors.  The bound is then the exact minimum,
    at a cost of q^2 inner pairs and one pass over the code per u tried.
    Otherwise scan_separation checks every pair, under the pair budget.

    Both give the same report but for method; mode "all" and pairs_checked
    = F(F-1)/2 mean every pair is covered.  The library builds a Code only
    through certified_code, so both code distances are certified exactly.
    Raises VerificationError on any violation and BudgetExceededError when a
    needed scan is over budget.  seed is accepted and has no effect: neither
    method draws anything.
    """
    report = _separation_by_code_bound(family)
    return report if report is not None else scan_separation(family)


def _separation_by_code_bound(family: ProductFamily) -> SeparationReport | None:
    """certify_separation's code bound with its witness, or None when a
    condition fails or no witness exists."""
    n, k, outer = family.n, family.k, family.outer
    d = outer.min_distance
    if d < outer_distance_floor(k) or not outer.xor_closed:
        return None
    masks = family.inner.masks
    shared = np.bitwise_count(masks[:, None] & masks)  # q x q peaks shared
    w = 1 << (n - 1)
    s_star = int(shared.max(where=shared < w, initial=0))  # distinct bodies share < w
    if 8 * s_star > 3 << n:
        return None
    r = core_weight(n)
    threshold, den = _pair_threshold(n, k, w)
    bound = (r + w) ** (k - d) * (r + s_star) ** d
    if bound > threshold:
        return None
    for u in outer.words[np.count_nonzero(outer.words, axis=1) == d]:
        support = np.flatnonzero(u)
        c = outer.words[:, support]  # c XOR u is a codeword: the code is closed
        if (shared[c, c ^ u[support]] == s_star).all(axis=1).any():
            break
    else:
        return None
    f = family.size
    floor_lo, floor_hi = separation_floor(n, k)
    return SeparationReport(
        n=n, k=k, family_size=f, pairs_checked=f * (f - 1) // 2, mode="all",
        min_distance=1 - Fraction(bound, den), floor_lo=floor_lo,
        floor_hi=floor_hi, max_shared_on_diff=s_star, min_differing_factors=d,
        method="code-bound")


def scan_separation(family: ProductFamily) -> SeparationReport:
    """certify_separation by checking all F(F-1)/2 pairs, each one exact
    integer compare; the oracle for the code bound.

      * shared peaks <= 3 * 2^n / 8 in differing factors: implied by the inner
        code's distance (>= 2^n / 4); the scan finds each pair's count
      * at least ceil(k/2) differing factors: the outer code's min_distance
      * distance 1 - prod (R + m_i) / (R + w)^k over the floor

    Raises BudgetExceededError first when the pairs exceed
    codes.DEFAULT_PAIR_BUDGET, and VerificationError on any violation,
    naming the pair when the scan finds it.
    """
    n, k, f = family.n, family.k, family.size
    if f < 2:
        raise ParameterError("separation needs at least two bodies")
    total_pairs = f * (f - 1) // 2
    if total_pairs > codes_mod.DEFAULT_PAIR_BUDGET:
        raise BudgetExceededError(
            f"{f} bodies means {total_pairs} pairs, over the budget of "
            f"{codes_mod.DEFAULT_PAIR_BUDGET}")
    min_diff, need = family.outer.min_distance, outer_distance_floor(k)
    if min_diff < need:
        raise VerificationError(f"outer min distance {min_diff} under ceil(k/2) = {need}")
    masks = family.inner.masks[family.outer.words]  # (F, k) per-factor masks
    w = 1 << (n - 1)
    r = core_weight(n)
    threshold, den = _pair_threshold(n, k, w)
    # every factor R + m_i is at most R + w, so products stay <= den:
    # int64 when den fits, exact Python ints otherwise
    dtype = object if den > np.iinfo(np.int64).max else np.int64
    worst_num = -1
    max_shared = 0
    for i in range(f - 1):
        # peaks body i shares with each later body, per factor; every body
        # has w peaks, so equal factors share w and differing ones fewer
        shared = np.bitwise_count(masks[i] & masks[i + 1:])
        row_shared = int(shared.max(where=shared < w, initial=0))
        if 8 * row_shared > 3 << n:
            row = int((shared == row_shared).any(axis=1).argmax())
            raise VerificationError(
                f"pair ({i}, {i + 1 + row}) shares {row_shared} peaks in a "
                "differing factor, over 3*2^n/8")
        max_shared = max(max_shared, row_shared)
        num = (r + shared.astype(dtype)).prod(axis=1)
        over = num > threshold
        if over.any():
            row = int(over.argmax())
            raise VerificationError(
                f"pair ({i}, {i + 1 + row}): distance 1 - {int(num[row])}/{den} "
                f"fails the floor 1 - e^(-{k}/(16*{n}))")
        worst_num = max(worst_num, int(num.max()))

    floor_lo, floor_hi = separation_floor(n, k)
    return SeparationReport(
        n=n, k=k, family_size=f, pairs_checked=total_pairs, mode="all",
        min_distance=1 - Fraction(worst_num, den), floor_lo=floor_lo,
        floor_hi=floor_hi, max_shared_on_diff=max_shared,
        min_differing_factors=min_diff, method="pair-scan")


def certify_cardinality(family: ProductFamily) -> None:
    """Assert |family| > (q/4)^(k/2) exactly (compared via squaring)."""
    q = Fraction(family.inner.size, 4)
    if Fraction(family.size) ** 2 <= q ** family.k:
        raise VerificationError(
            f"family size {family.size} fails the floor (q/4)^(k/2) "
            f"with q={family.inner.size}, k={family.k}")


def certify_equal_volumes(family: ProductFamily) -> Fraction:
    vols = {inner_volume(b) for b in family.inner.bodies}
    if len(vols) != 1:
        raise VerificationError("inner bodies do not share a volume")
    return vols.pop() ** family.k


# ---------------------------------------------------------------------------
# manifests

def format_manifest(family: ProductFamily) -> str:
    lines = [
        MANIFEST_COMMENT,
        f"n={family.n} k={family.k} inner_size={family.inner.size} "
        f"outer_size={family.outer.size}",
    ]
    lines += [",".join(map(str, w)) for w in family.outer.words.tolist()]
    lines.append(codes_mod.format_code(family.inner.code).rstrip("\n"))
    return "\n".join(lines) + "\n"


def write_manifest(family: ProductFamily, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_manifest(family))


def parse_manifest(text: str) -> ProductFamily:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParameterError("empty manifest")
    n, k, inner_size, outer_size = codes_mod.header_fields(
        lines[0], ("n", "k", "inner_size", "outer_size"), "manifest")
    if len(lines) != 1 + outer_size + 1 + inner_size:
        raise ParameterError(
            f"manifest should hold {outer_size} outer words and a code block of "
            f"{inner_size} words; found {len(lines) - 1} content lines")
    outer_words = codes_mod.parse_words(lines[1:1 + outer_size], "outer word")
    inner = inner_family_from_code(
        n, codes_mod.parse_code("\n".join(lines[1 + outer_size:])))
    outer = certified_code(inner.size, k, outer_words)
    return product_family_from_parts(inner, outer)


def read_manifest(path) -> ProductFamily:
    with open(path, encoding="utf-8") as fh:
        return parse_manifest(fh.read())
