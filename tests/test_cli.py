"""End-to-end subcommand runs through cli.main; every assertion reads the
printed output or the exit code, nothing reaches into internals."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import crosspeaks
from crosspeaks import codes
from crosspeaks.cli import main
from crosspeaks.exactmath import exp_neg_bounds
from crosspeaks.family import read_manifest

FAM32 = pathlib.Path(__file__).resolve().parents[1] / "perfbench/fixtures/fam32.manifest"
FAM34 = FAM32.with_name("fam34.manifest")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only reference: no command pays for importing it
    src = str(pathlib.Path(crosspeaks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, crosspeaks.cli, crosspeaks.verify; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# gen-family

def test_gen_family_writes_manifest(capsys, tmp_path):
    out = tmp_path / "fam.manifest"
    code, stdout, _ = run(capsys, "gen-family", "--n", "2", "--k", "2",
                          "--out", str(out))
    assert code == 0
    assert "n=2 k=2" in stdout and "bodies=16" in stdout
    fam = read_manifest(out)
    assert fam.size == 16
    assert fam.inner.size == 4


# ---------------------------------------------------------------------------
# member

def test_member_inside_and_outside(capsys, manifest_32):
    code, stdout, _ = run(capsys, "member", "--manifest", manifest_32,
                          "--body-index", "0", "--point", "0,0,0,0,0,0")
    assert code == 0 and stdout.strip() == "true"
    code, stdout, _ = run(capsys, "member", "--manifest", manifest_32,
                          "--body-index", "0", "--point", "9/10,9/10,9/10,0,0,0")
    assert code == 0 and stdout.strip() == "false"


def test_member_dimension_mismatch(capsys, manifest_32):
    code, _, stderr = run(capsys, "member", "--manifest", manifest_32,
                          "--body-index", "0", "--point", "0,0,0")
    assert code == 2
    assert "dimension" in stderr


# ---------------------------------------------------------------------------
# sample

def test_sample_points_format(capsys, manifest_32):
    code, stdout, _ = run(capsys, "sample", "--manifest", manifest_32,
                          "--body-index", "3", "--count", "5", "--seed", "9")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 5
    assert all(len(ln.split(",")) == 6 for ln in lines)
    float(lines[0].split(",")[0])  # parses as a float


def test_sample_labels_format(capsys, manifest_32):
    code, stdout, _ = run(capsys, "sample", "--manifest", manifest_32,
                          "--body-index", "3", "--count", "8", "--seed", "9",
                          "--format", "labels")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 8
    for ln in lines:
        parts = ln.split(",")
        assert len(parts) == 2
        for tok in parts:
            assert tok == "C" or (tok.startswith("P") and len(tok) == 2)


def test_sample_deterministic(capsys, manifest_32):
    runs = []
    for _ in range(2):
        _, stdout, _ = run(capsys, "sample", "--manifest", manifest_32,
                           "--body-index", "1", "--count", "4", "--seed", "33")
        runs.append(stdout)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# game

def test_game_runs_and_writes_csv(capsys, manifest_32, tmp_path):
    csvs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, stdout, _ = run(capsys, "game", "--manifest", manifest_32,
                              "--q", "6", "--epsilon", "1/64",
                              "--trials", "60", "--seed", "4",
                              "--csv", str(path))
        assert code == 0
        assert "trials=60" in stdout
        assert "success_rate=" in stdout and "upper_bound=" in stdout
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]


def test_game_huge_budget_is_budget_exceeded(capsys, manifest_32):
    code, _, stderr = run(capsys, "game", "--manifest", manifest_32,
                          "--q", "100000000000", "--epsilon", "1/64",
                          "--trials", "1")
    assert code == 4
    assert "labels per trial" in stderr


def test_sample_too_many_points_is_budget_exceeded(capsys, manifest_32):
    # the label array alone would need 800 TB, so numpy refuses at once
    for fmt in ("points", "labels"):
        code, stdout, stderr = run(capsys, "sample", "--manifest", manifest_32,
                                   "--body-index", "0", "--count",
                                   "100000000000000", "--format", fmt)
        assert code == 4 and stdout == ""
        assert "budget exceeded" in stderr


def _assert_unaddressable(code, stdout, stderr):
    assert code == 4 and stdout == ""
    assert stderr.startswith("budget exceeded:") and "too large to allocate" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("count", [2**60, 2**64])
@pytest.mark.parametrize("fmt", ["points", "labels"])
def test_sample_unaddressable_count_is_budget_exceeded(capsys, manifest_32, fmt, count):
    # past the bytes numpy can address: refused before numpy's ValueError
    _assert_unaddressable(*run(capsys, "sample", "--manifest", manifest_32,
                               "--body-index", "0", "--count", str(count),
                               "--format", fmt))


@pytest.mark.parametrize("count", [2**60, 2**64])
def test_halfspace_gap_unaddressable_samples_is_budget_exceeded(capsys, manifest_32, count):
    _assert_unaddressable(*run(capsys, "halfspace-gap", "--manifest", manifest_32,
                               "--pair", "0,1", "--samples", str(count)))


@pytest.mark.parametrize("count", [2**60, 2**64])
def test_halfspace_gap_unaddressable_dirs_is_budget_exceeded(capsys, manifest_32, count):
    _assert_unaddressable(*run(capsys, "halfspace-gap", "--manifest", manifest_32,
                               "--pair", "0,1", "--dirs", str(count)))


def test_game_rejects_wide_epsilon(capsys, manifest_32):
    # 2 eps above the (3,2) separation floor
    code, _, stderr = run(capsys, "game", "--manifest", manifest_32,
                          "--q", "1", "--epsilon", "1/16", "--trials", "5",
                          "--seed", "1")
    assert code == 2
    assert "separation" in stderr


def test_game_accepts_an_epsilon_at_the_separation_floor(capsys):
    # 2 eps = 1 - hi for a 400-term bracket hi around e^-1/12, (3,4)'s floor:
    # too close to decide with 256 terms, and a 1300-digit denominator
    _, hi = exp_neg_bounds(Fraction(1, 12), 400)
    code, stdout, _ = run(capsys, "game", "--manifest", str(FAM34), "--q", "0",
                          "--trials", "1", "--epsilon", str((1 - hi) / 2))
    assert code == 0
    assert "trials=1 " in stdout


# ---------------------------------------------------------------------------
# bounds

def test_bounds_report(capsys):
    code, stdout, _ = run(capsys, "bounds", "--d", "1024", "--epsilon", "1/8")
    assert code == 0
    assert "n=64 k=16" in stdout
    assert "regime=certified" in stdout
    assert "q_floor=13510798882111488" in stdout


def test_bounds_splits_d_exactly_near_a_boundary(capsys):
    # sqrt(d/L) is just under 32, but its float rounds to 32.00000000000001
    code, stdout, _ = run(capsys, "bounds", "--d", "256", "--epsilon",
                          "27288755941615536693458622721/246734652324059215488247354561")
    assert code == 0
    assert "n=32 k=8" in stdout
    assert "q_floor=6291456" in stdout


def test_bounds_certifies_a_delta_at_a_q_step(capsys):
    # 1 - delta = (1001/1000) * 2^-1008; a fixed-slack log2 bracket refused it
    den = 1000 << 1008
    code, stdout, stderr = run(capsys, "bounds", "--d", "1024", "--epsilon", "1/8",
                               "--delta", f"{den - 1001}/{den}")
    assert code == 0, stderr
    assert "regime=certified" in stdout
    assert "q_floor=13510798882111487" in stdout


def test_bounds_rejects_non_power_of_two(capsys):
    code, _, stderr = run(capsys, "bounds", "--d", "1000", "--epsilon", "1/8")
    assert code == 2
    assert "power of two" in stderr


def test_bounds_rejects_big_epsilon(capsys):
    code, _, stderr = run(capsys, "bounds", "--d", "1024", "--epsilon", "1/4")
    assert code == 2
    assert "epsilon" in stderr


@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log2_d=st.integers(6, 40), epsilon=st.sampled_from(("1/8", "1/64")))
def test_bounds_large_d_exits_cleanly(capsys, log2_d, epsilon):
    # past d = 2^16 the certified family floor's log2 outgrows a float:
    # budget exceeded, before any 2^n-sized integer is built
    code, stdout, _ = run(capsys, "bounds", "--d", str(1 << log2_d), "--epsilon", epsilon)
    assert code in (0, 2, 4)
    assert (stdout == "") == (code != 0)


# ---------------------------------------------------------------------------
# halfspace-gap

def test_halfspace_gap_report(capsys, manifest_32):
    code, stdout, _ = run(capsys, "halfspace-gap", "--manifest", manifest_32,
                          "--pair", "0,200", "--dirs", "8",
                          "--samples", "1200", "--seed", "2")
    assert code == 0
    assert "pair=(0,200)" in stdout
    assert "exact_distance=" in stdout
    assert "ks_estimate=" in stdout and "noise_floor=" in stdout


def test_halfspace_gap_bad_index(capsys, manifest_32):
    code, _, stderr = run(capsys, "halfspace-gap", "--manifest", manifest_32,
                          "--pair", "0,999", "--dirs", "4",
                          "--samples", "1000", "--seed", "2")
    assert code == 2
    assert "out of range" in stderr


# ---------------------------------------------------------------------------
# verify and shared error paths

def test_verify_passes(capsys, manifest_32):
    code, stdout, _ = run(capsys, "verify", "--manifest", manifest_32)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert all(ln.startswith("[PASS]") for ln in lines[:-1])
    assert lines[-1].startswith("all ") and "checks passed" in lines[-1]


def test_verify_over_budget_exits_4(capsys, monkeypatch):
    # the pinned greedy codes' distances are re-certified by the pair scan,
    # which a budget of 1000 pairs refuses: an exceeded budget, not a failure
    monkeypatch.setattr(codes, "DEFAULT_PAIR_BUDGET", 1000)
    code, _, stderr = run(capsys, "verify")
    assert code == 4
    assert "budget exceeded" in stderr


def test_missing_manifest_is_parameter_error(capsys, tmp_path):
    code, _, stderr = run(capsys, "sample", "--manifest",
                          str(tmp_path / "nope.manifest"),
                          "--body-index", "0")
    assert code == 2
    assert "cannot read manifest" in stderr


def test_verify_rejects_masks_too_wide(capsys, tmp_path):
    # well-formed manifests but for n: 2^n orthants do not fit the peak
    # masks, and at n = 100000 the message must not print all of 2^n
    half = "1" * 32 + "0" * 32
    path = tmp_path / "fam62.manifest"
    for n in (6, 100000):
        path.write_text(f"n={n} k=2 inner_size=2 outer_size=2\n0,0\n1,1\n"
                        f"q=2 len=64 dmin=64\n{half}\n{half[::-1]}\n")
        code, _, stderr = run(capsys, "verify", "--manifest", str(path))
        assert code == 2, n
        assert "peak masks" in stderr, n


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_verify_rejects_factor_dimension_below_2(capsys, tmp_path, n):
    path = tmp_path / "small_n.manifest"
    path.write_text(f"n={n} k=1 inner_size=2 outer_size=2\n0\n1\n"
                    "q=2 len=2 dmin=2\n10\n01\n")
    code, _, stderr = run(capsys, "verify", "--manifest", str(path))
    assert code == 2
    assert "n >= 2" in stderr


def test_verify_rejects_non_integer_code_symbol(capsys, tmp_path):
    path = tmp_path / "badword.manifest"
    path.write_text("n=2 k=1 inner_size=2 outer_size=1\n0\n"
                    "q=3 len=4 dmin=4\n0,0,0,0\n0,1,x,0\n")
    code, _, stderr = run(capsys, "verify", "--manifest", str(path))
    assert code == 2
    assert "malformed q-ary word" in stderr


def test_bad_body_index_is_parameter_error(capsys, manifest_32):
    code, _, stderr = run(capsys, "sample", "--manifest", manifest_32,
                          "--body-index", "600")
    assert code == 2
    assert "out of range" in stderr


@pytest.mark.parametrize("argv", [
    ("sample", "--body-index", "0", "--seed", "-1"),
    ("sample", "--body-index", "0", "--count", "-1"),
    ("game", "--q", "1", "--epsilon", "1/64", "--trials", "5", "--seed", "-1"),
    ("verify", "--seed", "-1"),
    ("halfspace-gap", "--pair", "0,1", "--samples", "1000", "--seed", "-1"),
    ("member", "--body-index", "0", "--point", "1/0,0,0,0,0,0"),
    ("gen-family", "--n", "2", "--k", "1", "--out", "{missing}"),
    ("gen-family", "--n", "2", "--k", "1", "--out", "{dir}"),
    ("game", "--q", "1", "--epsilon", "1/64", "--trials", "5", "--csv", "{missing}"),
    ("game", "--q", "1", "--epsilon", "1/64", "--trials", "5", "--csv", "{dir}"),
])
def test_bad_argument_values_exit_2(capsys, manifest_32, tmp_path, argv):
    unwritable = {"{missing}": str(tmp_path / "absent" / "out.txt"),
                  "{dir}": str(tmp_path)}
    args = [unwritable.get(a, a) for a in argv]
    if args[0] != "gen-family":
        args[1:1] = ["--manifest", manifest_32]
    if argv[-1] in unwritable:
        # an output path in a missing directory, or a directory: the command
        # reports the write failure as a parameter error before it prints
        # anything (a game plays no trial)
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "cannot write" in captured.err
        assert captured.out == ""
        return
    # rejected by argparse, which exits with 2, before any command runs
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_non_utf8_manifest_is_parameter_error(capsys, tmp_path):
    path = tmp_path / "latin1.manifest"
    path.write_bytes(b"n=3 k=2 inner_size=16 outer_size=2\n0,1\n1,0\n"
                     b"q=2 len=8 dmin=4\n\xff\n")
    code, _, stderr = run(capsys, "verify", "--manifest", str(path))
    assert code == 2
    assert "cannot read manifest" in stderr and "utf-8" in stderr


@settings(deadline=None, max_examples=60)
@given(edits=st.lists(st.tuples(st.integers(0, FAM32.stat().st_size - 1),
                                st.integers(0, 255)), min_size=1, max_size=3))
def test_corrupted_manifest_exits_cleanly(tmp_path_factory, edits):
    raw = bytearray(FAM32.read_bytes())
    for pos, byte in edits:
        raw[pos] = byte
    path = tmp_path_factory.getbasetemp() / "corrupted.manifest"
    path.write_bytes(bytes(raw))
    argv = ["sample", "--manifest", str(path), "--body-index", "7", "--count", "3"]
    assert main(argv) in (0, 2, 3)


def test_manifest_inner_code_must_be_binary(capsys, tmp_path):
    path = tmp_path / "ternary.manifest"
    path.write_text("n=2 k=1 inner_size=2 outer_size=2\n0\n1\n"
                    "q=3 len=4 dmin=4\n1,1,0,0\n0,0,1,1\n")
    code, _, stderr = run(capsys, "verify", "--manifest", str(path))
    assert code == 2
    assert "binary" in stderr


# ---------------------------------------------------------------------------
# random argv

_SMALL = ("-1", "0", "1", "2", "3", "x", "1/0", "", "1,2")
_BIG = str(10 ** 11)
_HUGE = str(10 ** 14)  # an array this long is past any address space: refused at once
_ANY = _SMALL + (_BIG,)
_FILES = ("{fam32}", "{missing}", "{dir}", "{empty}", "{garbage}")

# per subcommand: option -> (base value, or None to leave the option out;
# the values a draw may put in its place).  The bases run at once; so does
# every replacement: trials small or 10^11 (over the trials cap), families
# at or under (3, 2) plus values over the construction caps, allocation
# sizes small or 10^14.  verify's manifest is never readable or left out,
# and game's --trials is never left out: either would run the whole
# battery or 1000 trials.
_ARGV_OPTIONS = {
    "gen-family": {"--n": ("2", _ANY + ("5",)),
                   "--k": ("2", ("-1", "0", "1", "x", "1/0", "", "1,2", _BIG, "9")),
                   "--out": ("{out}", ("{missing}", "{dir}", ""))},
    "verify": {"--manifest": ("{garbage}", ("{missing}", "{dir}", "{empty}")),
               "--seed": ("0", _ANY)},
    "sample": {"--manifest": ("{fam32}", _FILES), "--body-index": ("7", _ANY),
               "--count": ("3", _SMALL + (_HUGE,)), "--seed": ("0", _ANY),
               "--format": (None, ("points", "labels", "x"))},
    "member": {"--manifest": ("{fam32}", _FILES), "--body-index": ("0", _ANY),
               "--point": ("1/2,0,0,1/4,0,0",
                           _SMALL + ("0,0,0,0,0,0", "9/10,9/10,0,0,0,0", "1/0,0,0,0,0,0"))},
    "game": {"--manifest": ("{fam32}", _FILES), "--q": ("2", _ANY),
             "--epsilon": ("1/64", _ANY + ("1/16",)), "--trials": ("3", _ANY),
             "--seed": ("0", _ANY), "--learner": (None, ("ml", "random", "x")),
             "--csv": (None, ("{out}", "{missing}", "{dir}"))},
    "bounds": {"--d": ("1024", _ANY + ("64",)), "--epsilon": ("1/8", _ANY + ("1/64",)),
               "--delta": (None, _ANY + ("1/2",))},
    "halfspace-gap": {"--manifest": ("{fam32}", _FILES),
                      "--pair": ("0,255", _SMALL + ("0,0", "0,256", "1,2,3")),
                      "--dirs": ("2", _SMALL + (_HUGE,)),
                      "--samples": ("1000", _SMALL + (_HUGE,)), "--seed": ("0", _ANY)},
}
_ARGV_KEPT = {("verify", "--manifest"), ("game", "--trials")}


@st.composite
def _argv(draw, command):
    """The command's base argv with up to three options replaced, left out
    (unless kept) or given twice, and perhaps a stray token."""
    options = _ARGV_OPTIONS[command]
    changed = draw(st.sets(st.sampled_from(sorted(options) + ["stray"]), max_size=3))
    argv = [command]
    for name, (base, others) in options.items():
        if name not in changed:
            argv += [name, base] if base is not None else []
            continue
        kept = (command, name) in _ARGV_KEPT
        for value in draw(st.lists(st.sampled_from(others), min_size=kept, max_size=2)):
            argv += [name, value]
    if "stray" in changed:
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(_SMALL + ("--bogus",))))
    return argv


@pytest.mark.parametrize("command", sorted(_ARGV_OPTIONS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_random_argv_exits_cleanly(tmp_path_factory, command, data):
    # any token list either runs or exits 2, 3 or 4 (argparse's own exit
    # counts as 2), never with a traceback
    root = tmp_path_factory.getbasetemp() / "argv"
    root.mkdir(exist_ok=True)
    (root / "empty").write_text("")
    (root / "garbage").write_text("hello\n")
    paths = {"{fam32}": str(FAM32), "{missing}": str(root / "absent" / "f"),
             "{dir}": str(root), "{empty}": str(root / "empty"),
             "{garbage}": str(root / "garbage"), "{out}": str(root / "out")}
    argv = [paths.get(token, token) for token in data.draw(_argv(command))]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3, 4), argv
