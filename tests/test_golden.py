"""The commands of tests/golden/commands.txt, the README's and seeded
variants whose seeds, trial counts and sample counts reach past run_game's
trial-seed hash pool and across the sampler's, KS kernel's and array draw
kernel's block boundaries, rerun through cli.main must print byte for byte
what tests/golden holds, and write files with the digests in its
SHA256SUMS.

tests/golden/commands.txt lists one command per line, the file holding its
stdout first; the commands run in order in one directory, so later ones
read the manifest the first one writes.  A refused command's file name
carries its exit code after a colon (bounds-d63.err:2): it must exit with
that code, print nothing to stdout, and its file holds stderr.  The CI
runtime job diffs the installed CLI against the same files.  A change that
alters seeded output regenerates them from fresh processes in an empty
directory, with GOLDEN the path of tests/golden:

    while read -r name args; do
      case $name in
        *:*) crosspeaks $args 2> "$GOLDEN/${name%:*}" ;;
        *) crosspeaks $args > "$GOLDEN/$name" ;;
      esac
    done < "$GOLDEN/commands.txt"
    sha256sum fam34.manifest results.csv fam32.manifest fam28.manifest > "$GOLDEN/SHA256SUMS"
"""

import hashlib
import pathlib

from crosspeaks.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")


def test_readme_commands_match_golden_output(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for line in (GOLDEN / "commands.txt").read_text().splitlines():
        name, *argv = line.split()
        name, _, code = name.partition(":")
        assert main(argv) == int(code or 0), line
        out, err = capsys.readouterr()
        if code:
            assert out == "" and err.encode() == (GOLDEN / name).read_bytes(), line
        else:
            assert out.encode() == (GOLDEN / name).read_bytes(), line
    for line in (GOLDEN / "SHA256SUMS").read_text().splitlines():
        digest, path = line.split()
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == digest, path
