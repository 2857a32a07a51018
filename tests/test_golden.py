"""The README's commands, and seeded fam34 games at q = 0, at q = 1 and with
the random learner, rerun through cli.main must print byte for byte what
tests/golden holds, and write files with the digests in its SHA256SUMS.

tests/golden/commands.txt lists one command per line, the file holding its
stdout first; the commands run in order in one directory, so later ones
read the manifest the first one writes.  The CI runtime job diffs the
installed CLI against the same files.  A change that alters seeded output
regenerates them from fresh processes in an empty directory, with GOLDEN
the path of tests/golden:

    while read -r name args; do crosspeaks $args > "$GOLDEN/$name"; done < "$GOLDEN/commands.txt"
    sha256sum fam34.manifest results.csv > "$GOLDEN/SHA256SUMS"
"""

import hashlib
import pathlib

from crosspeaks.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")


def test_readme_commands_match_golden_output(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for line in (GOLDEN / "commands.txt").read_text().splitlines():
        name, *argv = line.split()
        assert main(argv) == 0, line
        assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes(), line
    for line in (GOLDEN / "SHA256SUMS").read_text().splitlines():
        digest, path = line.split()
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == digest, path
