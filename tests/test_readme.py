"""The README's command-line examples, run through cli.main and pinned.

Every `burnside ...` line of the README's sh blocks runs in a temporary
directory, in README order, with $DATA set to the bundled data; the
`printf ... > prog.slp` line writes its file first, as in a shell.  The
exit code and the SHA-256 of stdout must equal the recorded values.
"""

import hashlib
import re
import shlex
from importlib.resources import files
from pathlib import Path

from burnside.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
DATA = files("burnside") / "data"

# command as the README writes it -> (exit code, SHA-256 of stdout)
EXPECTED = {
    "burnside census tom --tom $DATA/s3.tom.json --gens $DATA/s3.gen1.mtx,$DATA/s3.gen2.mtx --q 2":
        (0, "31b19a9bf942b2e2515ada0b9336dd26bb4ee3493927294f8138b49cb98b0f3e"),
    "burnside census brute --perm $DATA/s3.perm.mtx --gens $DATA/s3.gen1.mtx,$DATA/s3.gen2.mtx --q 2":
        (0, "31b19a9bf942b2e2515ada0b9336dd26bb4ee3493927294f8138b49cb98b0f3e"),
    "burnside tom compute --perm $DATA/a4.perm.mtx --out a4.tom.json":
        (0, "a00135670ec9ba073da796db6743c91c28aa117f6f0abbcba5add6b90625cbbd"),
    "burnside tom decompose --tom $DATA/s3.tom.json --fixed $DATA/s3.fixed.json":
        (0, "09f1298cbdc3565833887c67a0c0d71ffcc32f278e68825bbd0369bf1c4988c3"),
    "burnside blowup --in $DATA/gf4gen.json --p 2 --k 2":
        (0, "d3116278bc6863a023c7c5cf9598eb053f246f06e4e2b2e6b440481d8b206dd0"),
    "burnside h2 --perm $DATA/c2.perm.mtx --mod $DATA/c2.mod.mtx --p 2":
        (0, "4564346c5fc7a1f59066f6aa634cc8e9c1fc9466756047b23b6a72583f3a78f6"),
    "burnside chartab report --table $DATA/d18.json":
        (0, "fd4985e3ee82990d5bc284c8da632d358b38196105e03826a8ab1566536f4898"),
    "burnside chartab report --table $DATA/sz8mod2.json --brauer 2":
        (0, "373efff767945ef01533a6cf534bd494e98a2e6e2793c7c16bd5437ec5838e38"),
    "burnside slp eval --slp prog.slp --inputs $DATA/s3.gen1.mtx,$DATA/s3.gen2.mtx":
        (0, "a1774dc6123374dedb0ce0fe2756aa550117baa10f6e824b5c56a3af968e8515"),
}


def readme_lines():
    """The lines of the README's sh blocks, continuations joined, comments dropped."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = " ".join(line.split())
            if line and not line.startswith("#"):
                lines.append(line)
    return lines


def test_every_readme_command_is_pinned():
    assert [line for line in readme_lines() if line.startswith("burnside ")] == list(EXPECTED)


def test_readme_commands_print_the_pinned_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    seen = {}
    for line in readme_lines():
        if written := re.fullmatch(r"printf '(.*)' > (\S+)", line):
            Path(written[2]).write_text(written[1].encode().decode("unicode_escape"))
        elif line.startswith("burnside "):
            code = main(shlex.split(line.replace("$DATA", str(DATA)))[1:])
            out = capsys.readouterr().out
            seen[line] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert seen == EXPECTED
