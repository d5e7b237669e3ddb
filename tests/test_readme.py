"""The README states what the code defines: the bundle schema version, the
retired versions and the parameter domains; and its quick start reads only
files that an earlier step writes."""

import re
from pathlib import Path

from coldstart.ensemble import BUNDLE_SCHEMA_VERSION
from coldstart.families import DOMAINS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_names_the_bundle_schema_version():
    assert f"Schema version {BUNDLE_SCHEMA_VERSION}" in README


def test_readme_retrain_sentence_names_every_retired_version():
    flat = " ".join(README.split())
    (sentence,) = [s for s in re.split(r"(?<=\.) ", flat) if "message to retrain it" in s]
    named = [int(v) for v in re.findall(r"\b(\d+): ", sentence)]
    assert named == list(range(1, BUNDLE_SCHEMA_VERSION))


def test_readme_domain_table_lists_exactly_the_domains():
    lines = README.splitlines()
    start = lines.index("| parameter | domain |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(re.match(r"\| `(\w+)` \|", line).group(1))
    assert sorted(rows) == sorted(DOMAINS) and len(rows) == len(DOMAINS)


def quick_start_commands():
    """The quick start's commands, each as its list of words."""
    lines = README.splitlines()
    start = lines.index("## Quick start")
    block = lines[lines.index("```sh", start) + 1 : lines.index("```", start + 2)]
    text = "\n".join(line for line in block if not line.lstrip().startswith("#"))
    return [cmd.split() for cmd in text.replace("\\\n", " ").splitlines() if cmd.strip()]


def test_quick_start_reads_only_what_an_earlier_step_writes():
    written = []  # the directories the --out of earlier commands write
    read = 0
    for words in quick_start_commands():
        flags = dict(zip(words[2::2], words[3::2]))
        for flag in ("--episodes", "--credits", "--genres", "--platform", "--bundle", "--report"):
            if flag in flags:
                path = flags[flag]
                assert any(path.startswith(out) for out in written), f"{words[1]} {flag} {path}: no earlier step writes it"
                read += 1
        if "--out" in flags and flags["--out"].endswith("/"):
            written.append(flags["--out"])
    assert read == 20 and written == ["data/", "run/", "new/", "eval/"]
