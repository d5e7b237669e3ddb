"""The README states what the code defines: the bundle schema version, the
retired versions, and the parameter domains."""

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
