"""The README's space and family catalogs and CLI examples stay in step with
the code."""
import re
import shlex
from pathlib import Path

from nterm.cli import EXPERIMENTS, build_parser
from nterm.democracy import FAMILY_CATALOG, family_catalog
from nterm.spaces import SPACE_TAGS, parse_space

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_space_catalog_lists_every_tag_with_its_parameters():
    rows = re.findall(r"^\| `([a-z]+):([^`]*)` ", _section("Space catalog"), re.M)
    assert sorted(tag for tag, _ in rows) == sorted(SPACE_TAGS)
    for tag, params in rows:
        if tag != "orlicz":  # orlicz takes one family string
            assert tuple(params.split(",")) == SPACE_TAGS[tag][1], tag


def test_family_catalog_lists_every_universe_with_its_families():
    section = _section("Structured families")
    rows = re.findall(r"^\| `([a-z]+)` +\| (.+?) +\|$", section, re.M)
    assert {kind: re.findall(r"`([a-z-]+)`", fams) for kind, fams in rows} == FAMILY_CATALOG
    for name in set(family_catalog(parse_space("orlicz:ulogu"))) - set(FAMILY_CATALOG["cube"]):
        assert f"`orlicz` spaces add `{name}`" in section


def test_cli_space_strings_parse_and_round_trip():
    block = _section("CLI").split("```")[1]
    tags = "|".join(sorted(SPACE_TAGS, key=len, reverse=True))
    found = re.findall(rf"(?<![\w:-])((?:{tags}):\S+)", block)
    assert found
    for text in found:
        assert parse_space(text).label() == text


def test_cli_commands_parse():
    # argv only: each README command must parse, and name a known experiment
    commands = [line.split("#", 1)[0] for line in _section("CLI").split("```")[1].splitlines()
                if line.startswith("nterm ")]
    assert len(commands) >= 8
    for command in commands:
        args = build_parser().parse_args(shlex.split(command)[1:])
        if args.cmd == "experiment":
            assert args.name in EXPERIMENTS, command
