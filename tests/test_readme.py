"""Every repository path that README.md quotes exists, so a moved or
deleted file cannot leave the README pointing at it, and the README's
command synopsis lists every subcommand with all its long options."""

import argparse
import os
import re

from mvrcg.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A script run with ``python <file>``, or a path under a top-level directory.
SCRIPT = re.compile(r"\bpython3? ([\w./-]+\.py)\b")
UNDER_DIR = re.compile(r"(?<![\w./-])((?:benchmarks|perfbench|src|tests)/[\w./-]*)")


def quoted_paths(text: str) -> set[str]:
    return {path.rstrip(".") for path in SCRIPT.findall(text) + UNDER_DIR.findall(text)}


def test_quoted_paths_finds_scripts_and_directories():
    text = "Run `python3 a/b.py --x`, read tests/t.py and src/.  Not python -m pytest."
    assert quoted_paths(text) == {"a/b.py", "tests/t.py", "src/"}


def test_every_path_the_readme_quotes_exists():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        paths = quoted_paths(fh.read())
    assert {"perfbench/run.py", "tests/test_acceptance.py"} <= paths
    missing = sorted(p for p in paths if not os.path.exists(os.path.join(ROOT, p)))
    assert not missing, f"README.md quotes missing paths: {missing}"


def long_options() -> dict[str, set[str]]:
    """Each subcommand ``build_parser`` registers, with its long options."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in parser._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, parser in sub.choices.items()}


def test_the_synopsis_lists_every_subcommand_with_its_long_options():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = {}
        for line in fh:
            match = re.match(r"mvrcg (\S+)", line)
            if match:
                assert match[1] not in lines, f"{match[1]} has two synopsis lines"
                lines[match[1]] = line
    expected = long_options()
    assert len(expected) == 12 and sorted(lines) == sorted(expected)
    missing = {name: sorted(opt for opt in opts
                            if not re.search(rf"(?<![\w-]){opt}(?![\w-])", lines[name]))
               for name, opts in expected.items()}
    assert not any(missing.values()), f"README.md synopsis omits {missing}"
