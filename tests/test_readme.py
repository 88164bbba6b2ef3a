"""Every repository path that README.md quotes exists, so a moved or
deleted file cannot leave the README pointing at it."""

import os
import re

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
