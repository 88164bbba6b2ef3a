"""Bundled benchmark graphs; see the README in this directory."""

from importlib import resources

from ..errors import UnknownName
from ..graph import MixedGraph

NAMES = ("fig1", "fig2", "fig3", "fig4a", "fig4b")


def load(name: str) -> MixedGraph:
    if name not in NAMES:
        raise UnknownName(f"unknown fixture {name!r}; have {NAMES}")
    text = resources.files(__package__).joinpath(f"{name}.cg").read_text("utf-8")
    return MixedGraph.from_text(text)
