"""The global environment, and the error of a name that does not resolve.

Names are resolved by the parser as it reads (see ``parser``), against a
``GlobalEnv`` that it only reads; ``elaborate_toplevels`` then adds a
parsed file's shapes to the environment, so that later files see them.
A declaration enters the environment only once it checks, so the
environment never holds one that failed or was never reached.  A file
that fails to parse or resolve adds nothing.
"""

from __future__ import annotations

from typing import Optional, Union

from .core import Decl, Span
from .tope import Shape


class ScopeError(Exception):
    def __init__(self, message: str, span: Optional[Span] = None):
        super().__init__(message)
        self.message = message
        self.span = span


class GlobalEnv:
    """Shapes and checked declarations accumulated across files."""

    def __init__(self, shapes: Optional[dict[str, Shape]] = None,
                 decls: Optional[dict[str, Decl]] = None):
        self.shapes = {} if shapes is None else shapes
        self.decls = {} if decls is None else decls

    def taken(self, name: str) -> bool:
        return name in self.shapes or name in self.decls


def elaborate_toplevels(items: list[Union[Decl, Shape]], env: GlobalEnv) -> list[Decl]:
    """Add a parsed file's shapes to the environment; returns its
    declarations, in order, for the checker to add as they check."""
    out: list[Decl] = []
    for item in items:
        if isinstance(item, Shape):
            env.shapes[item.name] = item
        else:
            out.append(item)
    return out
