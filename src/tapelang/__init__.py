"""Workbench for a higher-order language with references and labeled tapes.

Exact rational semantics throughout: programs parse to annotated terms,
typecheck, erase to core terms, and execute under a stratified small-step
relation whose per-step distributions are exact `Fraction` weights.
"""

from .parser import ParseError, parse, parse_type
from .semantics import Config, EMPTY_STATE, State, Tape, state_step
from .subdist import SubDistr, dbind, dret, dzero
from .syntax import Expr, Type, erase, render, render_type
from .typecheck import TypecheckError, typecheck

__all__ = [
    "Config", "EMPTY_STATE", "Expr", "ParseError", "State", "SubDistr",
    "Tape", "Type", "TypecheckError", "dbind", "dret", "dzero", "erase",
    "parse", "parse_type", "render", "render_type", "state_step", "typecheck",
]
