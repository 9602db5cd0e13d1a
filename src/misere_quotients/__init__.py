"""Misere quotient semigroups of octal games.

Computes candidate quotients empirically, proves them correct to a heap bound,
certifies ultimate periodicity, and reports the algebraic structure of the
resulting finite commutative monoids.
"""

from .octal import EMPTY, GameCode, GameCodeError, Position, moves_from_heap, parse_game_code
from .oracle import (
    MISERE,
    NORMAL,
    BudgetExceededError,
    InternalError,
    GameTree,
    GenusSymbol,
    Outcome,
    PlayConvention,
    genus,
    genus_of_tree,
    grundy,
    is_wild_genus,
    misere_gminus,
    nim_value,
    normal_period,
    outcome,
    position_options,
    sibert_conway_outcome,
    tree_of_position,
)

__all__ = [
    "EMPTY",
    "GameCode",
    "GameCodeError",
    "Position",
    "moves_from_heap",
    "parse_game_code",
    "MISERE",
    "NORMAL",
    "BudgetExceededError",
    "InternalError",
    "GameTree",
    "GenusSymbol",
    "Outcome",
    "PlayConvention",
    "genus",
    "genus_of_tree",
    "grundy",
    "is_wild_genus",
    "misere_gminus",
    "nim_value",
    "normal_period",
    "outcome",
    "position_options",
    "sibert_conway_outcome",
    "tree_of_position",
]
