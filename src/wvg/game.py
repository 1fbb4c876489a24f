"""Weighted voting games and the structural transforms on them.

A game is a quota plus one positive integer weight per player; players are
addressed by 0-based position. A coalition wins when its total weight meets
or exceeds the quota. Games are immutable values and every operation here is
pure, so they are safe to share freely between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    InvalidCoalitionError,
    InvalidGameError,
    InvalidMergeError,
    InvalidSplitError,
)

Coalition = frozenset[int]


@dataclass(frozen=True)
class Game:
    """A weighted voting game ``[quota; w_0, ..., w_{n-1}]``."""

    quota: int
    weights: tuple[int, ...]
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        if not isinstance(self.quota, int) or isinstance(self.quota, bool):
            raise InvalidGameError(f"quota must be an integer (got {self.quota!r})")
        if self.quota < 1:
            raise InvalidGameError(f"quota >= 1 violated (quota is {self.quota})")
        if not self.weights:
            raise InvalidGameError("at least one player required")
        for i, w in enumerate(self.weights):
            if not isinstance(w, int) or isinstance(w, bool):
                raise InvalidGameError(f"weight must be an integer (player {i} has {w!r})")
            if w < 1:
                raise InvalidGameError(f"weight >= 1 violated (player {i} has weight {w})")
        if sum(self.weights) < self.quota:
            raise InvalidGameError(
                "total weight >= quota violated "
                f"(total {sum(self.weights)} < quota {self.quota})"
            )

    @property
    def num_players(self) -> int:
        return len(self.weights)

    def total_weight(self) -> int:
        return sum(self.weights)

    def is_unanimity(self) -> bool:
        """True when the grand coalition is the only winning coalition."""
        return self.quota == self.total_weight()

    def __str__(self) -> str:
        return f"[{self.quota}; {', '.join(str(w) for w in self.weights)}]"


@dataclass(frozen=True)
class SplitSpec:
    """Replace one player by identities whose weights are ``parts``."""

    player: int
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise InvalidSplitError("a split needs at least one part")
        for p in self.parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise InvalidSplitError(f"every part must be a positive integer (got {p!r})")

    @classmethod
    def _unchecked(cls, player: int, parts: tuple[int, ...]) -> SplitSpec:
        """The spec of ``parts``, a tuple of positive ints the caller
        generated, built without ``__post_init__``'s checks."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "player", player)
        object.__setattr__(spec, "parts", parts)
        return spec


@dataclass(frozen=True)
class MergeSpec:
    """A coalition to fuse into one player, optionally driven by an annexer."""

    coalition: Coalition
    annexer: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "coalition", frozenset(self.coalition))
        if self.annexer is not None and self.annexer in self.coalition:
            raise InvalidMergeError(f"annexer {self.annexer} is a member of the annexed coalition")

    def members(self) -> frozenset[int]:
        """All players that end up fused, annexer included."""
        if self.annexer is None:
            return self.coalition
        return self.coalition | {self.annexer}


@dataclass(frozen=True)
class SplitOutcome:
    """A split game plus the identifier bookkeeping the transform induced."""

    game: Game
    mapping: dict[int, int] = field(compare=False)
    new_players: tuple[int, ...] = ()


@dataclass(frozen=True)
class MergeOutcome:
    game: Game
    mapping: dict[int, int] = field(compare=False)
    merged_player: int = 0


def validate_coalition(game: Game, coalition: Iterable[int]) -> Coalition:
    """Check membership against ``game`` and return it as a frozenset."""
    members = list(coalition)
    seen: set[int] = set()
    for p in members:
        if not isinstance(p, int) or isinstance(p, bool):
            raise InvalidCoalitionError(f"player identifiers must be integers (got {p!r})")
        if not 0 <= p < game.num_players:
            raise InvalidCoalitionError(
                f"player {p} out of range for a {game.num_players}-player game"
            )
        if p in seen:
            raise InvalidCoalitionError(f"duplicate player {p} in coalition")
        seen.add(p)
    return frozenset(seen)


def coalition_weight(game: Game, coalition: Iterable[int]) -> int:
    members = validate_coalition(game, coalition)
    return sum(game.weights[p] for p in members)


def evaluate(game: Game, coalition: Iterable[int]) -> bool:
    """True when the coalition wins (total weight meets or exceeds the quota)."""
    return coalition_weight(game, coalition) >= game.quota


def is_critical(game: Game, coalition: Iterable[int], player: int) -> bool:
    """True when adding ``player`` turns a losing coalition into a winning one."""
    members = validate_coalition(game, coalition)
    if not 0 <= player < game.num_players:
        raise InvalidCoalitionError(
            f"player {player} out of range for a {game.num_players}-player game"
        )
    if player in members:
        raise InvalidCoalitionError(f"player {player} is already in the coalition")
    w = sum(game.weights[p] for p in members)
    return w < game.quota <= w + game.weights[player]


def apply_split(game: Game, spec: SplitSpec) -> SplitOutcome:
    """Replace ``spec.player`` by new identities appended at the tail.

    Remaining players keep their relative order; the returned mapping sends
    each surviving old position to its new one.
    """
    if not 0 <= spec.player < game.num_players:
        raise InvalidSplitError(
            f"player {spec.player} out of range for a {game.num_players}-player game"
        )
    w = game.weights[spec.player]
    if sum(spec.parts) != w:
        raise InvalidSplitError(
            f"parts sum {sum(spec.parts)} != weight {w} of player {spec.player}"
        )
    kept = [x for i, x in enumerate(game.weights) if i != spec.player]
    new_game = Game(game.quota, tuple(kept) + spec.parts)
    mapping = {
        i: (i if i < spec.player else i - 1)
        for i in range(game.num_players)
        if i != spec.player
    }
    first = game.num_players - 1
    return SplitOutcome(new_game, mapping, tuple(range(first, first + len(spec.parts))))


def apply_merge(game: Game, members: Iterable[int] | MergeSpec) -> MergeOutcome:
    """Fuse ``members`` into one player of their combined weight, at the tail."""
    if isinstance(members, MergeSpec):
        members = members.members()
    merged = validate_coalition(game, members)
    if not merged:
        raise InvalidMergeError("cannot merge an empty coalition")
    kept = [i for i in range(game.num_players) if i not in merged]
    weights = tuple(game.weights[i] for i in kept) + (sum(game.weights[i] for i in merged),)
    mapping = {old: new for new, old in enumerate(kept)}
    return MergeOutcome(Game(game.quota, weights), mapping, len(kept))


# --- serialization ---------------------------------------------------------

def game_to_text(game: Game) -> str:
    """Two-line text form: quota, then whitespace-separated weights."""
    return f"{game.quota}\n{' '.join(str(w) for w in game.weights)}\n"


def game_from_text(text: str) -> Game:
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != 2:
        raise InvalidGameError(
            f"expected two lines (quota, then weights), got {len(lines)} non-empty lines"
        )
    try:
        quota = int(lines[0].strip())
    except ValueError:
        raise InvalidGameError(f"quota is not a decimal integer: {lines[0].strip()!r}") from None
    weights = []
    for tok in lines[1].split():
        try:
            weights.append(int(tok))
        except ValueError:
            raise InvalidGameError(f"weight is not a decimal integer: {tok!r}") from None
    return Game(quota, tuple(weights))


def game_to_json_obj(game: Game) -> dict:
    obj: dict = {"quota": game.quota, "weights": list(game.weights)}
    if game.label is not None:
        obj["label"] = game.label
    return obj


def game_from_json_obj(obj: object) -> Game:
    if not isinstance(obj, dict):
        raise InvalidGameError("game JSON must be an object")
    quota = obj.get("quota")
    weights = obj.get("weights")
    label = obj.get("label")
    if not isinstance(quota, int) or isinstance(quota, bool):
        raise InvalidGameError(f"quota must be an integer (got {quota!r})")
    if not isinstance(weights, list):
        raise InvalidGameError("weights must be an array of integers")
    if label is not None and not isinstance(label, str):
        raise InvalidGameError("label must be a string when present")
    return Game(quota, tuple(weights), label)


def game_to_json(game: Game) -> str:
    return json.dumps(game_to_json_obj(game))


def game_from_json(text: str) -> Game:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidGameError(f"not valid JSON: {exc}") from None
    return game_from_json_obj(obj)


def parse_game(source: str) -> Game:
    """Parse either the JSON object form or the two-line text form."""
    if source.lstrip().startswith("{"):
        return game_from_json(source)
    return game_from_text(source)


def load_game(path: str) -> Game:
    with open(path, encoding="utf-8") as fh:
        return parse_game(fh.read())


def parse_inline_game(spec: str) -> Game:
    """Parse the shell-friendly inline form ``"q;w1,w2,..."``."""
    quota_part, sep, weights_part = spec.partition(";")
    if not sep:
        raise InvalidGameError(f"inline game must look like 'q;w1,w2,...' (got {spec!r})")
    try:
        quota = int(quota_part.strip())
        weights = tuple(int(tok.strip()) for tok in weights_part.split(",") if tok.strip())
    except ValueError:
        raise InvalidGameError(f"inline game has a non-integer token: {spec!r}") from None
    return Game(quota, weights)
