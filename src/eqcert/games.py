"""Finite normal-form games in exact rational arithmetic.

A `Game` stores one flat payoff vector per player, indexed by the
lexicographic profile index (player 1 varies slowest, the last player
fastest).  `Game.strides` gives that index as arithmetic: the profile
(a_1, ..., a_n) sits at sum_i a_i * strides[i], so changing player i's
action from a to b moves the index by (b - a) * strides[i].
`JointDistribution` and `MixedAction` are the exact probability objects
used by every polytope and certificate computation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from .rational import RationalFormatError, format_rational, parse_rational

Profile = tuple[int, ...]


class GameFormatError(ValueError):
    """A game file or game construction input is malformed."""


def _as_fraction_tuple(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class Game:
    """An n-player finite game; payoffs[i][k] is player i's payoff at profile index k.

    `strides[i]` is how far the profile index moves when player i's action
    goes up by one: the product of the later players' action counts.  The
    last player's stride is 1.
    """

    actions: tuple[tuple[str, ...], ...]
    payoffs: tuple[tuple[Fraction, ...], ...]
    name: str | None = None

    def __post_init__(self):
        actions = tuple(tuple(str(a) for a in acts) for acts in self.actions)
        object.__setattr__(self, "actions", actions)
        if len(actions) < 1:
            raise GameFormatError("a game needs at least one player")
        for i, acts in enumerate(actions):
            if len(acts) < 2:
                raise GameFormatError(f"player {i} needs at least two actions")
            if len(set(acts)) != len(acts):
                raise GameFormatError(f"player {i} has duplicate action labels")
        shape = tuple(len(acts) for acts in actions)
        strides = [1] * len(shape)
        for i in range(len(shape) - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        total = strides[0] * shape[0]
        # derived once here; not dataclass fields, so equality and hashing ignore them
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_strides", tuple(strides))
        object.__setattr__(self, "_num_profiles", total)
        payoffs = tuple(_as_fraction_tuple(row) for row in self.payoffs)
        object.__setattr__(self, "payoffs", payoffs)
        if len(payoffs) != len(actions):
            raise GameFormatError("need one payoff vector per player")
        for i, row in enumerate(payoffs):
            if len(row) != total:
                raise GameFormatError(
                    f"player {i}: expected {total} payoffs, got {len(row)}"
                )

    @property
    def num_players(self) -> int:
        return len(self.actions)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def num_profiles(self) -> int:
        return self._num_profiles

    @property
    def strides(self) -> tuple[int, ...]:
        """Index of a profile = sum_i profile[i] * strides[i]; see `profile_index`."""
        return self._strides

    def profile_index(self, profile: Sequence[int]) -> int:
        """Lexicographic index of a profile; player 1 varies slowest."""
        shape = self.shape
        if len(profile) != len(shape):
            raise GameFormatError(f"profile {profile!r} has wrong length")
        index = 0
        for a_i, size in zip(profile, shape):
            if not 0 <= a_i < size:
                raise GameFormatError(f"profile {profile!r} out of range")
            index = index * size + a_i
        return index

    def profile_from_index(self, index: int) -> Profile:
        if not 0 <= index < self.num_profiles:
            raise GameFormatError(f"profile index {index} out of range")
        shape = self.shape
        parts = [0] * len(shape)
        for i in range(len(shape) - 1, -1, -1):
            index, parts[i] = divmod(index, shape[i])
        return tuple(parts)

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*(range(size) for size in self.shape))

    def u(self, player: int, profile: Sequence[int]) -> Fraction:
        return self.payoffs[player][self.profile_index(profile)]

    def payoff_vector(self, profile: Sequence[int]) -> tuple[Fraction, ...]:
        k = self.profile_index(profile)
        return tuple(self.payoffs[i][k] for i in range(self.num_players))

    def profile_label(self, profile: Sequence[int]) -> str:
        return "(" + ",".join(self.actions[i][a] for i, a in enumerate(profile)) + ")"

    def opponent_profiles(self, player: int) -> Iterator[tuple[int, ...]]:
        """All joint actions of the players other than `player`, in player order."""
        ranges = [range(size) for i, size in enumerate(self.shape) if i != player]
        return itertools.product(*ranges)

    def insert_action(self, player: int, action: int, others: Sequence[int]) -> Profile:
        """Rebuild a full profile from player's action and the others' joint action."""
        profile = list(others)
        profile.insert(player, action)
        return tuple(profile)


def affine_transform(game: Game, gamma: Sequence[Fraction], beta: Sequence[Fraction],
                     name: str | None = None) -> Game:
    """Positive per-player rescale plus constant shift: v_i = gamma_i * u_i + beta_i."""
    gamma = _as_fraction_tuple(gamma)
    beta = _as_fraction_tuple(beta)
    if len(gamma) != game.num_players or len(beta) != game.num_players:
        raise GameFormatError("need one gamma and one beta per player")
    if any(g <= 0 for g in gamma):
        raise GameFormatError("affine transform weights must be positive")
    payoffs = tuple(
        tuple(gamma[i] * x + beta[i] for x in game.payoffs[i])
        for i in range(game.num_players)
    )
    return Game(game.actions, payoffs, name or game.name)


def strategic_transform(game: Game, gamma: Sequence[Fraction],
                        beta: Sequence[Callable[[tuple[int, ...]], Fraction]],
                        name: str | None = None) -> Game:
    """v_i(a) = gamma_i * u_i(a) + beta_i(a_{-i}); best replies are unchanged.

    Each beta_i maps the opponents' joint action (player order, without i)
    to a rational offset.
    """
    gamma = _as_fraction_tuple(gamma)
    if len(gamma) != game.num_players or len(beta) != game.num_players:
        raise GameFormatError("need one gamma and one beta per player")
    if any(g <= 0 for g in gamma):
        raise GameFormatError("strategic transform weights must be positive")
    payoffs = []
    for i in range(game.num_players):
        row = [Fraction(0)] * game.num_profiles
        for profile in game.profiles():
            others = tuple(a for j, a in enumerate(profile) if j != i)
            k = game.profile_index(profile)
            row[k] = gamma[i] * game.payoffs[i][k] + Fraction(beta[i](others))
        payoffs.append(tuple(row))
    return Game(game.actions, tuple(payoffs), name or game.name)


def cce_reduction(game: Game, a_star: Sequence[int]) -> Game:
    """Strategic transform v_i(a) = u_i(a) - u_i(a_i*, a_{-i}).

    The reduced game has v_i(a_i*, a_{-i}) = 0 for every opponent profile;
    its individually-rational profiles around a_star characterize whether
    a_star is the unique coarse correlated equilibrium of the original game.
    """
    a_star = tuple(a_star)

    def beta_for(i: int) -> Callable[[tuple[int, ...]], Fraction]:
        def beta(others: tuple[int, ...]) -> Fraction:
            return -game.u(i, game.insert_action(i, a_star[i], others))
        return beta

    ones = [Fraction(1)] * game.num_players
    name = f"{game.name}@reduced" if game.name else None
    return strategic_transform(game, ones, [beta_for(i) for i in range(game.num_players)], name)


def is_symmetric(game: Game) -> bool:
    """Full role-permutation symmetry.

    True iff all players share one action set and for every permutation pi
    of the players and every profile a, the profile that assigns player
    pi(j) the action a_j gives player pi(i) what a gave player i.
    """
    first = game.actions[0]
    if any(acts != first for acts in game.actions[1:]):
        return False
    n = game.num_players
    for pi in itertools.permutations(range(n)):
        if pi == tuple(range(n)):
            continue
        for profile in game.profiles():
            permuted = [0] * n
            for j in range(n):
                permuted[pi[j]] = profile[j]
            for i in range(n):
                if game.u(pi[i], permuted) != game.u(i, profile):
                    return False
    return True


@dataclass(frozen=True)
class MixedAction:
    """One player's mixed strategy; weights on action indices, zeros dropped."""

    player: int
    weights: Mapping[int, Fraction]

    def __post_init__(self):
        cleaned = {}
        for action, w in self.weights.items():
            w = Fraction(w)
            if w < 0:
                raise GameFormatError(f"negative weight {w} on action {action}")
            if w > 0:
                cleaned[int(action)] = w
        if sum(cleaned.values(), Fraction(0)) != 1:
            raise GameFormatError("mixed action weights must sum to 1")
        object.__setattr__(self, "weights", dict(sorted(cleaned.items())))

    @classmethod
    def point_mass(cls, player: int, action: int) -> "MixedAction":
        return cls(player, {action: Fraction(1)})

    def prob(self, action: int) -> Fraction:
        return self.weights.get(action, Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(self.weights)

    @property
    def is_pure(self) -> bool:
        return len(self.weights) == 1


@dataclass(frozen=True)
class JointDistribution:
    """Exact distribution over action profiles; zero-probability profiles dropped."""

    weights: Mapping[Profile, Fraction]

    def __post_init__(self):
        cleaned = {}
        for profile, w in self.weights.items():
            w = Fraction(w)
            if w < 0:
                raise GameFormatError(f"negative probability {w} at {profile}")
            if w > 0:
                cleaned[tuple(profile)] = w
        if sum(cleaned.values(), Fraction(0)) != 1:
            raise GameFormatError("joint distribution must sum to 1")
        object.__setattr__(self, "weights", dict(sorted(cleaned.items())))

    @classmethod
    def point_mass(cls, profile: Sequence[int]) -> "JointDistribution":
        return cls({tuple(profile): Fraction(1)})

    @classmethod
    def from_vector(cls, game: Game, vector: Sequence[Fraction]) -> "JointDistribution":
        if len(vector) != game.num_profiles:
            raise GameFormatError("vector length must equal the number of profiles")
        return cls({game.profile_from_index(k): Fraction(v)
                    for k, v in enumerate(vector) if Fraction(v) != 0})

    @classmethod
    def uniform(cls, profiles: Sequence[Sequence[int]]) -> "JointDistribution":
        share = Fraction(1, len(profiles))
        weights: dict[Profile, Fraction] = {}
        for profile in profiles:
            key = tuple(profile)
            weights[key] = weights.get(key, Fraction(0)) + share
        return cls(weights)

    def prob(self, profile: Sequence[int]) -> Fraction:
        return self.weights.get(tuple(profile), Fraction(0))

    def support(self) -> tuple[Profile, ...]:
        return tuple(self.weights)

    def as_vector(self, game: Game) -> tuple[Fraction, ...]:
        vector = [Fraction(0)] * game.num_profiles
        for profile, w in self.weights.items():
            vector[game.profile_index(profile)] = w
        return tuple(vector)

    def expected_utility(self, game: Game, player: int) -> Fraction:
        return sum((w * game.u(player, profile) for profile, w in self.weights.items()),
                   Fraction(0))

    def mix(self, alpha: Fraction, other: "JointDistribution") -> "JointDistribution":
        """Convex combination alpha*self + (1-alpha)*other."""
        alpha = Fraction(alpha)
        if not 0 <= alpha <= 1:
            raise GameFormatError("mixing weight must lie in [0, 1]")
        weights = dict(self.weights)
        weights = {p: alpha * w for p, w in weights.items()}
        for profile, w in other.weights.items():
            weights[profile] = weights.get(profile, Fraction(0)) + (1 - alpha) * w
        return JointDistribution(weights)

    def marginal(self, game: Game, player: int) -> MixedAction:
        weights: dict[int, Fraction] = {}
        for profile, w in self.weights.items():
            a = profile[player]
            weights[a] = weights.get(a, Fraction(0)) + w
        return MixedAction(player, weights)

    def is_product(self, game: Game) -> bool:
        """True iff the distribution factors into independent per-player marginals."""
        marginals = [self.marginal(game, i) for i in range(game.num_players)]
        for profile in game.profiles():
            expected = Fraction(1)
            for i, a in enumerate(profile):
                expected *= marginals[i].prob(a)
            if self.prob(profile) != expected:
                return False
        return True


def product_distribution(game: Game, mixed: Sequence[MixedAction]) -> JointDistribution:
    """Independent product of one mixed action per player."""
    if len(mixed) != game.num_players:
        raise GameFormatError("need one mixed action per player")
    weights: dict[Profile, Fraction] = {}
    for profile in itertools.product(*(m.support() for m in mixed)):
        w = Fraction(1)
        for m, a in zip(mixed, profile):
            w *= m.prob(a)
        weights[tuple(profile)] = w
    return JointDistribution(weights)


def total_variation(mu: JointDistribution, nu: JointDistribution) -> Fraction:
    """Total-variation distance between two joint distributions."""
    profiles = set(mu.support()) | set(nu.support())
    gap = sum((abs(mu.prob(p) - nu.prob(p)) for p in profiles), Fraction(0))
    return gap / 2


def game_to_dict(game: Game) -> dict:
    data = {
        "players": game.num_players,
        "actions": [list(acts) for acts in game.actions],
        "payoffs": [[format_rational(x) for x in row] for row in game.payoffs],
    }
    if game.name is not None:
        data["name"] = game.name
    return data


def game_from_dict(data: dict) -> Game:
    if not isinstance(data, dict):
        raise GameFormatError("game file must contain a JSON object")
    for key in ("players", "actions", "payoffs"):
        if key not in data:
            raise GameFormatError(f"game file is missing {key!r}")
    actions = data["actions"]
    if not isinstance(actions, list) or not all(isinstance(a, list) for a in actions):
        raise GameFormatError("actions must be a list of per-player label lists")
    if data["players"] != len(actions):
        raise GameFormatError("player count disagrees with the actions table")
    try:
        payoffs = tuple(
            tuple(parse_rational(x) for x in row) for row in data["payoffs"]
        )
    except RationalFormatError as exc:
        raise GameFormatError(str(exc)) from exc
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise GameFormatError("name must be a string")
    return Game(tuple(tuple(a) for a in actions), payoffs, name)


def save_game(game: Game) -> bytes:
    """Serialize to canonical JSON (lowest-terms rational strings)."""
    return json.dumps(game_to_dict(game), indent=2).encode("utf-8")


def load_game(data: bytes | str) -> Game:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        parsed = json.loads(data)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"not valid JSON: {exc}") from exc
    return game_from_dict(parsed)
