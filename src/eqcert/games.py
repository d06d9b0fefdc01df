"""Finite normal-form games in exact rational arithmetic.

A `Game` stores one flat payoff vector per player, indexed by the
lexicographic profile index (player 1 varies slowest, the last player
fastest).  `Game.strides` gives that index as arithmetic: the profile
(a_1, ..., a_n) sits at sum_i a_i * strides[i], so changing player i's
action from a to b moves the index by (b - a) * strides[i].
`JointDistribution` and `MixedAction` are the exact probability objects
used by every polytope and certificate computation.

Every equilibrium question is answered from integer tables over
`Game.int_payoffs`, none of which reads `Game.u`: `gain_rows` at a
candidate profile, `gain_table` over a distribution's support (CE
membership, regrets) and its column sums `gain_column_sums` (CCE
membership, whether a product is an NE or a quasi-strict one, a best
reply), `deviation_gains` (CCE rows, the 2x2 indifference equations), and
`Game.int_rows`, each player's payoffs by own and opponents' joint action
(the maximin layer); `opponent_bases` serves only it and `dynamics`.

Their one JSON form lives here too, and `read_json` decodes and parses
every file a command reads.  A profile is a list of JSON ints.
Weights map decimal index strings to rational strings: a distribution is
keyed by profile index, a mixed action (`{"player": i, "weights": ...}`)
by action index.  The readers check keys and JSON types only; sign and sum
are checked once, by the object they build.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterator, Mapping, Sequence

from .rational import RationalFormatError, format_rational, parse_rational, scaled_ints

Profile = tuple[int, ...]


class GameFormatError(ValueError):
    """A game file or game construction input is malformed."""


def _as_fraction(value) -> Fraction:
    """`value` as a Fraction; a Fraction is kept as it is, not wrapped again."""
    return value if type(value) is Fraction else Fraction(value)


def _as_fraction_tuple(values) -> tuple[Fraction, ...]:
    return tuple(map(_as_fraction, values))


@dataclass(frozen=True)
class Game:
    """An n-player finite game; payoffs[i][k] is player i's payoff at profile index k.

    `strides[i]` is how far the profile index moves when player i's action
    goes up by one: the product of the later players' action counts.  The
    last player's stride is 1.

    `int_payoffs[i]` is player i's payoff vector times `payoff_scales[i]`,
    the lcm d_i of that player's payoff denominators, as ints; `int_rows`
    holds them as matrices.  All are computed on first use and, like the
    strides, are not dataclass fields.
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

    @cached_property
    def _scaled_payoffs(self) -> tuple[tuple[list[int], int], ...]:
        return tuple(map(scaled_ints, self.payoffs))

    @cached_property
    def payoff_scales(self) -> tuple[int, ...]:
        """d_i, the least positive scale that makes player i's payoffs integers."""
        return tuple(d for _, d in self._scaled_payoffs)

    @cached_property
    def int_payoffs(self) -> tuple[tuple[int, ...], ...]:
        """payoffs[i] times payoff_scales[i], as ints."""
        return tuple(tuple(ints) for ints, _ in self._scaled_payoffs)

    @cached_property
    def int_rows(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """int_rows[i][a][c] = d_i u_i(a, c), as ints, over the opponents' joint
        actions c in `opponent_profiles` order (`opponent_bases`)."""
        rows = []
        for i, payoff in enumerate(self.int_payoffs):
            bases, stride = opponent_bases(self, i), self.strides[i]
            rows.append(tuple(tuple(payoff[base + a * stride] for base in bases)
                              for a in range(self.shape[i])))
        return tuple(rows)

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


def deviation_gains(game: Game, player: int, deviation: int) -> list[int]:
    """d_i (u_i(a) - u_i(deviation, a_-i)) at every profile index k of a, as ints.

    d_i is the player's payoff scale (`Game.payoff_scales`).  Player i's
    action at k is (k // stride) % size, and the deviation moves the index
    by (deviation - action) * stride.  CCE rows, the CCE gain table
    (`gain_rows`) and the profile-vs-deviation game are built from it.
    """
    stride, size = game.strides[player], game.shape[player]
    payoff = game.int_payoffs[player]
    return [payoff[k] - payoff[k + (deviation - (k // stride) % size) * stride]
            for k in range(game.num_profiles)]


def gain_rows(game: Game, a_star: Sequence[int], concept: str) -> list[list[int]]:
    """The gain table at a*: d_i delta_i(a) at every profile index, one row per player.

    delta_i(a) is u_i(a) - u_i(a*) for "ircp" and u_i(a) - u_i(a_i*, a_-i)
    for "cce", and d_i is player i's payoff scale, so each entry is an int.
    Certificates, the P(a*) test and the GUE flags all ask whether positive
    weights make sum_i gamma_i delta_i(a) negative at every a != a*.
    """
    k_star = game.profile_index(a_star)  # rejects a profile outside the game
    if concept == "ircp":
        return [[t - table[k_star] for t in table] for table in game.int_payoffs]
    return [deviation_gains(game, i, a) for i, a in enumerate(a_star)]


def is_symmetric(game: Game) -> bool:
    """Full role-permutation symmetry.

    True iff all players share one action set and for every permutation pi
    of the players and every profile a, the profile that assigns player
    pi(j) the action a_j gives player pi(i) what a gave player i.
    """
    return _swaps_fix(game, game.int_payoffs)


def _swaps_fix(game: Game, rows: Sequence[Sequence[int]]) -> bool:
    """Whether all players share one action set and every permutation of them fixes `rows`.

    Row i is player i's payoffs or gains times d_i (`Game.int_payoffs`,
    `gain_rows`), compared at the lcm of the scales.  The permutations form
    a group, so the swaps of player 0 with each other player j decide it; a
    swap moves profile index k by (a_j - a_0) (strides[0] - strides[j]).
    """
    first = game.actions[0]
    if any(acts != first for acts in game.actions[1:]):
        return False
    common = lcm(*game.payoff_scales)
    rows = [row if d == common else [v * (common // d) for v in row]
            for row, d in zip(rows, game.payoff_scales)]
    n, size, strides = game.num_players, len(first), game.strides
    for j in range(1, n):
        step = strides[0] - strides[j]
        swapped = [k + ((k // strides[j]) % size - (k // strides[0]) % size) * step
                   for k in range(game.num_profiles)]
        # player i at the swapped profile gets what pi(i) does; pi(0) = j, pi(j) = 0
        if any(tuple(map(rows[i].__getitem__, swapped))
               != tuple(rows[j if i == 0 else 0 if i == j else i]) for i in range(n)):
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
            w = _as_fraction(w)
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
            w = _as_fraction(w)
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
        return cls({game.profile_from_index(k): v for k, v in enumerate(vector) if v})

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


def integer_weights(game: Game, mu: JointDistribution) -> tuple[list[tuple[int, int]], int]:
    """mu over one common denominator D: (index k, D mu(a)) for each a in supp(mu), and D."""
    masses, denom = scaled_ints(list(mu.weights.values()))
    return [(game.profile_index(p), m) for p, m in zip(mu.weights, masses)], denom


def gain_table(game: Game, player: int, support: Sequence[tuple[int, int]]) -> list[list[int]]:
    """t[r][d] = sum of m d_i (u_i(a) - u_i(d, a_-i)) over (k, m) in `support` with a_i = r.

    a is the profile at index k and d_i the payoff scale: over the D of
    `integer_weights`, t[r][d] / (D d_i) is what following r earns over
    deviating to d, summed with mu's weights.  The diagonal is 0.
    """
    return _gain_sums(game, player, support, by_recommendation=True)


def gain_column_sums(game: Game, player: int, support: Sequence[tuple[int, int]]) -> list[int]:
    """s[d] = sum of m d_i (u_i(a) - u_i(d, a_-i)) over (k, m) in `support`.

    These are the column sums of `gain_table`, summed straight into one
    vector, so no size x size table is built: over the D of
    `integer_weights`, s[d] / (D d_i) is what following mu earns over
    always deviating to d.
    """
    return _gain_sums(game, player, support, by_recommendation=False)[0]


def _gain_sums(game: Game, player: int, support: Sequence[tuple[int, int]],
               by_recommendation: bool) -> list[list[int]]:
    """`gain_table`, or with `by_recommendation` false its one row of column sums."""
    stride, size = game.strides[player], game.shape[player]
    payoff = game.int_payoffs[player]
    table = [[0] * size for _ in range(size if by_recommendation else 1)]
    row = table[0]
    for k, m in support:
        rec = (k // stride) % size
        first = k - rec * stride
        realized = payoff[k]
        if by_recommendation:
            row = table[rec]
        for dev, alt in enumerate(payoff[first:first + size * stride:stride]):
            row[dev] += m * (realized - alt)
    return table


def _normalize(gamma: Sequence[Fraction]) -> tuple[Fraction, ...]:
    total = sum((Fraction(g) for g in gamma), Fraction(0))
    return tuple(Fraction(g) / total for g in gamma)


def _gain_slack(game: Game, a_star: Profile, gamma: Sequence[Fraction],
                concept: str) -> Fraction | None:
    """min over a != a* of -sum_i gamma_i delta_i(a); None if some sum is >= 0.

    The gains are the concept's gain table (`gain_rows`), d_i delta_i(a)
    with d_i player i's payoff scale.  The weights gamma_i / d_i are put
    over one common denominator D as ints W_i, so each weighted gain is the
    int sum_i W_i d_i delta_i(a) over D.
    """
    weights, denom = scaled_ints([Fraction(g) / d for g, d in zip(gamma, game.payoff_scales)])
    gains = [0] * game.num_profiles
    for weight, row in zip(weights, gain_rows(game, a_star, concept)):
        gains = [s + weight * t for s, t in zip(gains, row)]
    del gains[game.profile_index(a_star)]  # 0 there
    worst = max(gains)
    return None if worst >= 0 else Fraction(-worst, denom)


def opponent_bases(game: Game, player: int) -> list[int]:
    """Profile index at which `player` plays action 0, per opponent joint action.

    The bases are in `opponent_profiles` order, which is increasing index
    order; action a against the same joint action sits a * strides[player]
    further on.
    """
    stride, size = game.strides[player], game.shape[player]
    return [block + k for block in range(0, game.num_profiles, stride * size)
            for k in range(stride)]


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
    """The game that `game_to_dict` wrote, its payoffs read by `parse_rational`.

    A payoff string is parsed once per call: later copies of the same string
    reuse its `Fraction`.  Only `str` payoffs are kept that way, as ints,
    floats and booleans that compare equal (1, 1.0, True) must each be read,
    or refused, on their own.
    """
    if not isinstance(data, dict):
        raise GameFormatError("game file must contain a JSON object")
    for key in ("players", "actions", "payoffs"):
        if key not in data:
            raise GameFormatError(f"game file is missing {key!r}")
    actions = data["actions"]
    if not isinstance(actions, list) or not all(
            isinstance(acts, list) and all(type(a) is str for a in acts) for acts in actions):
        raise GameFormatError("actions must be a list of per-player lists of string labels")
    if type(data["players"]) is not int:
        raise GameFormatError(f"players must be an int, got {json.dumps(data['players'])}")
    if data["players"] != len(actions):
        raise GameFormatError("player count disagrees with the actions table")
    rows = data["payoffs"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise GameFormatError("payoffs must be a list of per-player payoff lists")
    parsed: dict[str, Fraction] = {}

    def read(x) -> Fraction:
        if type(x) is not str:
            return parse_rational(x)
        value = parsed.get(x)
        if value is None:
            value = parsed[x] = parse_rational(x)
        return value

    try:
        payoffs = tuple(tuple(map(read, row)) for row in rows)
    except RationalFormatError as exc:
        raise GameFormatError(str(exc)) from exc
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise GameFormatError("name must be a string")
    return Game(tuple(tuple(a) for a in actions), payoffs, name)


def profile_from_json(data, what: str = "profile") -> Profile:
    """A profile read from JSON: a list of ints, as 1.0, "1" or true is no action index."""
    if type(data) is not list or any(type(a) is not int for a in data):
        raise GameFormatError(f"{what} must be a list of ints, got {json.dumps(data)}")
    return tuple(data)


def rational_from_json(data, what: str) -> Fraction:
    """A rational read from JSON, where it is a string: 1, 1.0 or a list is none."""
    if type(data) is not str:
        raise GameFormatError(f"{what} must be a rational string, got {json.dumps(data)}")
    return parse_rational(data)


def rationals_from_json(data, what: str) -> list[Fraction]:
    """A JSON list of rational strings: a string's characters or an object's keys are none."""
    if type(data) is not list or any(type(x) is not str for x in data):
        raise GameFormatError(f"{what} must be a list of rational strings, got {json.dumps(data)}")
    return [parse_rational(x) for x in data]


def weights_to_dict(weights: Mapping[int, Fraction]) -> dict[str, str]:
    return {str(k): format_rational(w) for k, w in sorted(weights.items())}


def weights_from_dict(data, size: int, what: str) -> dict[int, Fraction]:
    """Rational strings keyed by decimal indices below `size`; sum and sign unchecked."""
    if not isinstance(data, dict):
        raise GameFormatError(f"{what} must be an object, got {type(data).__name__}")
    weights = {}
    for key, text in data.items():
        if not (isinstance(key, str) and key.isdecimal() and int(key) < size):
            raise GameFormatError(f"{what} key {key!r} is not an index below {size}")
        if not isinstance(text, str):
            raise GameFormatError(f"{what} weight {text!r} is not a rational string")
        weights[int(key)] = parse_rational(text)
    return weights


def distribution_to_dict(game: Game, mu: JointDistribution) -> dict[str, str]:
    return weights_to_dict({game.profile_index(p): w for p, w in mu.weights.items()})


def distribution_from_dict(game: Game, data, what: str) -> JointDistribution:
    weights = weights_from_dict(data, game.num_profiles, what)
    return JointDistribution({game.profile_from_index(k): w for k, w in weights.items()})


def mixed_to_dict(m: MixedAction) -> dict:
    return {"player": m.player, "weights": weights_to_dict(m.weights)}


def mixed_from_dict(game: Game, data, what: str) -> MixedAction:
    """A mixed action whose `player` is a JSON int naming a player of `game`."""
    if not isinstance(data, dict):
        raise GameFormatError(f"{what} must be an object, got {type(data).__name__}")
    player = data.get("player")
    if type(player) is not int or not 0 <= player < game.num_players:
        raise GameFormatError(f"{what} player {json.dumps(player)} is not a player "
                              "of the game")
    weights = weights_from_dict(data.get("weights"), game.shape[player], f"{what} weights")
    return MixedAction(player, weights)


def save_game(game: Game) -> bytes:
    """Serialize to canonical JSON (lowest-terms rational strings)."""
    return json.dumps(game_to_dict(game), indent=2).encode("utf-8")


def read_json(data: bytes | str, error: type[Exception], what: str):
    """`data` decoded as UTF-8 and parsed as JSON, for every file a command reads.

    Bytes that are not UTF-8, text that is not JSON and nesting too deep to
    parse each raise the caller's own `error`, as "<what>: <reason>".
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what}: {exc}") from exc


def load_game(data: bytes | str) -> Game:
    return game_from_dict(read_json(data, GameFormatError, "not valid JSON"))
