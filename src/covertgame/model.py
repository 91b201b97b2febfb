"""Scenario definition, presets, action grids, pruning, and scenario-file I/O.

A Scenario pins down everything the games need: blocklength, noise powers at
the intended receiver and at the detector, the decoding error target, the
jamming coupling coefficient alpha, the covertness weight beta, and the three
action grids (transmit powers, jamming powers, detection thresholds).  All
powers are in linear milliwatts.

The no-jammer setting is represented uniformly as ``jam_grid = (0,)``, so a
single code path serves both games.  The presets (``default_scenario`` and
its coarse variant ``desk_scenario``) and the joint-action order
(``joint_actions``) are defined here once.

Scenario files are flat ``key = value`` text.  Values are parsed as decimal
strings (grids as ``start:step:stop`` triples or comma lists) so grids built
from files match grids built in code digit for digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal, InvalidOperation, Overflow, localcontext

import numpy as np

from .rate import action_snr, normal_approx_rate
from .specfun import MAX_SHAPE, MIN_TAIL_PROB

__all__ = [
    "Scenario",
    "PrunedScenario",
    "ScenarioError",
    "default_scenario",
    "desk_scenario",
    "decimal_range",
    "joint_actions",
    "prune_negative_rate",
    "parse_scenario_text",
    "load_scenario",
    "serialize_scenario",
    "apply_overrides",
]

# Grid coordinates are snapped to this many decimal places at construction so
# that arithmetic noise cannot make equal grids compare unequal.
_GRID_DECIMALS = 12

# Largest number of points in one decimal_range grid.
MAX_GRID_POINTS = 100_000

# Largest power x jam x threshold cell count of one scenario.  A solve holds
# about 100 bytes per cell at its peak, so this is about 1 GB.
MAX_CELLS = 10_000_000


class ScenarioError(ValueError):
    """Raised for invalid scenario values or malformed scenario files."""


class _Grid(tuple):
    """A grid that ``_as_grid`` has snapped and checked finite and strictly
    increasing.  Snapping is idempotent, so a scenario rebuilt from another
    (``dataclasses.replace``) keeps its values without rounding them again;
    only its first point, the smallest, is checked against the field's bound."""

    __slots__ = ()


def _as_grid(values, name: str, minimum: float, min_exclusive: bool) -> tuple[float, ...]:
    """The values, checked as given, snapped to _GRID_DECIMALS places with
    -0.0 stored as 0.0; a value snapped onto the bound or its neighbour fails."""
    snapped = type(values) is _Grid
    given = values if snapped else tuple(map(float, values))
    if not given:
        raise ScenarioError(f"{name} must not be empty")
    grid = values if snapped else _Grid(round(v, _GRID_DECIMALS) + 0.0 for v in given)
    checked = given[:1] if snapped else given  # a _Grid's least point is its first
    for v, g in zip(checked, grid):
        if not math.isfinite(v):
            raise ScenarioError(f"{name} entries must be finite, got {v}")
        if v < minimum or (min_exclusive and g == minimum):
            note = f" (rounds to {g} at {_GRID_DECIMALS} decimals)" if v > minimum else ""
            raise ScenarioError(f"{name} entries must be {'>' if min_exclusive else '>='} "
                                f"{minimum}, got {v}{note}")
    for a, b, g, h in zip(checked, checked[1:], grid, grid[1:]):
        if b <= a or g == h:
            note = f" (both round to {g} at {_GRID_DECIMALS} decimals)" if b > a else ""
            raise ScenarioError(f"{name} must be strictly increasing with no duplicates, "
                                f"got {a} then {b}{note}")
    return grid


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance for the covert-communication games.

    Attributes:
        blocklength_n: channel uses per transmission block, 1 to
            ``specfun.MAX_SHAPE`` (the accuracy domain of the detector model).
        sigma_b_sq_mw: noise power at the intended receiver, mW.
        sigma_w_sq_mw: noise power at the detector, mW.
        delta: decoding error probability target, from
            ``specfun.MIN_TAIL_PROB`` (the smallest normal float) up to 1,
            exclusive (the accuracy domain of ``gaussian_q_inv``).
        alpha: jamming coupling at the intended receiver (0 means jamming
            does not reach it).
        beta: weight of the detection-error term in the transmitter payoff.
        power_grid: transmit-power actions, mW, strictly increasing, > 0.
        jam_grid: jamming-power actions, mW, strictly increasing, >= 0;
            the singleton (0,) encodes the game without a jammer.
        threshold_grid: detector threshold actions, mW, strictly increasing,
            >= 0 (the degenerate always-alarm threshold 0 is retained).
    """

    blocklength_n: int
    sigma_b_sq_mw: float
    sigma_w_sq_mw: float
    delta: float
    alpha: float
    beta: float
    power_grid: tuple[float, ...] = field(repr=False)
    jam_grid: tuple[float, ...] = field(repr=False)
    threshold_grid: tuple[float, ...] = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.blocklength_n, int) or self.blocklength_n < 1:
            raise ScenarioError(f"blocklength_n must be a positive integer, got {self.blocklength_n!r}")
        if self.blocklength_n > MAX_SHAPE:
            raise ScenarioError(f"blocklength_n must be at most {MAX_SHAPE}, where the detection "
                                f"probabilities are accurate, got {self.blocklength_n}")
        for name in ("sigma_b_sq_mw", "sigma_w_sq_mw", "delta", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("sigma_b_sq_mw", "sigma_w_sq_mw"):
            if not getattr(self, name) > 0.0:
                raise ScenarioError(f"{name} must be positive, got {getattr(self, name)}")
        if not MIN_TAIL_PROB <= self.delta < 1.0:
            raise ScenarioError(f"delta must lie in [{MIN_TAIL_PROB}, 1), where the rate is "
                                f"accurate, got {self.delta}")
        if self.alpha < 0.0:
            raise ScenarioError(f"alpha must be nonnegative, got {self.alpha}")
        if not self.beta > 0.0:
            raise ScenarioError(f"beta must be positive, got {self.beta}")
        object.__setattr__(self, "power_grid", _as_grid(self.power_grid, "power_grid", 0.0, True))
        object.__setattr__(self, "jam_grid", _as_grid(self.jam_grid, "jam_grid", 0.0, False))
        object.__setattr__(self, "threshold_grid",
                           _as_grid(self.threshold_grid, "threshold_grid", 0.0, False))
        cells = len(self.power_grid) * len(self.jam_grid) * len(self.threshold_grid)
        if cells > MAX_CELLS:
            raise ScenarioError(f"the power, jam and threshold grids give {cells} cells, "
                                f"more than {MAX_CELLS}")


def _decimal(text: str, what: str) -> Decimal:
    """``text`` as a finite Decimal; anything else raises ScenarioError naming ``what``."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ScenarioError(f"{what}: not a decimal number: {text!r}") from None
    if not value.is_finite():
        raise ScenarioError(f"{what}: not a finite number: {text!r}")
    return value


def decimal_range(start: str, step: str, stop: str) -> tuple[float, ...]:
    """Inclusive arithmetic grid computed in decimal, returned as floats.

    Endpoints and step are decimal strings, so e.g. ("0", "0.01", "3.00")
    yields exactly 301 points with no binary drift deciding inclusion of the
    last one.  Bad or oversized strings raise ScenarioError: a part that is
    not a finite decimal, a step <= 0, an empty grid, a point beyond the float
    range, or more than MAX_GRID_POINTS points (counted before any is built).
    """
    text = f"grid {start}:{step}:{stop}"
    d_start, d_step, d_stop = (_decimal(part, text) for part in (start, step, stop))
    with localcontext() as ctx:
        ctx.traps[Overflow] = False  # an overflowing span or point is infinite
        if d_step <= 0:
            raise ScenarioError(f"grid step must be positive, got {step}")
        steps = (d_stop - d_start) / d_step
        if steps >= MAX_GRID_POINTS:
            raise ScenarioError(f"{text} has more than {MAX_GRID_POINTS} points")
        if steps < 0:
            raise ScenarioError(f"empty grid from {start}:{step}:{stop}")
        grid = tuple(float(d_start + k * d_step) for k in range(math.floor(steps) + 1))
    if not math.isfinite(grid[0]) or not math.isfinite(grid[-1]):  # the points rise
        raise ScenarioError(f"{text} has points beyond the float range")
    return grid


def default_scenario(with_jammer: bool = False) -> Scenario:
    """Reference configuration used throughout the studies.

    Blocklength 200, both noise powers at 0 dB (1 mW), delta = 0.1, transmit
    powers 0.01 to 1.00 mW in 0.01 steps, thresholds 0 to 3.00 mW in 0.01
    steps.  With a jammer: jamming powers 0 to 1.00 mW in 0.01 steps,
    alpha = 1 and beta = 1.5; without: beta = 1.6 and no jamming.
    """
    return Scenario(
        blocklength_n=200,
        sigma_b_sq_mw=1.0,
        sigma_w_sq_mw=1.0,
        delta=0.1,
        alpha=1.0 if with_jammer else 0.0,
        beta=1.5 if with_jammer else 1.6,
        power_grid=decimal_range("0.01", "0.01", "1.00"),
        jam_grid=decimal_range("0", "0.01", "1.00") if with_jammer else (0.0,),
        threshold_grid=decimal_range("0", "0.01", "3.00"),
    )


def desk_scenario(with_jammer: bool = True) -> Scenario:
    """``default_scenario`` with coarse 0.05 mW power/jam grids, for quick
    jammer studies.  Thresholds keep their fine 0.01 step."""
    return replace(
        default_scenario(with_jammer),
        power_grid=decimal_range("0.05", "0.05", "1.00"),
        jam_grid=decimal_range("0", "0.05", "1.00") if with_jammer else (0.0,),
    )


def joint_actions(s: Scenario) -> tuple[tuple[float, float], ...]:
    """All (power, jam) pairs in column-major order: power varies fastest.

    With I power levels, the pair of power index i and jam index l (both
    from 0) sits at index y = l * I + i.  This is the package's one encoding
    of the order; pruning reads its power and jam arrays from it.
    """
    return tuple((p, j) for j in s.jam_grid for p in s.power_grid)


@dataclass(frozen=True)
class PrunedScenario:
    """A scenario together with its surviving joint actions and their rates.

    Pairs whose achievable rate is strictly negative are dropped; zero-rate
    actions stay.  In the jammer game the survivors are generally not a
    product grid (high jamming kills low powers first), which is why the
    action list is explicit.  ``rates`` (read-only) follows ``actions``.
    """

    scenario: Scenario
    actions: tuple[tuple[float, float], ...]
    rates: np.ndarray = field(repr=False, compare=False)


def prune_negative_rate(s: Scenario) -> PrunedScenario:
    """Drop every (power, jam) action whose rate is strictly negative.

    The rates of all joint actions come from one array evaluation, in the
    order of ``joint_actions``; each equals the scalar
    ``normal_approx_rate(action_snr(s, power, jam), ...)`` bit for bit.
    """
    actions = joint_actions(s)
    powers, jams = np.array(actions).T
    rates = normal_approx_rate(action_snr(s, powers, jams), s.blocklength_n, s.delta)
    keep = np.flatnonzero(rates >= 0.0)
    if not keep.size:
        raise ScenarioError(
            "pruning removed every action; all configured powers give negative rate"
        )
    rates = rates[keep]
    rates.flags.writeable = False
    return PrunedScenario(scenario=s, actions=tuple(actions[i] for i in keep.tolist()),
                          rates=rates)


# ---------------------------------------------------------------------------
# Scenario files: flat key = value text with decimal-string grids.
# ---------------------------------------------------------------------------

_GRID_KEYS = ("power_grid", "jam_grid", "threshold_grid")
_ALL_KEYS = tuple(f.name for f in fields(Scenario))
_OPTIONAL = {"alpha": 0.0, "jam_grid": (0.0,)}


def _parse_grid(text: str, key: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = [p.strip() for p in text.split(":")]
        if len(parts) != 3:
            raise ScenarioError(f"{key}: grid triple must be start:step:stop, got {text!r}")
        return decimal_range(*parts)
    return tuple(float(_decimal(p.strip(), key)) for p in text.split(",") if p.strip())


def _parse_value(key: str, text: str):
    """One scenario value from its file syntax; ``key`` must be known."""
    if key == "blocklength_n":
        try:
            return int(text, 10)
        except ValueError:
            raise ScenarioError(f"blocklength_n must be an integer, got {text!r}") from None
    if key in _GRID_KEYS:
        return _parse_grid(text, key)
    return float(_decimal(text, key))


def parse_scenario_text(text: str) -> Scenario:
    """Parse scenario-file content.  Unknown or repeated keys are rejected."""
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ScenarioError(f"line {lineno}: empty value for {key!r}")
        seen[key] = value
    missing = [k for k in _ALL_KEYS if k not in seen and k not in _OPTIONAL]
    if missing:
        raise ScenarioError(f"missing required keys: {', '.join(missing)}")
    return Scenario(**{key: _parse_value(key, seen[key]) if key in seen else _OPTIONAL[key]
                       for key in _ALL_KEYS})


def load_scenario(path) -> Scenario:
    """Read a scenario file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


def serialize_scenario(s: Scenario) -> str:
    """Render a Scenario back to file syntax (grids as explicit lists)."""
    lines = []
    for f in fields(s):
        value = getattr(s, f.name)
        if isinstance(value, tuple):
            lines.append(f"{f.name} = {', '.join(repr(v) for v in value)}")
        else:
            lines.append(f"{f.name} = {value!r}")
    return "\n".join(lines) + "\n"


def apply_overrides(s: Scenario, overrides: dict[str, str]) -> Scenario:
    """Apply key=value overrides (scenario-file syntax) to a Scenario."""
    kwargs: dict = {}
    for key, value in overrides.items():
        if key not in _ALL_KEYS:
            raise ScenarioError(f"unknown scenario key {key!r}")
        kwargs[key] = _parse_value(key, value)
    return replace(s, **kwargs)
