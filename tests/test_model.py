"""Tests for scenario construction, pruning, and scenario-file round trips."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from covertgame.model import (
    Scenario,
    ScenarioError,
    apply_overrides,
    MAX_CELLS,
    MAX_GRID_POINTS,
    decimal_range,
    default_scenario,
    joint_actions,
    load_scenario,
    parse_scenario_text,
    prune_negative_rate,
    serialize_scenario,
)
from covertgame.rate import action_snr, normal_approx_rate
from covertgame.specfun import MAX_SHAPE, MIN_TAIL_PROB


def small_scenario(**over):
    base = dict(
        blocklength_n=200,
        sigma_b_sq_mw=1.0,
        sigma_w_sq_mw=1.0,
        delta=0.1,
        alpha=0.0,
        beta=1.6,
        power_grid=(0.02, 0.5, 1.0),
        jam_grid=(0.0,),
        threshold_grid=(0.0, 1.0, 2.0),
    )
    base.update(over)
    return Scenario(**base)


def test_default_scenario_values():
    s = default_scenario()
    assert s.blocklength_n == 200
    assert s.sigma_b_sq_mw == 1.0
    assert s.sigma_w_sq_mw == 1.0
    assert s.delta == 0.1
    assert s.alpha == 0.0
    assert s.beta == 1.6
    assert len(s.power_grid) == 100
    assert s.power_grid[0] == 0.01
    assert s.power_grid[-1] == 1.0
    assert s.jam_grid == (0.0,)
    assert len(s.threshold_grid) == 301
    assert s.threshold_grid[0] == 0.0
    assert s.threshold_grid[-1] == 3.0


def test_default_scenario_with_jammer():
    s = default_scenario(with_jammer=True)
    assert s.alpha == 1.0
    assert s.beta == 1.5
    assert len(s.jam_grid) == 101
    assert s.jam_grid[0] == 0.0
    assert s.jam_grid[-1] == 1.0


def test_decimal_range_exact_endpoints():
    grid = decimal_range("0", "0.01", "3.00")
    assert len(grid) == 301
    # 0.07 and 2.99 are classic binary-drift victims.
    assert grid[7] == 0.07
    assert grid[299] == 2.99
    assert decimal_range("0.02", "0.01", "0.04") == (0.02, 0.03, 0.04)


def test_decimal_range_errors():
    with pytest.raises(ScenarioError, match="step must be positive"):
        decimal_range("0", "0", "1")
    with pytest.raises(ScenarioError, match="empty grid"):
        decimal_range("2", "1", "1")
    # The point count is checked in decimal before any point is built.
    assert len(decimal_range("0", "1", "99999")) == MAX_GRID_POINTS
    for triple in [("0", "1", "100000"), ("0", "0.25", "1e308"), ("0", "1e-999999", "1e999999")]:
        with pytest.raises(ScenarioError, match=f"more than {MAX_GRID_POINTS} points"):
            decimal_range(*triple)


@pytest.mark.parametrize("triple, message", [
    (("9e999999", "1e999999", "9.9e999999"), "has points beyond the float range"),
    (("1e999999999999", "1", "2"), "empty grid"),
    (("abc", "1", "2"), "grid abc:1:2: not a decimal number: 'abc'"),
    (("0", "sNaN", "1"), "grid 0:sNaN:1: not a finite number: 'sNaN'"),
], ids=["point-past-emax", "start-past-emax", "not-decimal", "signaling-nan"])
def test_decimal_range_raises_only_scenario_error(triple, message):
    # These used to escape as decimal.Overflow or decimal.InvalidOperation.
    with pytest.raises(ScenarioError, match=message):
        decimal_range(*triple)


def test_decimal_range_counts_points_before_building_them():
    # A step below Decimal's smallest exponent, or far below the precision of
    # the start, rounds each point back to the start, so a loop that stopped
    # at the first point past the stop never ended.
    assert decimal_range("0", "1e-999999999", "1e-999999999") == (0.0,)
    assert decimal_range("1e300", "1", "1e300") == (1e300,)


def test_cell_count_limit():
    # Both sides of the bound, on grids of a few thousand points: the count is
    # checked on the grid lengths, before any cell array exists.
    powers = decimal_range("0.001", "0.001", "1")
    assert len(powers) * 100 * 100 == MAX_CELLS
    at_limit = small_scenario(power_grid=powers, jam_grid=decimal_range("0", "1", "99"),
                              threshold_grid=decimal_range("0", "1", "99"))
    assert len(at_limit.threshold_grid) == 100
    with pytest.raises(ScenarioError, match=f"10100000 cells, more than {MAX_CELLS}"):
        small_scenario(power_grid=powers, jam_grid=decimal_range("0", "1", "99"),
                       threshold_grid=decimal_range("0", "1", "100"))
    # The full-grid jammer preset, 100 x 101 x 301 cells, stays inside.
    full = default_scenario(True)
    assert len(full.power_grid) * len(full.jam_grid) * len(full.threshold_grid) == 3_040_100


def test_scenario_validation():
    with pytest.raises(ScenarioError, match="blocklength_n"):
        small_scenario(blocklength_n=0)
    with pytest.raises(ScenarioError, match="blocklength_n must be at most 100000"):
        small_scenario(blocklength_n=100_001)
    assert small_scenario(blocklength_n=100_000).blocklength_n == 100_000
    with pytest.raises(ScenarioError, match="delta"):
        small_scenario(delta=1.0)
    # Below the smallest normal float the rate's Gaussian quantile is inaccurate.
    for bad in (1e-322, 5e-324, math.nextafter(MIN_TAIL_PROB, 0.0)):
        with pytest.raises(ScenarioError, match=r"delta must lie in \[2\.22507\d+e-308, 1\)"):
            small_scenario(delta=bad)
    assert small_scenario(delta=MIN_TAIL_PROB).delta == MIN_TAIL_PROB
    with pytest.raises(ScenarioError, match="alpha"):
        small_scenario(alpha=-0.5)
    with pytest.raises(ScenarioError, match="beta"):
        small_scenario(beta=0.0)
    with pytest.raises(ScenarioError, match="power_grid"):
        small_scenario(power_grid=(0.0, 0.5))
    with pytest.raises(ScenarioError, match="strictly increasing"):
        small_scenario(threshold_grid=(0.0, 1.0, 1.0))
    with pytest.raises(ScenarioError, match="must not be empty"):
        small_scenario(jam_grid=())
    for name in ("sigma_b_sq_mw", "sigma_w_sq_mw", "delta", "alpha", "beta"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ScenarioError, match=f"{name} must be finite"):
                small_scenario(**{name: bad})
    with pytest.raises(ScenarioError, match="power_grid entries must be finite"):
        small_scenario(power_grid=(0.1, math.inf))
    with pytest.raises(ScenarioError, match="threshold_grid entries must be finite"):
        small_scenario(threshold_grid=(0.0, math.nan))


def test_rebuilt_scenarios_keep_their_snapped_grids_and_check_them():
    s = small_scenario(threshold_grid=(0.0, 0.1 + 0.2, 1.0))
    assert s.threshold_grid == (0.0, 0.3, 1.0)
    # A replace keeps the snapped values without snapping them again ...
    again = dataclasses.replace(s, beta=2.0)
    assert again.threshold_grid == s.threshold_grid and again.power_grid == s.power_grid
    for grid in (again.power_grid, again.jam_grid, again.threshold_grid):
        assert grid == tuple(round(v, 12) for v in grid)
    # ... but still checks every field against its own rules.
    with pytest.raises(ScenarioError, match="power_grid entries must be > 0.0, got 0.0"):
        dataclasses.replace(s, power_grid=s.threshold_grid)
    with pytest.raises(ScenarioError, match="power_grid entries must be > 0.0, got 0.0"):
        dataclasses.replace(s, power_grid=s.jam_grid)
    assert dataclasses.replace(s, jam_grid=s.threshold_grid).jam_grid == s.threshold_grid
    # A snapped grid is checked by its first point only, with the message
    # that the same values get as raw input.
    full = default_scenario(True)
    for grid in (full.jam_grid, tuple(full.jam_grid)):
        with pytest.raises(ScenarioError, match=r"^power_grid entries must be > 0.0, got 0.0$"):
            dataclasses.replace(full, power_grid=grid)


def test_grid_values_are_checked_as_given_then_snapped():
    # A bound is checked on the value as given, not on its 12-decimal snap.
    with pytest.raises(ScenarioError, match=r"jam_grid entries must be >= 0.0, got -1e-13$"):
        small_scenario(jam_grid=(-1e-13, 0.5))
    with pytest.raises(ScenarioError, match=r"power_grid entries must be > 0.0, got 4e-13 "
                                            r"\(rounds to 0.0 at 12 decimals\)$"):
        small_scenario(power_grid=(4e-13, 0.5))
    with pytest.raises(ScenarioError, match=r"got 0.1 then 0.1000000000001 "
                                            r"\(both round to 0.1 at 12 decimals\)$"):
        small_scenario(power_grid=(0.1, 0.1000000000001))
    with pytest.raises(ScenarioError, match=r"increasing with no duplicates, got 0.5 then 0.2$"):
        small_scenario(power_grid=(0.5, 0.2))
    # -0.0 is stored as 0.0; a jam power that snaps to 0.0 is allowed.
    s = small_scenario(jam_grid=(-0.0, 0.5), threshold_grid=(-0.0, 1.0, 2.0))
    assert [math.copysign(1.0, g[0]) for g in (s.jam_grid, s.threshold_grid)] == [1.0, 1.0]
    assert small_scenario(jam_grid=(4e-13, 0.5)).jam_grid == (0.0, 0.5)
    # The default grids snap to the values 12-decimal rounding always gave.
    for with_jammer in (False, True):
        s = default_scenario(with_jammer)
        for grid, source in ((s.power_grid, decimal_range("0.01", "0.01", "1.00")),
                             (s.threshold_grid, decimal_range("0", "0.01", "3.00")),
                             (s.jam_grid, decimal_range("0", "0.01", "1.00")
                              if with_jammer else (0.0,))):
            assert grid == tuple(round(float(v), 12) for v in source)


def test_joint_actions_power_varies_fastest():
    s = small_scenario(jam_grid=(0.0, 0.3), alpha=1.0)
    acts = joint_actions(s)
    assert acts == (
        (0.02, 0.0), (0.5, 0.0), (1.0, 0.0),
        (0.02, 0.3), (0.5, 0.3), (1.0, 0.3),
    )


def test_prune_negative_rate_boundary():
    s = default_scenario()
    pruned = prune_negative_rate(s)
    powers = sorted({p for p, _ in pruned.actions})
    # 0.01 mW has negative rate at this blocklength, 0.02 does not.
    assert 0.01 not in powers
    assert powers[0] == 0.02
    assert len(pruned.actions) == 99


def test_prune_is_idempotent():
    pruned = prune_negative_rate(default_scenario())
    again = prune_negative_rate(pruned.scenario)
    assert again.actions == pruned.actions


@pytest.mark.parametrize("with_jammer", [False, True])
def test_prune_rates_equal_scalar_action_rate(with_jammer):
    # One array evaluation over every joint action (10,100 with the jammer)
    # gives the scalar rates bit for bit, and the same survivors.
    s = default_scenario(with_jammer)
    scalar = [(a, normal_approx_rate(action_snr(s, *a), s.blocklength_n, s.delta))
              for a in joint_actions(s)]
    kept = [(a, r) for a, r in scalar if r >= 0.0]
    pruned = prune_negative_rate(s)
    assert pruned.actions == tuple(a for a, _ in kept)
    assert np.array_equal(pruned.rates.view(np.int64),
                          np.array([r for _, r in kept]).view(np.int64))
    assert not pruned.rates.flags.writeable


def test_prune_all_negative_raises():
    s = small_scenario(power_grid=(0.001, 0.002))
    with pytest.raises(ScenarioError, match="pruning removed every action"):
        prune_negative_rate(s)


def test_parse_round_trip():
    for with_jammer in (False, True):
        s = default_scenario(with_jammer)
        back = parse_scenario_text(serialize_scenario(s))
        assert back == s


def _grid(draw, exclusive: bool) -> tuple[float, ...]:
    values = draw(st.lists(st.floats(min_value=0.0, max_value=1e12, exclude_min=exclusive),
                           min_size=1, max_size=5))
    grid = sorted({round(v, 12) for v in values} - ({0.0} if exclusive else set()))
    assume(grid)
    return tuple(grid)


@st.composite
def scenarios(draw) -> Scenario:
    positive = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
    return Scenario(
        blocklength_n=draw(st.integers(1, MAX_SHAPE)),
        sigma_b_sq_mw=draw(positive),
        sigma_w_sq_mw=draw(positive),
        delta=draw(st.floats(MIN_TAIL_PROB, 1.0, exclude_max=True)),
        alpha=draw(st.floats(0.0, 1e300)),
        beta=draw(positive),
        power_grid=_grid(draw, exclusive=True),
        jam_grid=_grid(draw, exclusive=False),
        threshold_grid=_grid(draw, exclusive=False),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(s=scenarios())
def test_parse_serialize_round_trip_property(s):
    assert parse_scenario_text(serialize_scenario(s)) == s


def test_parse_grid_triples_match_code_grids():
    text = "\n".join([
        "blocklength_n = 200",
        "sigma_b_sq_mw = 1.0",
        "sigma_w_sq_mw = 1.0",
        "delta = 0.1",
        "beta = 1.6",
        "power_grid = 0.01:0.01:1.00",
        "threshold_grid = 0:0.01:3.00  # detector grid",
    ])
    s = parse_scenario_text(text)
    assert s == default_scenario()


def test_parse_optional_defaults():
    text = "\n".join([
        "blocklength_n = 100",
        "sigma_b_sq_mw = 1.0",
        "sigma_w_sq_mw = 1.0",
        "delta = 0.1",
        "beta = 2",
        "power_grid = 0.5, 1.0",
        "threshold_grid = 0, 1",
    ])
    s = parse_scenario_text(text)
    assert s.alpha == 0.0
    assert s.jam_grid == (0.0,)


def test_parse_errors_name_the_line():
    valid = "blocklength_n = 200\n"
    with pytest.raises(ScenarioError, match="line 2: expected 'key = value'"):
        parse_scenario_text(valid + "what is this")
    with pytest.raises(ScenarioError, match="line 2: unknown key 'snr'"):
        parse_scenario_text(valid + "snr = 3")
    with pytest.raises(ScenarioError, match="line 2: duplicate key"):
        parse_scenario_text(valid + "blocklength_n = 300")
    with pytest.raises(ScenarioError, match="line 2: empty value"):
        parse_scenario_text(valid + "beta =")
    with pytest.raises(ScenarioError, match="missing required keys"):
        parse_scenario_text(valid)
    full = serialize_scenario(default_scenario())
    bad_n = full.replace("blocklength_n = 200", "blocklength_n = 20.5")
    with pytest.raises(ScenarioError, match="blocklength_n must be an integer"):
        parse_scenario_text(bad_n)
    for line, bad in [("beta = 1.6", "beta = NaN"),
                      ("delta = 0.1", "delta = -Infinity"),
                      # An infinite stop would make the grid builder loop forever.
                      ("power_grid = 0.01", "power_grid = 0.01:0.01:Infinity\n#")]:
        with pytest.raises(ScenarioError, match="not a finite number"):
            parse_scenario_text(full.replace(line, bad, 1))


def test_load_scenario(tmp_path):
    path = tmp_path / "case.scenario"
    path.write_text(serialize_scenario(default_scenario(True)), encoding="utf-8")
    assert load_scenario(path) == default_scenario(True)


def test_apply_overrides():
    s = default_scenario()
    out = apply_overrides(s, {"beta": "2.5", "blocklength_n": "400"})
    assert out.beta == 2.5
    assert out.blocklength_n == 400
    assert out.power_grid == s.power_grid
    grids = apply_overrides(s, {"power_grid": "0.1:0.1:0.3"})
    assert grids.power_grid == (0.1, 0.2, 0.3)
    with pytest.raises(ScenarioError, match="unknown scenario key"):
        apply_overrides(s, {"gamma": "1"})
    with pytest.raises(ScenarioError, match="must be an integer"):
        apply_overrides(s, {"blocklength_n": "1e2"})
    for text in ("0:1", "0:1:2:3"):
        with pytest.raises(ScenarioError, match="power_grid: grid triple must be start:step:stop"):
            apply_overrides(s, {"power_grid": text})


def test_scenario_is_frozen():
    s = default_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.beta = 2.0


def test_serialized_floats_are_exact():
    s = default_scenario()
    text = serialize_scenario(s)
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        if key == "delta":
            assert float(value) == s.delta
    ratio = parse_scenario_text(text)
    assert math.isclose(ratio.delta, s.delta, rel_tol=0.0, abs_tol=0.0)
