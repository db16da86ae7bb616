"""The five input rules: one finite-number test, one bound rule (a finite
number >= or > a floor), one dimension rule, one ball-radius rule and one
lattice rule (a length holds a whole number of cells), each defined once in
``uclab.constants``.

The behavioural tests hold every caller of a rule to its one message, raised
by the function given the value.  No linter ships with the project, so the
scan tests stand in for one: each rule message occurs once in
``src/uclab``, only ``constants.is_finite`` reads the double range
(``sys.float_info``; no module calls ``math.isqrt``), no module outside
``constants`` writes an ``is_finite(x) and x <cmp> ...`` test, a
whole-ratio test ``abs(x - y) <cmp> 1e-9`` or a bound helper of its own,
the command line has
no finite test of its own (no ``sys.float_info`` or ``numbers.Real``) and
imports ``is_finite``, and no module calls ``math.isfinite``, which raises
OverflowError on an integer past the double range and takes a bool for a
number.
"""

import ast
import math
import re
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from uclab.carleman import WeightFunction, carleman_trial, check_carleman_inequality, phi
from uclab.cli import load_config, main
from uclab.constants import (
    FreeConstants,
    LocalGeometry,
    ModelParams,
    cacciopoli_prefactor,
    is_above,
    is_at_least,
    is_finite,
    log_c_sfuc,
    log_gamma_window,
    sampling_report,
    side_length_T,
    whole_cells,
)
from uclab.fields import (
    CoefficientField,
    _bounded_potential,
    synthesize_dir_cross_field,
    synthesize_random_field,
)
from uclab.geometry import (
    CubeDomain,
    EquidistributedSequence,
    classify_sites,
    feasible_window_side,
    generate_sequence,
    tiling_identity_defect,
    window_containment_margin,
)

SRC = Path(__file__).resolve().parent.parent / "src/uclab"

HUGE = 10**400  # an integer past the largest double


@pytest.mark.parametrize("value, finite", [
    (0, True), (-3, True), (1.5, True), (np.float64(2.0), True), (np.int64(3), True),
    (Fraction(1, 3), True), (sys.float_info.max, True), (-sys.float_info.max, True),
    (True, False), (False, False), (np.True_, False), (HUGE, False), (-HUGE, False),
    (math.nan, False), (math.inf, False), (-math.inf, False), ("1", False), (None, False),
    (1j, False), (np.array(1.0), False),
])
def test_the_finite_number_test(value, finite):
    assert is_finite(value) == finite


@pytest.mark.parametrize("value, floor, at_least, above", [
    (1, 1, True, False), (1.5, 1, True, True), (0.0, 0, True, False), (-0.0, 0, True, False),
    (0.5, 1, False, False), (Fraction(3, 2), 1, True, True), (sys.float_info.max, 1, True, True),
    (True, 0, False, False), (HUGE, 0, False, False), (math.nan, 0, False, False),
    (math.inf, 0, False, False), (-math.inf, 0, False, False), ("1", 0, False, False),
    (None, 0, False, False),
])
def test_the_bound_rule(value, floor, at_least, above):
    assert is_at_least(value, floor) == at_least
    assert is_above(value, floor) == above


@pytest.mark.parametrize("length, spacing, cells", [
    (3.0, 0.5, 6), (1.0, 1 / 3, 3), (3, 1, 3), (Fraction(3, 2), Fraction(1, 2), 3),
    (np.float64(1.0), np.float64(0.125), 8), (-1.0, 0.5, -2), (0.0, 0.5, 0),
    (1.0, 1 / 3 * (1 + 1e-12), 3), (0.7, 0.5, None), (1.0, 0.3, None),
    (math.nan, 0.5, None), (1.0, math.nan, None), (math.inf, 1.0, None), (1.0, math.inf, None),
    (1e300, 1e-300, None), (1.0, 1e-320, None), (1.0, 0.0, None), (0.0, 0.0, None),
    (True, 1.0, None), (1.0, True, None), (HUGE, 1.0, None), ("1", 1.0, None), (None, 1.0, None),
])
def test_the_lattice_rule(length, spacing, cells):
    # the ratio of 1e300 and 1e-300, of 1 and 1e-320 and of 1 and 0 leaves the
    # double range, where round() raised OverflowError or the division
    # ZeroDivisionError
    got = whole_cells(length, spacing)
    assert got == cells and (got is None or type(got) is int)


# each check of the lattice rule: the function that raises it, the ratio and
# least count its message names, a call that gives it a length and a spacing,
# and the pairs it refuses: a ratio past the double range, a value that is
# not finite, a ratio that is not whole, and a whole one below the least
_PSI = np.tile(np.sin(np.arange(24.0)), 3)  # L = 3, h = 1/8
LATTICE_CHECKS = {
    "CubeDomain": ("__post_init__", "L/h", 2, lambda L, h: CubeDomain(1, L, h),
                   [(1e300, 1e-300), (3.0, 1e-320), (3.0, 0.7), (3.0, 3.0)]),
    "block_cells": ("block_cells", "G/h", 1, lambda G, h: CubeDomain(1, 3.0, h).block_cells(G),
                    [(math.nan, 0.5), (math.inf, 0.5), (True, 0.5), (HUGE, 0.5), (0.7, 0.5),
                     (-1.0, 0.5), (0.0, 0.5)]),
    "EquidistributedSequence": (
        "cells_per_axis", "L/G", 1, lambda L, G: EquidistributedSequence(
            G=G, delta=G / 10, L=L, d=1, centers=np.zeros((3, 1))),
        [(1e300, 1e-300), (3.5, 1.0), (1e-12, 1.0)]),
    "generate_sequence": ("generate_sequence", "L/G", 1,
                          lambda L, G: generate_sequence(G, G / 10, L, 1),
                          [(1e300, 1e-300), (3.5, 1.0), (1e-12, 1.0)]),
    "classify_sites": ("classify_sites", "unit/h", 1,
                       lambda unit, h: classify_sites(_PSI, 3, 3, h),
                       [(1.0, 0.0), (1.0, 1e-320), (1.0, math.nan), (1.0, 0.3), (1.0, 1e10),
                        (1.0, -0.125)]),
    "tiling_identity_defect": ("classify_sites", "unit/h", 1,
                               lambda unit, h: tiling_identity_defect(_PSI, 3, 3, h),
                               [(1.0, 0.0), (1.0, 1e-320)]),
}


@pytest.mark.parametrize("check", sorted(LATTICE_CHECKS))
def test_every_lattice_check_gives_the_one_message(check):
    # CubeDomain(1, 1e300, 1e-300), generate_sequence(1e-300, 1e-301, 1e300, 1)
    # and classify_sites at h = 1e-320 raised OverflowError, classify_sites at
    # h = 0 ZeroDivisionError, and block_cells(nan) "cannot convert float NaN
    # to integer", which names no length
    raiser, ratio, least, evaluate, pairs = LATTICE_CHECKS[check]
    a, b = ratio.split("/")
    for length, spacing in pairs:
        with pytest.raises(ValueError) as info:
            evaluate(length, spacing)
        want = (f"{ratio} must be a whole number >= {least}, "
                f"got {a}={length!r} and {b}={spacing!r}")
        assert str(info.value) == want
        assert _raiser(info) == raiser, (length, spacing)


def test_an_even_cell_count_is_refused_by_generate_sequence():
    with pytest.raises(ValueError, match=r"^L/G=4 must be odd$") as info:
        generate_sequence(1.0, 0.25, 4.0, 1)
    assert _raiser(info) == "generate_sequence"


@pytest.mark.parametrize("h", ["1e-320", "0.3", "nan", "inf", "-0.125", "0"])
def test_a_command_line_h_off_the_lattice_is_one_config_error(tmp_path, capsys, h):
    # --h 1e-320 ended in an OverflowError traceback and exit 1
    out = tmp_path / "o"
    assert main(["verify", "--h", h, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: h_per_G=G/h: G/h must be a whole "
                                       f"number >= 1, got G=1.0 and h={float(h)!r}\n")
    assert not out.exists()


def _bound_message(name: str, bound: str) -> str:
    """The anchored pattern of the bound rule's message for ``name`` and
    ``bound`` (">= 1", "> 0", ...)."""
    return rf"^{name} must be a finite number {re.escape(bound)}, got "


def _past(bound: str) -> float:
    """A number that fails ``bound``: the floor of "> f", half below that of ">= f"."""
    cmp, floor = bound.split()
    return float(floor) - (0.5 if cmp == ">=" else 0.0)


# each dataclass field under the bound rule, by (class, field): a build
# that gives the field the value, and the field's bound
UNIT_GEOMETRY = {"R": 1.0, "D0": 0.5, "K_V": 0.0, "beta": 2.0}
WEIGHT = {"rho": 1.0, "mu": 1.0, "A0": np.eye(1), "theta1": 1.0}
FIELD_DOMAIN = CubeDomain(1, 3.0, 0.5, "periodic")
FIELD_BOUNDS = {
    **{(ModelParams, name): (lambda v, name=name: ModelParams(d=1, **{name: v}), bound)
       for name, bound in (("theta1", ">= 1"), ("theta2", ">= 0"), ("norm_V", ">= 0"),
                           ("norm_b", ">= 0"), ("norm_c", ">= 0"), ("G", "> 0"),
                           ("delta", "> 0"), ("L", "> 0"))},
    **{(FreeConstants, name): (lambda v, name=name: FreeConstants(**{name: v}), bound)
       for name, bound in (("K1", "> 0"), ("K2", "> 0"), ("M", ">= 1"), ("Cprime", ">= 1"))},
    **{(LocalGeometry, name): (lambda v, name=name: LocalGeometry(**{**UNIT_GEOMETRY, name: v}),
                               bound)
       for name, bound in (("R", "> 0"), ("D0", "> 0"), ("K_V", ">= 0"), ("beta", ">= 1"))},
    (CubeDomain, "L"): (lambda v: CubeDomain(1, v, 1.0), "> 0"),
    (CubeDomain, "h"): (lambda v: CubeDomain(1, 3.0, v), "> 0"),
    (EquidistributedSequence, "G"): (lambda v: EquidistributedSequence(
        G=v, delta=0.25, L=3.0, d=1, centers=np.zeros((3, 1))), "> 0"),
    (EquidistributedSequence, "L"): (lambda v: EquidistributedSequence(
        G=1.0, delta=0.25, L=v, d=1, centers=np.zeros((3, 1))), "> 0"),
    **{(WeightFunction, name): (lambda v, name=name: WeightFunction(**{**WEIGHT, name: v}),
                                bound)
       for name, bound in (("rho", "> 0"), ("mu", "> 0"), ("theta1", ">= 1"))},
    **{(CoefficientField, name): (lambda v, name=name: CoefficientField(
        FIELD_DOMAIN, np.ones((1, 1, 1)), np.zeros((1, 1)), np.zeros(1), np.zeros(1),
        **{"declared_theta1": 1.0, "declared_theta2": 0.0, name: v}), bound)
       for name, bound in (("declared_theta1", ">= 1"), ("declared_theta2", ">= 0"))},
}


@pytest.mark.parametrize("bad", [True, HUGE], ids=["bool", "huge"])
@pytest.mark.parametrize("cls, name", sorted(FIELD_BOUNDS, key=lambda k: (k[0].__name__, k[1])))
def test_a_dataclass_field_takes_no_bool_and_no_huge_integer(cls, name, bad):
    # a bool read as 0 or 1, and math.isfinite raised OverflowError on HUGE
    build, bound = FIELD_BOUNDS[cls, name]
    with pytest.raises(ValueError, match=_bound_message(name, bound)):
        build(bad)


# every check of a caller-supplied number against its floor, by the function
# given the value and the argument it names: (a call that passes it the
# value, the argument's bound); a dataclass is given it by __post_init__
_H = 0.125
_CHECK = dict(u=np.zeros(8), A=np.ones((1, 1, 1)), b=None, c=None, h=_H,
              weight=WeightFunction(**WEIGHT), alpha=1.0, carleman_C=1.0)
BOUND_CHECKS = {
    **{("__post_init__", f"{cls.__name__}.{name}"): entry
       for (cls, name), entry in FIELD_BOUNDS.items()},
    ("side_length_T", "theta1"): (lambda v: side_length_T(1, v), ">= 1"),
    ("feasible_window_side", "theta1"): (lambda v: feasible_window_side(1, v), ">= 1"),
    ("cacciopoli_prefactor", "r"): (lambda v: cacciopoli_prefactor(v), "> 0"),
    ("generate_sequence", "G"): (lambda v: generate_sequence(v, 0.25, 3.0, 1), "> 0"),
    ("generate_sequence", "L"): (lambda v: generate_sequence(1.0, 0.25, v, 1), "> 0"),
    ("_bounded_potential", "norm_V"): (
        lambda v: _bounded_potential(np.random.default_rng(0), v, (4,)), ">= 0"),
    **{("synthesize_random_field", name): (
        lambda v, name=name: synthesize_random_field(0, CubeDomain(1, 3.0, 0.5), **{name: v}),
        bound)
       for name, bound in (("target_theta1", ">= 1"), ("target_theta2", ">= 0"),
                           ("norm_V", ">= 0"), ("norm_b", ">= 0"), ("norm_c", ">= 0"))},
    ("synthesize_dir_cross_field", "theta1"): (
        lambda v: synthesize_dir_cross_field(0, CubeDomain(2, 3.0, 0.5), theta1=v), "> 1"),
    ("_radii_ein", "mu"): (lambda v: phi(0.5, v), ">= 0"),
    **{("check_carleman_inequality", name): (
        lambda v, name=name: check_carleman_inequality(**{**_CHECK, name: v}), "> 0")
       for name in ("h", "alpha", "carleman_C")},
    ("carleman_trial", "h"): (lambda v: carleman_trial(0, 2, v), "> 0"),
    **{("carleman_trial", name): (
        lambda v, name=name: carleman_trial(0, 1, _H, **{name: v}), bound)
       for name, bound in (("rho", "> 0"), ("mu", "> 0"), ("alpha_mult", ">= 1"))},
}


# the command line's keys under the bound rule: (key, what each value must
# be, a number past its floor); the last two are lists
CLI_BOUND_KEYS = [("rho", "a finite number > 0", 0.0), ("mu", "a finite number > 0", 0.0),
                  ("alpha_mult", "a finite number >= 1", 0.5),
                  ("grids", "finite numbers > 0", 0.0), ("norm_Vs", "finite numbers >= 0", -0.5)]


@pytest.mark.parametrize("bad", [True, HUGE, math.nan, math.inf, "past"],
                         ids=["bool", "huge", "nan", "inf", "past"])
@pytest.mark.parametrize("key, need, past", CLI_BOUND_KEYS, ids=[k[0] for k in CLI_BOUND_KEYS])
def test_every_command_line_bound_key_is_one_config_error(key, need, past, bad):
    value = past if bad == "past" else bad
    if key in ("grids", "norm_Vs"):
        want = f"{key}={[value]} is not a non-empty list of {need}"
        value = [value]
    else:
        want = f"{key}={value!r} is not {need}"
    assert load_config(None, {key: value}).validate() == [want]


# (the input check, what it raises on a bad value): the finite-number checks
# of energy, which has no floor, and every bound check, each reached through
# the function that uses it; math.isfinite passed True and raised
# OverflowError on HUGE
INPUT_CHECKS = {
    "_sfuc_log_terms": (lambda v: log_c_sfuc(ModelParams(d=1), FreeConstants(), energy=v),
                        "^energy must be finite"),
    "sampling_report": (lambda v: sampling_report(ModelParams(d=1, theta2=1.0), energy=v),
                        "^energy must be finite"),
    **{f"{raiser} {name}": (evaluate, _bound_message(name.rpartition(".")[2], bound))
       for (raiser, name), (evaluate, bound) in BOUND_CHECKS.items()},
}


@pytest.mark.parametrize("bad", [True, HUGE, math.nan, math.inf],
                         ids=["bool", "huge", "nan", "inf"])
@pytest.mark.parametrize("check", sorted(INPUT_CHECKS))
def test_every_scalar_input_check_rejects_a_bool_and_a_huge_integer(check, bad):
    # carleman_trial and check_carleman_inequality took any h (a NaN one
    # failed converting to an integer, 0 divided by zero, and inf was blamed
    # on L); side_length_T, feasible_window_side and cacciopoli_prefactor
    # let a NaN or inf through
    evaluate, message = INPUT_CHECKS[check]
    with pytest.raises(ValueError, match=message):
        evaluate(bad)


@pytest.mark.parametrize("raiser, name", sorted(BOUND_CHECKS))
def test_every_bound_check_rejects_a_number_past_its_floor(raiser, name):
    evaluate, bound = BOUND_CHECKS[raiser, name]
    with pytest.raises(ValueError, match=INPUT_CHECKS[f"{raiser} {name}"][1]):
        evaluate(_past(bound))


# one builder per caller of the dimension rule
DIMENSION_CALLERS = {
    "ModelParams": lambda d: ModelParams(d=d),
    "CubeDomain": lambda d: CubeDomain(d, 3.0, 0.5),
    "EquidistributedSequence": lambda d: EquidistributedSequence(
        G=1.0, delta=0.25, L=3.0, d=d, centers=np.zeros((3, 1))),
    "generate_sequence": lambda d: generate_sequence(1.0, 0.25, 3.0, d),
    "side_length_T": lambda d: side_length_T(d, 1.0),
    "feasible_window_side": lambda d: feasible_window_side(d, 1.0),
    "window_containment_margin": lambda d: window_containment_margin(d, 1.0),
}


@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, 0, -1, "2", pytest.param(HUGE, id="huge"),
                                 pytest.param(int(sys.float_info.max) + 1, id="max+1")])
@pytest.mark.parametrize("caller", sorted(DIMENSION_CALLERS))
def test_every_dimension_check_gives_the_one_message(caller, bad):
    # ModelParams(d=True) and (d=2.0) built a report; CubeDomain took True,
    # and generate_sequence then failed with "an integer is required";
    # side_length_T, feasible_window_side and window_containment_margin
    # returned a side for d = 0 (26), True (39) and 2.5 (47), and d = -1
    # raised "math domain error"; an integer past the largest double was
    # accepted
    with pytest.raises(ValueError,
                       match=r"^d must be an integer >= 1 that a double holds, got ") as info:
        DIMENSION_CALLERS[caller](bad)
    assert str(info.value).endswith(repr(bad))


@pytest.mark.parametrize("window_side", [side_length_T, feasible_window_side,
                                         window_containment_margin],
                         ids=lambda f: f.__name__)
def test_a_window_side_function_checks_d_before_theta1(window_side):
    with pytest.raises(ValueError,
                       match=r"^d must be an integer >= 1 that a double holds, got 0$") as info:
        window_side(0, 0.5)
    assert _raiser(info) == window_side.__name__


# one evaluation per caller of the ball-radius rule, at G = 1
BALL_RADIUS_CALLERS = {
    "log_c_sfuc": lambda delta: log_c_sfuc(ModelParams(d=1, delta=delta), FreeConstants()),
    "log_gamma_window": lambda delta: log_gamma_window(
        ModelParams(d=1, delta=delta), FreeConstants(), 0.0),
    "sampling_report": lambda delta: sampling_report(ModelParams(d=1, delta=delta)),
    "EquidistributedSequence": lambda delta: EquidistributedSequence(
        G=1.0, delta=delta, L=3.0, d=1, centers=np.zeros((3, 1))),
    "generate_sequence": lambda delta: generate_sequence(1.0, delta, 3.0, 1),
}


@pytest.mark.parametrize("delta", [0.5, 0.75])  # ModelParams rejects delta <= 0 itself
@pytest.mark.parametrize("caller", sorted(BALL_RADIUS_CALLERS))
def test_every_ball_radius_check_gives_the_one_message(caller, delta):
    with pytest.raises(ValueError, match=r"^delta must lie in \(0, G/2\)$"):
        BALL_RADIUS_CALLERS[caller](delta)


# the function that raises each rule's error: the one given the bad value
RAISED_IN = {
    **{(caller, "dimension"): "__post_init__" for caller in DIMENSION_CALLERS},
    ("generate_sequence", "dimension"): "generate_sequence",
    **{(name, "dimension"): name
       for name in ("side_length_T", "feasible_window_side", "window_containment_margin")},
    ("log_c_sfuc", "ball"): "_sfuc_log_terms", ("log_gamma_window", "ball"): "_sfuc_log_terms",
    ("sampling_report", "ball"): "sampling_report",
    ("EquidistributedSequence", "ball"): "__post_init__",
    ("generate_sequence", "ball"): "generate_sequence",
    **{(f"{raiser} {name}", "bound"): raiser for raiser, name in BOUND_CHECKS},
}


def _raiser(info) -> str:
    """The innermost uclab function of a raised error's traceback, which the
    benchmark names as a failure's stage."""
    frames = [f for f, _ in traceback.walk_tb(info.value.__traceback__)
              if f.f_globals["__name__"].startswith("uclab.")]
    return frames[-1].f_code.co_name


@pytest.mark.parametrize("caller, rule", sorted(RAISED_IN))
def test_a_rule_error_is_raised_by_the_function_given_the_value(caller, rule):
    if rule == "bound":
        evaluate, bound = BOUND_CHECKS[tuple(caller.split())]
        bads = [math.nan, math.inf, True, HUGE, _past(bound)]
    else:
        evaluate = {"dimension": DIMENSION_CALLERS, "ball": BALL_RADIUS_CALLERS}[rule][caller]
        bads = [{"dimension": 2.0, "ball": 0.5}[rule]]
    for bad in bads:
        with pytest.raises(ValueError) as info:
            evaluate(bad)
        assert _raiser(info) == RAISED_IN[caller, rule], bad


@pytest.mark.parametrize("message", ["delta must lie in (0, G/2)",
                                     "must be an integer >= 1 that a double holds",
                                     "must be a finite number", "must be a whole number"])
def test_each_rule_message_is_written_once(message):
    hits = [p.name for p in sorted(SRC.glob("*.py")) for _ in
            range(p.read_text().count(message))]
    assert len(hits) == 1, f"{message!r} is written in {hits}"


def _dotted(node) -> str:
    """The dotted name a Name or Attribute node spells, else ""."""
    return ast.unparse(node) if isinstance(node, (ast.Name, ast.Attribute)) else ""


def test_the_command_line_has_no_finite_test_of_its_own():
    tree = ast.parse((SRC / "cli.py").read_text())
    own = sorted({_dotted(node) for node in ast.walk(tree)}
                 & {"sys.float_info", "Real", "numbers.Real"})
    own += [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.endswith("finite")]
    assert not own, f"cli.py tests finiteness itself with {own}"
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "uclab.constants" for alias in node.names}
    assert "is_finite" in imported


def test_only_is_finite_reads_the_double_range():
    # dimension_root, _margin and window_side each compared d with the
    # largest double, and dimension_root took math.isqrt past it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        rule = [node for node in tree.body if path.name == "constants.py"
                and isinstance(node, ast.FunctionDef) and node.name == "is_finite"]
        inside = {id(node) for function in rule for node in ast.walk(function)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _dotted(node) in ("sys.float_info", "math.isqrt") and id(node) not in inside]
    assert not found, f"the double range is read outside is_finite at {found}"


def test_no_module_calls_math_isfinite():
    # it raises OverflowError on an integer past the double range and passes a
    # bool; every scalar finiteness check goes through is_finite
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if _dotted(node) == "math.isfinite"]
    assert not calls, f"math.isfinite called at {calls}"


def _finite_then_compared(tree) -> list[int]:
    """Lines of each ``is_finite(x) and ... x <cmp> ...`` expression: an
    ``and`` that tests x with is_finite and then compares x."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And)):
            continue
        tested = {ast.dump(v.args[0]) for v in node.values if isinstance(v, ast.Call)
                  and _dotted(v.func).endswith("is_finite") and v.args}
        if any(isinstance(v, ast.Compare) and tested & {ast.dump(x) for x in
                                                        (v.left, *v.comparators)}
               for v in node.values):
            lines.append(node.lineno)
    return lines


def _whole_ratio_tests(tree) -> list[int]:
    """Lines of each ``abs(x - y) <cmp> <number>`` comparison, the form of the
    lattice rule's whole-ratio test, whatever tolerance it writes."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call) and _dotted(node.left.func) == "abs"
            and node.left.args and isinstance(node.left.args[0], ast.BinOp)
            and isinstance(node.left.args[0].op, ast.Sub)
            and any(isinstance(c, ast.Constant) and isinstance(c.value, (int, float))
                    and not isinstance(c.value, bool) for c in node.comparators)]


def test_only_constants_writes_a_whole_ratio_test():
    # CubeDomain, block_cells, cells_per_axis, generate_sequence,
    # classify_sites and cli.main each wrote their own, and ball_runs
    # compared L with a tolerance of 1e-12
    found = {path.name: _whole_ratio_tests(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found.pop("constants.py")) == 1
    outside = [f"{name}:{line}" for name, lines in found.items() for line in lines]
    assert not outside, f"a whole-ratio test outside constants at {outside}"


def test_only_constants_writes_a_bound_test():
    # cli._RULES and synthesize_dir_cross_field wrote their own
    # "is_finite(v) and v > ..." and three modules had a helper of their own
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "constants.py":
            found += [f"{path.name}:{line}" for line in _finite_then_compared(tree)]
        found += [f"{path.name}:{node.lineno} {node.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name in
                  ("_require_positive", "_require_at_least", "_bad_length")]
    assert not found, f"a bound test of its own at {found}"
