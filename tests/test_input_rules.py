"""The three input rules: one finite-number test, one dimension rule and one
ball-radius rule, each defined once in ``uclab.constants``.  A ball
sequence's G and L must also be finite and positive.

The behavioural tests hold every caller of a rule to its one message.  No
linter ships with the project, so the scan tests stand in for one: each rule
message occurs once in ``src/uclab``, the command line has no finite test
of its own (no ``sys.float_info`` or ``numbers.Real``) and imports
``is_finite``, and no module calls ``math.isfinite``, which raises
OverflowError on an integer past the double range and takes a bool for a
number.
"""

import ast
import math
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from uclab.carleman import WeightFunction
from uclab.constants import (
    FreeConstants,
    LocalGeometry,
    ModelParams,
    is_finite,
    log_c_sfuc,
    log_gamma_window,
    sampling_report,
)
from uclab.fields import synthesize_dir_cross_field, synthesize_random_field
from uclab.geometry import CubeDomain, EquidistributedSequence, generate_sequence

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


@pytest.mark.parametrize("bad", [True, HUGE], ids=["bool", "huge"])
@pytest.mark.parametrize("cls, name", [
    (ModelParams, "theta1"), (ModelParams, "G"), (ModelParams, "L"),
    (FreeConstants, "K1"), (FreeConstants, "M"), (LocalGeometry, "beta"),
])
def test_a_dataclass_field_takes_no_bool_and_no_huge_integer(cls, name, bad):
    # a bool read as 0 or 1, and math.isfinite raised OverflowError on HUGE
    required = {ModelParams: {"d": 1}, LocalGeometry: {"R": 1.0, "D0": 0.5, "K_V": 0.0,
                                                       "beta": 2.0}}.get(cls, {})
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got "):
        cls(**{**required, name: bad})


# (the input check, what it raises on a bad value): the seven scalar checks
# that called math.isfinite, each reached through the function that uses it;
# math.isfinite passed True and raised OverflowError on HUGE, as in
# CubeDomain(1, 10**400, 1.0)
INPUT_CHECKS = {
    "_require_finite": (lambda v: FreeConstants(K2=v), "^K2 must be finite"),
    "_sfuc_log_terms": (lambda v: log_c_sfuc(ModelParams(d=1), FreeConstants(), energy=v),
                        "^energy must be finite"),
    "sampling_report": (lambda v: sampling_report(ModelParams(d=1, theta2=1.0), energy=v),
                        "^energy must be finite"),
    "_require_at_least": (
        lambda v: synthesize_random_field(0, CubeDomain(1, 3.0, 0.5), target_theta1=v),
        "^target_theta1 must be finite and >= 1"),
    "synthesize_dir_cross_field": (
        lambda v: synthesize_dir_cross_field(0, CubeDomain(2, 3.0, 0.5), theta1=v),
        "^needs a finite theta1 > 1"),
    "_require_positive": (lambda v: WeightFunction(rho=v, mu=1.0, A0=np.eye(1), theta1=1.0),
                          "^rho must be positive and finite"),
    "CubeDomain": (lambda v: CubeDomain(1, v, 1.0), "^L must be finite and positive"),
}


@pytest.mark.parametrize("bad", [True, HUGE, math.nan], ids=["bool", "huge", "nan"])
@pytest.mark.parametrize("check", sorted(INPUT_CHECKS))
def test_every_scalar_input_check_rejects_a_bool_and_a_huge_integer(check, bad):
    evaluate, message = INPUT_CHECKS[check]
    with pytest.raises(ValueError, match=message):
        evaluate(bad)


# one builder per caller of the dimension rule
DIMENSION_CALLERS = {
    "ModelParams": lambda d: ModelParams(d=d),
    "CubeDomain": lambda d: CubeDomain(d, 3.0, 0.5),
    "EquidistributedSequence": lambda d: EquidistributedSequence(
        G=1.0, delta=0.25, L=3.0, d=d, centers=np.zeros((3, 1))),
    "generate_sequence": lambda d: generate_sequence(1.0, 0.25, 3.0, d),
}


@pytest.mark.parametrize("bad", [True, False, 2.0, 0, "2"])
@pytest.mark.parametrize("caller", sorted(DIMENSION_CALLERS))
def test_every_dimension_check_gives_the_one_message(caller, bad):
    # ModelParams(d=True) and (d=2.0) built a report; CubeDomain took True,
    # and generate_sequence then failed with "an integer is required"
    with pytest.raises(ValueError, match=r"^d must be an integer >= 1, got"):
        DIMENSION_CALLERS[caller](bad)


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
    ("log_c_sfuc", "ball"): "_sfuc_log_terms", ("log_gamma_window", "ball"): "_sfuc_log_terms",
    ("sampling_report", "ball"): "sampling_report",
    ("EquidistributedSequence", "ball"): "__post_init__",
    ("generate_sequence", "ball"): "generate_sequence",
}


def _raiser(info) -> str:
    """The innermost uclab function of a raised error's traceback, which the
    benchmark names as a failure's stage."""
    frames = [f for f, _ in traceback.walk_tb(info.value.__traceback__)
              if f.f_globals["__name__"].startswith("uclab.")]
    return frames[-1].f_code.co_name


@pytest.mark.parametrize("caller, rule", sorted(RAISED_IN))
def test_a_rule_error_is_raised_by_the_function_given_the_value(caller, rule):
    evaluate, bad = {"dimension": (DIMENSION_CALLERS.get(caller), 2.0),
                     "ball": (BALL_RADIUS_CALLERS.get(caller), 0.5)}[rule]
    with pytest.raises(ValueError) as info:
        evaluate(bad)
    assert _raiser(info) == RAISED_IN[caller, rule]


# (the function given G and L, the one that raises a bad G or L)
SEQUENCE_BUILDERS = {
    "generate_sequence": (lambda G, L: generate_sequence(G, 0.25, L, 1), "generate_sequence"),
    "EquidistributedSequence": (lambda G, L: EquidistributedSequence(
        G=G, delta=0.25, L=L, d=1, centers=np.zeros((3, 1))), "__post_init__"),
}


@pytest.mark.parametrize("name, G, L", [
    ("G", True, 3.0),  # generate_sequence returned a sequence with G=True
    ("G", math.nan, 3.0),  # reported as "delta must lie in (0, G/2)"
    ("L", 1.0, HUGE + 1),  # OverflowError at L / G
    ("L", 1.0, math.inf),  # OverflowError at round(L / G)
], ids=["G-bool", "G-nan", "L-huge", "L-inf"])
@pytest.mark.parametrize("builder", sorted(SEQUENCE_BUILDERS))
def test_a_sequence_takes_a_finite_positive_G_and_L(builder, name, G, L):
    build, raiser = SEQUENCE_BUILDERS[builder]
    with pytest.raises(ValueError, match=rf"^{name} must be finite and positive, got ") as info:
        build(G, L)
    assert _raiser(info) == raiser


@pytest.mark.parametrize("message", ["delta must lie in (0, G/2)", "must be an integer >= 1"])
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


def test_no_module_calls_math_isfinite():
    # it raises OverflowError on an integer past the double range and passes a
    # bool; every scalar finiteness check goes through is_finite
    calls = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if _dotted(node) == "math.isfinite"]
    assert not calls, f"math.isfinite called at {calls}"
