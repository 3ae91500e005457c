"""Behavioral policies for contest agents.

Later movers are modeled with linear-quadratic response functions estimated
from observed play: a second mover invests
``intercept + m1_coef*m1 + m1_sq_coef*m1**2`` given the (average) first-stage
investment m1, and a third mover adds analogous terms in the second-stage
investment m2. First movers can best-respond to those estimated responses
("preempt optimally") or play the equilibrium recommendation. Imitation is a
linear response: ``m1_coef=1`` at stage 2 plays the leaders' mean.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from statistics import NormalDist
from typing import Mapping, NamedTuple, Sequence, Union

from . import _LAZY_EXPORTS
from .core import (
    ContestError,
    ContestSpec,
    MoveSequence,
    _check_contest_numbers,
    _check_schema,
    _finite_real,
    _in_digits,
    _json_number,
    _known_keys,
    _observation_inputs,
    _sequence_in_digits,
)
from .equilibrium import bisect, solve_spne

__all__ = list(_LAZY_EXPORTS["behavior"])


class InputOutOfRange(ContestError):
    """A response-function input lies outside [0, endowment]."""


class RoleObservationMismatch(ContestError):
    """Observed investments do not match what the role should have seen."""


@dataclass(frozen=True)
class ResponseModel:
    """Linear-quadratic response of a later mover to observed investments.

    ``noise_sd`` is the scale of a zero-mean Gaussian disturbance added before
    clamping; the deterministic part is the fitted mean response.

    ``fit_effective_prize`` records the effective prize of the environment
    the model was estimated in. When set, counterfactual computations at a
    different effective prize P rescale the response homogeneously,
    r_P(m) = c * r(m / c) with c = P / fit_effective_prize, mirroring the
    degree-one homogeneity of contest best responses. Direct evaluation via
    :func:`eval_response` never rescales.
    """

    intercept: float
    m1_coef: float = 0.0
    m1_sq_coef: float = 0.0
    m2_coef: float = 0.0
    m2_sq_coef: float = 0.0
    noise_sd: float = 0.0
    fit_effective_prize: float | None = None

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value is not None or name != "fit_effective_prize":
                _finite_real(value, f"response-model {name}")
        if self.noise_sd < 0.0:
            raise ContestError(f"response-model noise_sd must be nonnegative, got {self.noise_sd}")
        fit = self.fit_effective_prize
        if fit is not None and fit <= 0.0:
            raise ContestError(f"response-model fit_effective_prize must be positive, got {fit}")

    def mean_response(self, m1: float, m2: float | None = None) -> float:
        """Fitted polynomial without noise or clamping."""
        value = self.intercept + self.m1_coef * m1 + self.m1_sq_coef * m1 * m1
        if m2 is not None:
            value += self.m2_coef * m2 + self.m2_sq_coef * m2 * m2
        return value


_normal_quantile = NormalDist().inv_cdf  # Wichura's AS241


def _standard_normal(rng) -> float:
    """A standard normal from one draw u of ``rng.random()``: the inverse
    normal CDF at u, with u = 0 (whose quantile is -inf) read as 2**-54."""
    return _normal_quantile(rng.random() or 2.0**-54)


def eval_response(
    model: ResponseModel,
    m1: float,
    m2: float | None = None,
    *,
    endowment: float = 240.0,
    rng=None,
) -> float:
    """Evaluate a response model, optionally with noise, clamped to the
    feasible investment range.

    For treatments with two first movers, callers pass ``m1`` as the average
    of the two observed first-stage investments. ``m1`` and ``m2`` (when
    given) lie in [0, endowment], else :class:`InputOutOfRange` is raised; one
    of them, or an ``endowment``, that is not a float must first be a finite
    real number other than a bool, else :class:`ContestError` is raised.
    With a positive ``noise_sd``, ``rng`` gives the noise as one standard
    normal (:func:`_standard_normal`), so it needs only a ``random()``
    method: a ``random.Random`` or a numpy ``Generator`` will do.
    """
    if endowment.__class__ is not float:
        _finite_real(endowment, "endowment")
    if m1.__class__ is not float:
        _finite_real(m1, "m1")
    if not 0.0 <= m1 <= endowment:
        raise InputOutOfRange(f"m1={m1} outside [0, {endowment}]")
    if m2 is not None:
        if m2.__class__ is not float:
            _finite_real(m2, "m2")
        if not 0.0 <= m2 <= endowment:
            raise InputOutOfRange(f"m2={m2} outside [0, {endowment}]")
    value = model.mean_response(m1, m2)
    if rng is not None and model.noise_sd > 0.0:
        value += model.noise_sd * _standard_normal(rng)
    return float(min(max(value, 0.0), endowment))


def turning_point(
    model: ResponseModel, which: str = "m1", endowment: float = 240.0
) -> float | None:
    """Interior vertex of the response in ``m1`` or ``m2``, if one exists.

    Returns -coef / (2 * quad_coef) when the quadratic term is negative and
    the vertex lies strictly inside (0, endowment); None otherwise (convex or
    effectively linear responses have no interior peak). An ``endowment``
    that is not a float must be a finite real number other than a bool, else
    :class:`ContestError` is raised.
    """
    if endowment.__class__ is not float:
        _finite_real(endowment, "endowment")
    if which == "m1":
        lin, quad = model.m1_coef, model.m1_sq_coef
    elif which == "m2":
        lin, quad = model.m2_coef, model.m2_sq_coef
    else:
        raise ValueError(f"which must be 'm1' or 'm2', got {which!r}")
    if quad >= 0.0:
        return None
    vertex = -lin / (2.0 * quad)
    if 0.0 < vertex < endowment:
        return float(vertex)
    return None


class PreemptionResult(NamedTuple):
    """Optimal first-stage investment plus a boundary flag."""

    investment: float
    at_boundary: bool


def _check_m2_terms(model: ResponseModel, seq: MoveSequence, stage: int) -> None:
    """Refuse a model with m2 terms at a stage that observes no m2 (one before
    stage 3), which would drop them."""
    if stage < 3:
        for name in ("m2_coef", "m2_sq_coef"):
            if getattr(model, name):
                raise ContestError(
                    f"stage {stage} of treatment {seq.label()} observes no m2, "
                    f"so its response model cannot set {name}"
                )


def optimal_first_mover(
    treatment: MoveSequence,
    models: Mapping[int, ResponseModel],
    prize: float,
    joy_of_winning: float = 0.0,
    endowment: float = 240.0,
) -> PreemptionResult:
    """First movers' optimal investment against estimated later-mover
    responses.

    ``models`` maps stage index (2, and 3 for the three-stage treatment) to
    the responder model for that stage. A model for any other stage, or one
    with m2 terms at stage 2 (which observes no m2), would be dropped, so it
    raises :class:`ContestError`. Only the deterministic part of each model
    is used, clamped to [0, endowment] as play clamps it
    (:func:`eval_response`). Models carrying ``fit_effective_prize`` are
    rescaled homogeneously to the effective prize V = prize + joy_of_winning,
    so varying the joy of winning scales the optimum proportionally. The
    numbers follow :class:`ContestSpec`'s rules (finite, prize positive,
    endowment and joy of winning nonnegative); :class:`ContestError` is
    raised otherwise.

    All three treatments walk one flat first-order function at 0.5-point
    steps and bisect its roots to 1e-12 (:func:`equilibrium.bisect`); it
    evaluates each response as :meth:`ResponseModel.mean_response` does. One
    leader facing the later movers' total response O(x) takes the best of
    the two ends and the roots of V*(O - x*O')/(x + O)**2 - 1, its marginal
    payoff. Two leaders take the first root of V*(x + R - (x/2)*R') -
    (2x + R)**2, their symmetric equilibrium against the follower's response
    R to their average, or else the end that its sign at 0 points to.
    """
    stages = treatment.stages
    if stages not in ((1, 2), (2, 1), (1, 1, 1)):
        raise ContestError(
            f"optimal preemption is defined for (1,2), (2,1), (1,1,1); "
            f"got {treatment.label()}"
        )
    later = range(2, len(stages) + 1)
    for stage in later:
        if stage not in models:
            raise ContestError(f"{treatment.label()} needs a response model for stage {stage}")
    _check_contest_numbers(prize, endowment, joy_of_winning)
    for stage, model in models.items():
        if stage not in later:
            raise ContestError(
                f"an optimizing leader's models name stage {stage}, but the later "
                f"stages of treatment {treatment.label()} are {', '.join(map(str, later))}"
            )
        _check_m2_terms(model, treatment, stage)
    p_eff = prize + joy_of_winning

    def rescaled(model: ResponseModel) -> tuple:
        # a model's scale c and coefficients, and 2 * each quadratic one for the slopes
        fit = model.fit_effective_prize
        c = 1.0 if fit is None else p_eff / fit
        if not 0.0 < c < math.inf:
            raise ContestError(f"effective prize {p_eff} is out of range for a model fit at {fit}")
        q, f = model.m1_sq_coef, model.m2_sq_coef
        return c, model.intercept, model.m1_coef, q, 2.0 * q, model.m2_coef, f, 2.0 * f

    # a float k2 multiplies to the same floats as the int, on the float-only path
    two, k2, three = stages[0] == 2, float(stages[1]), len(stages) == 3
    c2, a2, b2, q2, dq2 = rescaled(models[2])[:5]
    if three:
        c3, a3, b3, q3, dq3, e3, f3, df3 = rescaled(models[3])

    def first_order(x: float, others_only: bool = False) -> float:
        # each response clamped as in play, its slopes 0 where clamped
        m = x / c2
        second = c2 * (a2 + b2 * m + q2 * m * m)
        if 0.0 <= second <= endowment:
            slope2 = b2 + dq2 * m
        else:
            second, slope2 = min(max(second, 0.0), endowment), 0.0
        if two:
            return p_eff * (x + second - 0.5 * x * slope2) - (2.0 * x + second) ** 2
        o, slope = k2 * second, k2 * slope2
        if three:  # stage 3 also sees stage 2's response
            m, n = x / c3, second / c3
            third = c3 * (a3 + b3 * m + q3 * m * m + (e3 * n + f3 * n * n))
            if 0.0 <= third <= endowment:
                d31, d32 = b3 + dq3 * m, e3 + df3 * n
            else:
                third, d31, d32 = min(max(third, 0.0), endowment), 0.0, 0.0
            o, slope = o + third, slope + d31 + d32 * slope2
        if others_only:
            return o
        if x + o <= 0.0:
            return math.inf  # nobody invests: any investment wins the prize
        return p_eff * (o - x * slope) / (x + o) ** 2 - 1.0

    # exact zeros at grid points (the last is never tested for one) and
    # strict sign changes, bisected; two leaders stop at the first
    roots = []
    lo, f_lo = 0.0, first_order(0.0)
    for i in range(1, int(endowment / 0.5) + 1):
        hi = i * 0.5
        f_hi = first_order(hi)
        if f_lo == 0.0 or f_lo * f_hi < 0.0:
            roots.append(lo if f_lo == 0.0 else bisect(first_order, lo, hi, f_lo, tol=1e-12))
            if two:
                break
        lo, f_lo = hi, f_hi

    if two:
        x = roots[0] if roots else (endowment if first_order(0.0) > 0.0 else 0.0)
    else:
        def payoff(x: float) -> float:
            total = x + first_order(x, True)
            if total <= 0.0:
                return p_eff / treatment.n_players - x
            return p_eff * x / total - x

        x = max([0.0, endowment, *roots], key=payoff)

    at_boundary = x <= 1e-6 or x >= endowment - 1e-6
    return PreemptionResult(float(x), at_boundary)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumPolicy:
    """Play the solver's stage investment, with or without the joy-of-winning
    adjustment carried by the contest spec."""

    use_joy_of_winning: bool = False


@dataclass(frozen=True)
class EmpiricalResponder:
    """Later mover playing an estimated response function (optionally noisy)."""

    model: ResponseModel


@dataclass(frozen=True)
class OptimizingLeader:
    """First mover playing the optimal preemptive investment against
    estimated responder models."""

    models: Mapping[int, ResponseModel]
    joy_of_winning: float = 0.0


BehaviorPolicy = Union[EquilibriumPolicy, EmpiricalResponder, OptimizingLeader]


@lru_cache(maxsize=None)
def _leader_optimum(spec: ContestSpec, model_items: tuple, joy_of_winning: float) -> float:
    """An optimizing leader's investment, solved once per spec, models and joy of winning."""
    return optimal_first_mover(
        spec.sequence, dict(model_items), spec.prize, joy_of_winning, spec.endowment
    ).investment


def _policy_rule(policy: BehaviorPolicy, spec: ContestSpec, stage: int):
    """What ``policy`` plays at ``stage`` of ``spec``, resolved once into plain
    data that :func:`act` evaluates.

    Equilibrium and optimizing-leader play do not depend on what the stage
    observes: they resolve to their investment, a float already clamped to
    [0, endowment]. A responder resolves to its :class:`ResponseModel`, once
    its m2 terms are checked: a stage before 3 observes no m2, so a model that
    sets them there raises :class:`ContestError`.
    """
    if isinstance(policy, EquilibriumPolicy):
        played = spec if policy.use_joy_of_winning else spec.without_joy()
        value = solve_spne(played).scaled_stage_investments[stage - 1]
    elif isinstance(policy, EmpiricalResponder):
        if stage < 2:
            raise RoleObservationMismatch(
                "a responder needs at least one earlier stage to respond to"
            )
        _check_m2_terms(policy.model, spec.sequence, stage)
        return policy.model
    elif isinstance(policy, OptimizingLeader):
        if stage != 1:
            raise RoleObservationMismatch(
                "an optimizing leader must move at stage 1"
            )
        value = _leader_optimum(spec, tuple(sorted(policy.models.items())), policy.joy_of_winning)
    else:
        raise TypeError(f"unknown policy {policy!r}")
    return float(min(max(value, 0.0), spec.endowment))


# (id(policy), id(spec), stage) -> (policy, spec, number of prior investments,
# rule). An entry holds its policy and spec, so neither id can pass to another
# object while the entry exists. Policies and specs are frozen; a models
# mapping changed after a leader's first act is not seen.
_RESOLVED: dict[tuple[int, int, int], tuple] = {}
_RESOLVED_MAX = 256


def act(
    policy: BehaviorPolicy,
    spec: ContestSpec,
    stage: int,
    observed: Sequence[float],
    rng=None,
) -> float:
    """Investment chosen by ``policy`` for a player deciding at ``stage``.

    ``observed`` may be any sequence (``play_round`` passes a tuple) and
    must contain exactly the investments from strictly earlier stages, in
    player order; a stage the sequence lacks raises :class:`IndexError`. Any
    randomness (responder noise) is drawn from ``rng``, which needs only a
    ``random()`` method (:func:`eval_response`); deterministic policies never
    touch it. The policy is resolved (:func:`_policy_rule`)
    on the first call with this policy object, spec object and stage, and
    reused after that, so a session resolves each of its policies once; the
    number of earlier investments is read then from the sequence's role plan.
    """
    key = (id(policy), id(spec), stage)
    try:
        entry = _RESOLVED[key]
    except KeyError:
        if len(_RESOLVED) >= _RESOLVED_MAX:
            _RESOLVED.clear()
        expected = spec.sequence.players_before_stage(stage)
        entry = _RESOLVED[key] = (policy, spec, expected, _policy_rule(policy, spec, stage))
    _, _, expected, rule = entry
    if len(observed) != expected:
        raise RoleObservationMismatch(
            f"stage {stage} of {spec.sequence.label()} observes {expected} prior "
            f"investments, got {len(observed)}"
        )
    if rule.__class__ is float:
        return rule
    m1, m2 = _observation_inputs(spec.sequence, stage, observed)
    return eval_response(rule, m1, m2, endowment=spec.endowment, rng=rng)


# ---------------------------------------------------------------------------
# Bundled response-model presets and config parsing
# ---------------------------------------------------------------------------

_MODEL_FIELDS = frozenset(f.name for f in fields(ResponseModel))


def _model_from_dict(entry: Mapping, fit_effective_prize: float | None = None) -> ResponseModel:
    _known_keys(entry, _MODEL_FIELDS, "response-model")
    if "intercept" not in entry:
        raise ContestError("response model needs an 'intercept'")
    values = {k: _json_number(v, f"response-model {k}") for k, v in entry.items()}
    if fit_effective_prize is not None:
        values.setdefault("fit_effective_prize", fit_effective_prize)
    return ResponseModel(**values)


def _stage_models(raw: Mapping, fit_effective_prize: float | None = None) -> dict:
    """The models of a JSON object keyed by stage numbers spelt in ASCII digits."""
    models = {}
    for key, entry in raw.items():
        if not _in_digits(key):
            raise ContestError(f"a stage key must be a stage number in digits, got {key!r}")
        models[int(key)] = _model_from_dict(entry, fit_effective_prize)
    return models


def load_response_models(path) -> dict[MoveSequence, dict[int, ResponseModel]]:
    """Read responder models from a JSON preset file.

    Schema: {"schema": 1, "models": {"1,2": {"2": {...}}, ...}} where the
    outer key is a move sequence, its stage counts joined by commas, the
    inner key the stage the responder moves at (in ASCII digits, as in a
    leader's "models"; so are the stage counts, with no spaces), and the
    leaf an object with the ResponseModel fields. "schema" is the JSON
    integer 1.
    A top-level "fit_effective_prize" applies to every model that does not
    set its own. Every model field must be a JSON number, and any other
    top-level key is an error. A file of the wrong shape raises
    :class:`ContestError` naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return _parse_model_tree(json.load(fh))
        except (AttributeError, LookupError, RecursionError, TypeError, ValueError) as exc:
            # bad or too deeply nested JSON, a file, model map or stage key of
            # the wrong shape or type, or a model the parser refuses
            raise ContestError(
                f"malformed response-model file {os.fspath(path)}: {type(exc).__name__}: {exc}"
            ) from exc


def _parse_model_tree(raw: Mapping) -> dict[MoveSequence, dict[int, ResponseModel]]:
    _known_keys(raw, ("schema", "fit_effective_prize", "models"), "response-model file")
    _check_schema(raw, "response-model")
    default_prize = raw.get("fit_effective_prize")
    if default_prize is not None:
        default_prize = _json_number(default_prize, "fit_effective_prize")
    out: dict[MoveSequence, dict[int, ResponseModel]] = {}
    for seq_key, stage_map in raw["models"].items():
        seq = _sequence_in_digits(seq_key, "a move-sequence key")
        out[seq] = _stage_models(stage_map, default_prize)
    return out


@lru_cache(maxsize=1)
def _bundled_models() -> dict[MoveSequence, dict[int, ResponseModel]]:
    from importlib import resources  # loaded only to read the bundled file

    text = (
        resources.files("seqcontest.presets")
        .joinpath("response_models.json")
        .read_text(encoding="utf-8")
    )
    return _parse_model_tree(json.loads(text))


def default_response_models(sequence: MoveSequence) -> dict[int, ResponseModel]:
    """Bundled responder models for one of the sequential treatments."""
    models = _bundled_models()
    if sequence not in models:
        raise ContestError(f"no bundled response models for {sequence.label()}")
    return dict(models[sequence])


# the keys each policy kind reads; any other key in its entry is an error
_POLICY_KEYS = {
    "spne": ("kind",),
    "jow-spne": ("kind",),
    "responder": ("kind", "model", "noise_sd"),
    "optimizing-leader": ("kind", "models", "joy_of_winning"),
}


def policy_from_config(entry: Mapping, spec: ContestSpec, player: int) -> BehaviorPolicy:
    """Build a policy from one JSON config entry for the given player slot.

    Kinds, matched exactly: "spne", "jow-spne", "responder",
    "optimizing-leader". Responder and leader entries may omit "model"/"models"
    to use the bundled presets for the session's treatment. A responder moves
    after stage 1 and a leader at stage 1; the leader's optimum is solved here,
    so models it cannot use are an error, and its "models" name only the
    treatment's later stages. A model for a stage before 3 sets no m2 term,
    since that stage observes no m2. An entry holds only the keys its kind
    reads, and its numbers must be JSON numbers.
    """
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in _POLICY_KEYS:
        raise ContestError(f"unknown policy kind {kind!r}")
    _known_keys(entry, _POLICY_KEYS[kind], f"{kind!r} policy")
    seq = spec.sequence
    if kind == "spne":
        return EquilibriumPolicy(use_joy_of_winning=False)
    if kind == "jow-spne":
        return EquilibriumPolicy(use_joy_of_winning=True)
    stage = seq.stage_of_player(player)
    # a responder answers an earlier stage, and a leader moves at stage 1
    if (stage == 1) == (kind == "responder"):
        raise ContestError(f"{kind!r} cannot move at stage {stage} of treatment {seq.label()}")
    if kind == "responder":
        if "model" in entry:
            model = _model_from_dict(entry["model"])
        else:
            # the bundled file has a model for every later stage of its sequences
            model = default_response_models(seq)[stage]
        if "noise_sd" in entry:
            model = replace(model, noise_sd=_json_number(entry["noise_sd"], "noise_sd"))
        _check_m2_terms(model, seq, stage)
        return EmpiricalResponder(model)
    # an optimizing leader
    if "models" in entry:
        models = _stage_models(entry["models"])
    else:
        models = default_response_models(seq)
    jow = _json_number(entry.get("joy_of_winning", spec.joy_of_winning), "joy_of_winning")
    # solved now, so that a treatment or models it cannot use are a config error
    _leader_optimum(spec, tuple(sorted(models.items())), jow)
    return OptimizingLeader(models=models, joy_of_winning=jow)
