"""Behavioral policies for contest agents.

Later movers are modeled with linear-quadratic response functions estimated
from observed play: a second mover invests
``intercept + m1_coef*m1 + m1_sq_coef*m1**2`` given the (average) first-stage
investment m1, and a third mover adds analogous terms in the second-stage
investment m2. First movers can best-respond to those estimated responses
("preempt optimally"), play the equilibrium recommendation, or simply imitate
what they observe.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence, Union

from .core import (
    ContestError,
    ContestSpec,
    MoveSequence,
    _check_schema,
    _json_number,
    _known_keys,
)
from .equilibrium import bisect, solve_spne

__all__ = [
    "InputOutOfRange",
    "RoleObservationMismatch",
    "ResponseModel",
    "PreemptionResult",
    "EquilibriumPolicy",
    "EmpiricalResponder",
    "Imitator",
    "OptimizingLeader",
    "BehaviorPolicy",
    "eval_response",
    "turning_point",
    "optimal_first_mover",
    "act",
    "default_response_models",
    "load_response_models",
    "policy_from_config",
]


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

    def mean_response(self, m1: float, m2: float | None = None) -> float:
        """Fitted polynomial without noise or clamping."""
        value = self.intercept + self.m1_coef * m1 + self.m1_sq_coef * m1 * m1
        if m2 is not None:
            value += self.m2_coef * m2 + self.m2_sq_coef * m2 * m2
        return value


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
    of the two observed first-stage investments.
    """
    if not 0.0 <= m1 <= endowment:
        raise InputOutOfRange(f"m1={m1} outside [0, {endowment}]")
    if m2 is not None and not 0.0 <= m2 <= endowment:
        raise InputOutOfRange(f"m2={m2} outside [0, {endowment}]")
    value = model.mean_response(m1, m2)
    if rng is not None and model.noise_sd > 0.0:
        value += model.noise_sd * rng.standard_normal()
    return float(min(max(value, 0.0), endowment))


def turning_point(
    model: ResponseModel, which: str = "m1", endowment: float = 240.0
) -> float | None:
    """Interior vertex of the response in ``m1`` or ``m2``, if one exists.

    Returns -coef / (2 * quad_coef) when the quadratic term is negative and
    the vertex lies strictly inside (0, endowment); None otherwise (convex or
    effectively linear responses have no interior peak).
    """
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


def _roots(f, step: float, end: float):
    """Roots of ``f`` on [0, end] in increasing order, found by walking
    x = i * step.

    Yields each grid point where ``f`` is exactly zero (the last point is
    never tested for one) and each strict sign change between neighbouring
    points, bisected to 1e-12.
    """
    lo, f_lo = 0.0, f(0.0)
    for i in range(1, int(end / step) + 1):
        if f_lo == 0.0:
            yield lo
        hi = i * step
        f_hi = f(hi)
        if f_lo * f_hi < 0.0:
            yield bisect(f, lo, hi, f_lo, tol=1e-12)
        lo, f_lo = hi, f_hi


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
    the responder model for that stage. Only the deterministic part of each
    model is used, clamped to [0, endowment] as play clamps it
    (:func:`eval_response`). Models carrying ``fit_effective_prize`` are
    rescaled homogeneously to the effective prize V = prize + joy_of_winning,
    so varying the joy of winning scales the optimum proportionally.

    All three treatments walk a first-order condition at 0.5-point steps and
    bisect its roots to 1e-12 (:func:`_roots`). One leader facing the later
    movers' total response O(x) takes the best of the two ends and the roots
    of V*(O - x*O')/(x + O)**2 - 1, its marginal payoff. Two leaders take the
    first root of V*(x + R - (x/2)*R') - (2x + R)**2, their symmetric
    equilibrium against the follower's response R to their average, or else
    the end that its sign at 0 points to.
    """
    stages = treatment.stages
    p_eff = prize + joy_of_winning
    if stages not in ((1, 2), (2, 1), (1, 1, 1)):
        raise ContestError(
            f"optimal preemption is defined for (1,2), (2,1), (1,1,1); "
            f"got {treatment.label()}"
        )
    for stage in range(2, len(stages) + 1):
        if stage not in models:
            raise ContestError(f"{treatment.label()} needs a response model for stage {stage}")

    def response(model: ResponseModel, m1: float, m2: float | None = None):
        # the rescaled response clamped as in play, with its slopes in m1
        # and m2, which are 0 where it is clamped
        c = 1.0 if model.fit_effective_prize is None else p_eff / model.fit_effective_prize
        value = c * model.mean_response(m1 / c, None if m2 is None else m2 / c)
        if not 0.0 <= value <= endowment:
            return min(max(value, 0.0), endowment), 0.0, 0.0
        d1 = model.m1_coef + 2.0 * model.m1_sq_coef * (m1 / c)
        d2 = 0.0 if m2 is None else model.m2_coef + 2.0 * model.m2_sq_coef * (m2 / c)
        return value, d1, d2

    if stages in ((1, 2), (1, 1, 1)):
        # later stages respond in order; stage 3 also sees stage 2's response
        k2, r2, r3 = stages[1], models[2], (models[3] if stages == (1, 1, 1) else None)

        def others(x: float) -> tuple[float, float]:
            second, slope2, _ = response(r2, x)
            total, slope = k2 * second, k2 * slope2
            if r3 is not None:
                third, d31, d32 = response(r3, x, second)
                total, slope = total + third, slope + d31 + d32 * slope2
            return total, slope

        def marginal(x: float) -> float:
            o, slope = others(x)
            if x + o <= 0.0:
                return math.inf  # nobody invests: any investment wins the prize
            return p_eff * (o - x * slope) / (x + o) ** 2 - 1.0

        def payoff(x: float) -> float:
            total = x + others(x)[0]
            if total <= 0.0:
                return p_eff / treatment.n_players - x
            return p_eff * x / total - x

        x = max([0.0, endowment, *_roots(marginal, 0.5, endowment)], key=payoff)
    else:  # (2, 1)
        r2 = models[2]

        def foc(x: float) -> float:
            resp, slope, _ = response(r2, x)
            return p_eff * (x + resp - 0.5 * x * slope) - (2.0 * x + resp) ** 2

        x = next(_roots(foc, 0.5, endowment), endowment if foc(0.0) > 0.0 else 0.0)

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
class Imitator:
    """Match the mean of observed prior investments; first movers have
    nothing to imitate and fall back to a fixed investment."""

    fallback: float


@dataclass(frozen=True)
class OptimizingLeader:
    """First mover playing the optimal preemptive investment against
    estimated responder models."""

    models: Mapping[int, ResponseModel]
    joy_of_winning: float = 0.0


BehaviorPolicy = Union[EquilibriumPolicy, EmpiricalResponder, Imitator, OptimizingLeader]


@lru_cache(maxsize=None)
def _leader_optimum(spec: ContestSpec, model_items: tuple, joy_of_winning: float) -> float:
    """An optimizing leader's investment, solved once per spec, models and joy of winning."""
    return optimal_first_mover(
        spec.sequence, dict(model_items), spec.prize, joy_of_winning, spec.endowment
    ).investment


def _observation_inputs(
    sequence: MoveSequence, stage: int, observed: Sequence[float]
) -> tuple[float | None, float | None]:
    """Map raw prior investments to the (m1, m2) inputs of a response model.

    m1 averages the first-stage investments (a single value in one-leader
    treatments); m2 is the second-stage investment, present only at stage 3.
    Stage-1 players observe nothing: both are None.
    """
    if stage < 2:
        return None, None
    k1 = sequence.stages[0]
    m1 = math.fsum(observed[:k1]) / k1  # statistics.fmean, without its overhead
    m2 = observed[k1] if stage >= 3 else None
    return m1, m2


def _policy_rule(policy: BehaviorPolicy, spec: ContestSpec, stage: int):
    """What ``policy`` plays at ``stage`` of ``spec``, resolved once into plain
    data that :func:`act` evaluates.

    Equilibrium and optimizing-leader play, and an imitator at stage 1, do
    not depend on what the stage observes: they resolve to their investment,
    a float already clamped to [0, endowment]. A responder resolves to its
    :class:`ResponseModel`, and an imitator at a later stage to the
    :class:`Imitator` itself.
    """
    if isinstance(policy, EquilibriumPolicy):
        played = spec if policy.use_joy_of_winning else replace(spec, joy_of_winning=0.0)
        value = solve_spne(played).scaled_stage_investments[stage - 1]
    elif isinstance(policy, EmpiricalResponder):
        if stage < 2:
            raise RoleObservationMismatch(
                "a responder needs at least one earlier stage to respond to"
            )
        return policy.model
    elif isinstance(policy, Imitator):
        if stage > 1:
            return policy
        value = policy.fallback
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

    ``observed`` must contain exactly the investments from strictly earlier
    stages, in player order. Any randomness (responder noise) is drawn from
    ``rng``; deterministic policies never touch it. The policy is resolved
    (:func:`_policy_rule`) on the first call with this policy object, spec
    object and stage, and reused after that, so a session resolves each of
    its policies once.
    """
    key = (id(policy), id(spec), stage)
    entry = _RESOLVED.get(key)
    if entry is None:
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
    if isinstance(rule, float):
        return rule
    if isinstance(rule, ResponseModel):
        m1, m2 = _observation_inputs(spec.sequence, stage, observed)
        return eval_response(rule, m1, m2, endowment=spec.endowment, rng=rng)
    # an imitator past stage 1: the clamped mean of what it observes
    return float(min(max(math.fsum(observed) / len(observed), 0.0), spec.endowment))


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


def _in_digits(key) -> bool:
    """Whether ``key`` spells a whole number of at least 1 in ASCII digits,
    without the sign, space, separator, leading zero or non-ASCII digit that
    ``int()`` would accept."""
    return isinstance(key, str) and key.isascii() and key.isdigit() and key[0] != "0"


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
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            # bad JSON, a file, model map or stage key of the wrong shape or
            # type, or a model the parser refuses
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
        counts = seq_key.split(",")
        if not all(map(_in_digits, counts)):
            raise ContestError(
                "a move-sequence key must be stage counts in digits joined by commas, "
                f"got {seq_key!r}"
            )
        seq = MoveSequence(tuple(map(int, counts)))
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
    "imitator": ("kind", "fallback"),
    "optimizing-leader": ("kind", "models", "joy_of_winning"),
}


def policy_from_config(entry: Mapping, spec: ContestSpec, player: int) -> BehaviorPolicy:
    """Build a policy from one JSON config entry for the given player slot.

    Kinds, matched exactly: "spne", "jow-spne", "responder", "imitator",
    "optimizing-leader". Responder and leader entries may omit "model"/"models"
    to use the bundled presets for the session's treatment. A leader's optimum
    is solved here, so models it cannot use are an error. An entry may hold
    only the keys its kind reads, and its numbers must be JSON numbers.
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
    if kind == "responder":
        stage = seq.stage_of_player(player)
        if "model" in entry:
            model = _model_from_dict(entry["model"])
        else:
            bundled = default_response_models(seq)
            if stage not in bundled:
                raise ContestError(
                    f"no bundled response model for a responder at stage {stage} "
                    f"of treatment {seq.label()}"
                )
            model = bundled[stage]
        if "noise_sd" in entry:
            model = replace(model, noise_sd=_json_number(entry["noise_sd"], "noise_sd"))
        return EmpiricalResponder(model)
    if kind == "imitator":
        return Imitator(fallback=_json_number(entry.get("fallback", 0.0), "fallback"))
    # an optimizing leader
    if "models" in entry:
        models = _stage_models(entry["models"])
    else:
        models = default_response_models(seq)
    jow = _json_number(entry.get("joy_of_winning", spec.joy_of_winning), "joy_of_winning")
    # solved now, so that a treatment or models it cannot use are a config error
    _leader_optimum(spec, tuple(sorted(models.items())), jow)
    return OptimizingLeader(models=models, joy_of_winning=jow)
