"""Replay of the laboratory protocol with programmatic agents.

A session runs fixed matching groups of 9 subjects (3 per player role) for a
number of identical rounds. Each round every group is partitioned uniformly
at random into 3 role-complete triads; triads play the contest with stages
revealed in order, one winner is drawn per triad, and payoffs are booked.
Every (session seed, group) pair owns its own random stream, so logs are
bit-identical across reruns and independent of the order groups run in.
The records, the log and its files are :mod:`seqcontest.log`'s.

Draw order (``rng_layout`` 2, named in each log's meta). Group g (0-based)
of a session seeded s draws from a ``random.Random`` seeded with the
big-endian integer of the sha256 of ``f"group {s:x} {g:x}"``; :func:`run_batch`
seeds replication r with the first 8 bytes of the sha256 of
``f"replication {s:x} {r:x}"``, read the same way. Every draw is a function
of one u = ``random()`` (a multiple of 2**-53 in [0, 1)), taken in this
order, which is part of the log format:

* each round, in role order, a Fisher-Yates shuffle of the role's three
  subjects (:func:`_shuffle`: for i = 2, then 1, entry i swaps with entry
  ``int(u * (i + 1))``); triad k takes the k-th entry of each;
* then per triad, in player order, one normal per responder with positive
  ``noise_sd``, ``NormalDist().inv_cdf(u)`` with u = 0 read as 2**-54, and
  one u that draws the winner (:func:`seqcontest.core.draw_winner`).

So a round takes 6 + 3 * (n + 1) uniforms for n noisy responders per triad,
a count the config fixes. Python documents that ``random()`` keeps its
sequence for a given seed. ``inv_cdf`` (Wichura's AS241, run in C) is a
rational function of u for |u - 0.5| <= 0.425 and takes ``sqrt`` and the
platform libm's ``log`` in the tails, so a noisy investment can differ in its
last bits between platforms. Logs from before layout 2 (numpy's Philox
streams, layout 1) name no ``rng_layout`` and read back as they are.

Each triad is one :func:`play_round`, which walks the players in order of
play, one step each, along the move sequence's role plan
(``core._role_plan``: each player's stage, slot and number of players before
its stage, derived once per sequence and also read by ``run_session``'s
stage column and by ``act``). When a stage after the first starts, the
investments it observes are taken as one tuple and its (m1, m2) read once
(stage 1 observes nothing: both are None). The triad's investments are
checked once (``core._as_investments``) for ``draw_winner`` and
``round_payoffs``; then each record's eleven cells are built in one tuple.
The ``act`` calls resolve a policy (``behavior._policy_rule``) only on the
first call for that policy, spec and stage, so a session resolves its
policies once; only responder noise and the winner draw touch the stream
inside a triad.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from . import _LAZY_EXPORTS
from .core import (
    ContestError, ContestSpec, _as_investments, _index, _known_keys, _observation_inputs,
    _role_plan, draw_winner, round_payoffs,
)
from .behavior import BehaviorPolicy, act, policy_from_config
# export_log and load_log, out of __all__: the benchmark harness calls them as simulate's
from .log import (
    _DEFAULTS, _RUN_PARAMETERS, _SESSION_PARAMETERS, BadGroupComposition, RoundRecord,
    SessionLog, _count, _seed_store, _session, _session_values, export_log, load_log,
)

__all__ = list(_LAZY_EXPORTS["simulate"])

SUBJECTS_PER_ROLE = 3


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce one session run. The run parameters take
    their defaults from ``_SESSION_PARAMETERS``, and every session parameter,
    the spec's numbers included, is checked by its rule there, as a config's is."""

    spec: ContestSpec
    policies: tuple[BehaviorPolicy, ...]
    groups: int
    rounds: int = _DEFAULTS["rounds"]
    integer_rounding: bool = _DEFAULTS["integer_rounding"]
    seed: int = _DEFAULTS["seed"]

    def __post_init__(self):
        n = self.spec.sequence.n_players
        if len(self.policies) != n:
            raise BadGroupComposition(
                f"need one policy per player ({n}), got {len(self.policies)}"
            )
        _session_values(self)


def play_round(
    policies: Sequence[BehaviorPolicy],
    spec: ContestSpec,
    rng,
    *,
    integer_rounding: bool = False,
    group: int = 1,
    round_number: int = 1,
    triad: int = 1,
    subjects: Sequence[int] = (1, 2, 3),
) -> list[RoundRecord]:
    """Play one triad through all stages, draw the winner, book payoffs.

    Stage t actors observe exactly the investments from stages before t.
    ``rng`` needs only a ``random()`` method returning a float in [0, 1) (a
    ``random.Random`` or a numpy ``Generator``), and is consumed as the module
    docstring sets out for one triad. An id that is not a whole number
    (``core._index``) raises :class:`ContestError` naming its argument.
    """
    seq = spec.sequence
    plan = _role_plan(seq.stages)
    if len(policies) != len(plan) or len(subjects) != len(plan):
        raise BadGroupComposition("one policy and one subject id per player slot")
    group = group if group.__class__ is int else _index(group, "group")
    round_number = (round_number if round_number.__class__ is int
                    else _index(round_number, "round_number"))
    triad = triad if triad.__class__ is int else _index(triad, "triad")

    investments: list[float] = []
    observed, m1, m2 = (), None, None  # what stage 1 observes
    roles = []  # each player's subject, stage, slot, m1 and m2 cells
    for policy, subject, (stage, slot, _) in zip(policies, subjects, plan):
        subject = subject if subject.__class__ is int else _index(subject, "each of subjects")
        if slot == 1 and stage > 1:  # a later stage observes every investment so far
            observed = tuple(investments)
            m1, m2 = _observation_inputs(seq, stage, observed)
        x = act(policy, spec, stage, observed, rng)
        if integer_rounding:
            # lab rule: whole points only; round half to even, then clamp
            x = float(min(max(round(x), 0), int(spec.endowment)))
        investments.append(x)
        roles.append((subject, stage, slot, m1, m2))

    checked = _as_investments(investments)
    winner = draw_winner(checked, rng.random())
    payoffs = round_payoffs(spec, checked, winner)
    records = []  # a loop, which is faster than a comprehension before Python 3.12
    for i, ((subject, stage, slot, m1, m2), x, paid) in enumerate(zip(roles, checked, payoffs)):
        # a record is built in C from its cells, in CSV_COLUMNS order
        cells = (group, round_number, triad, subject, stage, slot, m1, m2, x, i == winner, paid)
        records.append(tuple.__new__(RoundRecord, cells))
    return records


def _hashed(name: str, seed: int, index: int) -> bytes:
    # hex spells an int of any size
    return hashlib.sha256(f"{name} {seed:x} {index:x}".encode()).digest()


def _group_rng(seed: int, group_index: int) -> random.Random:
    """Group ``group_index``'s stream (module docstring)."""
    return random.Random(int.from_bytes(_hashed("group", seed, group_index), "big"))


def _shuffle(order: list, uniform: Callable[[], float]) -> None:
    """Fisher-Yates on draws u of ``uniform()`` in [0, 1) (module
    docstring); ``int(u * (i + 1))`` is at most i."""
    for i in range(len(order) - 1, 0, -1):
        j = int(uniform() * (i + 1))
        order[i], order[j] = order[j], order[i]


def run_session(config: SessionConfig) -> SessionLog:
    """Run all rounds for all matching groups of one session.

    Subjects are numbered 1..9*groups; within each group the first three hold
    player role 1, the next three role 2, the last three role 3, fixed for
    the whole session. Each round the group's 9 subjects are rematched into
    3 triads, one subject per role, uniformly at random.
    """
    seq = config.spec.sequence
    if seq.n_players != SUBJECTS_PER_ROLE:
        raise BadGroupComposition(
            f"the protocol matches groups of 9 into triads of 3; treatment "
            f"{seq.label()} has {seq.n_players} players"
        )
    n = seq.n_players
    log = SessionLog(config.spec, **{name: getattr(config, name) for name in _RUN_PARAMETERS})
    records = log.records
    extend = records.extend
    policies, spec, rounding = config.policies, config.spec, config.integer_rounding
    for g in range(config.groups):
        rng = _group_rng(config.seed, g)
        uniform, group = rng.random, g + 1
        # the subject ids of each role; shuffling them draws what shuffling
        # their indices would
        first = g * n * SUBJECTS_PER_ROLE + 1
        role_subjects = [
            list(range(first + r * SUBJECTS_PER_ROLE, first + (r + 1) * SUBJECTS_PER_ROLE))
            for r in range(n)
        ]
        for round_number in range(1, config.rounds + 1):
            matching = list(map(list.copy, role_subjects))
            for order in matching:
                _shuffle(order, uniform)
            # triad k takes the k-th subject of each role
            for triad, subjects in enumerate(zip(*matching), start=1):
                extend(play_round(
                    policies, spec, rng, integer_rounding=rounding, group=group,
                    round_number=round_number, triad=triad, subjects=subjects,
                ))
    # each record's group, round, triad, stage and investment, in the order
    # played above
    per_round = SUBJECTS_PER_ROLE * n  # records of one group's round
    return _seed_store(log, {
        "group": _repeated(range(1, config.groups + 1), config.rounds * per_round, 1),
        "round": _repeated(range(1, config.rounds + 1), per_round, config.groups),
        "triad": _repeated(range(1, SUBJECTS_PER_ROLE + 1), n, config.groups * config.rounds),
        "stage": _repeated([role[0] for role in _role_plan(seq.stages)], 1, len(records) // n),
        "investment": array("d", [r.investment for r in records]),
    })


def _repeated(values, each: int, times: int) -> array:
    """``values``, each ``each`` times in a row, the whole ``times`` times."""
    out = array("q")
    for value in values:
        out += array("q", [value]) * each
    return out * times


def _derived_seed(seed: int, replication: int) -> int:
    return int.from_bytes(_hashed("replication", seed, replication)[:8], "big")


def run_batch(
    configs: Sequence[SessionConfig],
    replications: int = 1,
) -> list[SessionLog]:
    """Run each config ``replications`` times with independently derived
    seeds. Results come back in (config, replication) order.
    """
    _count(replications, "replications")
    jobs = [
        replace(config, seed=_derived_seed(config.seed, rep))
        for config in configs
        for rep in range(replications)
    ]
    return [run_session(job) for job in jobs]


def session_config_from_dict(raw: Mapping) -> SessionConfig:
    """Build a SessionConfig from one parsed JSON session object.

    Keys: treatment (stage counts, JSON integers), policies (one entry per
    player, see :func:`seqcontest.behavior.policy_from_config`) and the
    session parameters of a log's meta (``_SESSION_PARAMETERS``), each
    checked as :func:`load_log` checks it and defaulted from that table when
    left out; any other key is an error. Nothing is coerced.
    """
    try:
        spec, run = _session({**_DEFAULTS, **raw}, "treatment")
        # checked once the session is known to be an object with a treatment
        _known_keys(raw, ["treatment", "policies", *_SESSION_PARAMETERS], "session")
        policies = tuple(
            policy_from_config(entry, spec, player)
            for player, entry in enumerate(raw["policies"])
        )
        return SessionConfig(spec=spec, policies=policies, **run)
    except ContestError:
        raise
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        # a missing key, or a session, treatment or policy entry of the wrong
        # shape, length or type
        raise ContestError(f"malformed session config: {type(exc).__name__}: {exc}") from exc
