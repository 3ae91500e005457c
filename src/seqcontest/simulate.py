"""Replay of the laboratory protocol with programmatic agents.

A session runs fixed matching groups of 9 subjects (3 per player role) for a
number of identical rounds. Each round every group is partitioned uniformly
at random into 3 role-complete triads; triads play the contest with stages
revealed in order, one winner is drawn per triad, and payoffs are booked.
Every (group, session) pair owns its own counter-based random stream derived
from the master seed, so logs are bit-identical across reruns and independent
of scheduling.

Draw order. Each group's stream (Philox keyed on the session seed and the
group index) is consumed in this order, and the order is part of the log
format: a change to it changes every log written from a given seed.

* Each round, in role order, one shuffle of the three subjects holding that
  role (the draws of ``rng.permutation(3)``); triad k takes the k-th entry.
* Then, per triad in order, one ``standard_normal`` per responder with
  positive ``noise_sd``, in player order, and one ``random()`` that draws
  the winner (:func:`seqcontest.core.draw_winner`).

Each triad is one :func:`play_round`, which plays and books it in one pass
over the stages: each player's role (stage, slot and the (m1, m2) its stage
observes) is noted as the player acts, and the records are built from those
roles once the winner is drawn and payoffs are booked. Its ``act`` calls
resolve a policy (``behavior._policy_rule``) only on the first call for that
policy, spec and stage, so a session resolves its policies once; only
responder noise and the winner draw touch the stream inside a triad.

Logs. Records are slotted frozen :class:`RoundRecord` s. The log is written
and read column by column, through one table (``_COLUMNS``) that gives each
column its JSON check, CSV parser and JSON and CSV spellings:
:func:`export_log` spells each column in one pass and fills one template per
record, and :func:`load_log` checks each column in one pass and builds the
records from the columns. The files are exactly what ``json.dumps(...,
indent=1)`` and ``csv.writer`` write. The meta is written and read through
the table of session parameters (``_SESSION_PARAMETERS``) that configs use.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import operator
import os
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

from .core import (
    ContestError,
    ContestSpec,
    MoveSequence,
    _check_schema,
    _json_bool,
    _json_number,
    _known_keys,
    _whole_number,
    draw_winner,
    round_payoffs,
)
from .behavior import BehaviorPolicy, _observation_inputs, act, policy_from_config

__all__ = [
    "BadGroupComposition",
    "NotASessionLog",
    "RoundRecord",
    "SessionConfig",
    "SessionLog",
    "play_round",
    "run_session",
    "run_batch",
    "export_log",
    "load_log",
    "session_config_from_dict",
]

SUBJECTS_PER_ROLE = 3


def _json_optional(value, name: str) -> float | None:
    return None if value is None else _json_number(value, name)


def _csv_optional(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _csv_bit(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ContestError(f"won must be 0 or 1, got {cell!r}")
    return cell == "1"


def _json_optional_cell(value) -> str:
    return "null" if value is None else float.__repr__(value)


def _csv_optional_cell(value) -> str:
    return "" if value is None else float.__repr__(value)


class _Column(NamedTuple):
    json_check: Callable  # (JSON value, column name) -> cell
    csv_parse: Callable  # CSV cell -> cell
    json_text: Callable  # cell -> JSON text
    csv_text: Callable  # cell -> CSV cell


# Cells are spelt as json and csv spell them: int.__repr__ and float.__repr__
# (not repr, which a numpy float subclass overrides), None as null or an
# empty cell, a bool as true/false or 1/0.
_INT = _Column(_whole_number, int, int.__repr__, int.__repr__)
_FLOAT = _Column(_json_number, float, float.__repr__, float.__repr__)
_OPTIONAL = _Column(_json_optional, _csv_optional, _json_optional_cell, _csv_optional_cell)
_BOOL = _Column(_json_bool, _csv_bit, ("false", "true").__getitem__, ("0", "1").__getitem__)

# The log columns in file order; the float cells must also be finite.
# RoundRecord has the same fields, in the same order.
_COLUMNS = {
    "group": _INT,
    "round": _INT,
    "triad": _INT,
    "subject": _INT,
    "stage": _INT,
    "slot": _INT,
    "m1": _OPTIONAL,
    "m2": _OPTIONAL,
    "investment": _FLOAT,
    "won": _BOOL,
    "payoff": _FLOAT,
}
CSV_COLUMNS = tuple(_COLUMNS)
_FINITE = [i for i, kind in enumerate(_COLUMNS.values()) if kind in (_FLOAT, _OPTIONAL)]


class BadGroupComposition(ContestError):
    """Matching groups cannot be formed for this configuration."""


class NotASessionLog(ContestError):
    """The file is a run manifest, not a session log."""


@dataclass(frozen=True, slots=True, init=False)
class RoundRecord:
    """One subject-round observation.

    ``stage``/``slot`` locate the subject's role (stage of play, position
    within the stage); ``m1``/``m2`` are the prior investments the subject's
    stage observes, encoded as in the response models: m1 is the (average)
    first-stage investment, m2 the second-stage investment for third movers.
    Both are None where the treatment reveals nothing.
    """

    group: int
    round: int
    triad: int
    subject: int
    stage: int
    slot: int
    m1: float | None
    m2: float | None
    investment: float
    won: bool
    payoff: float

    def __init__(
        self, group, round, triad, subject, stage, slot, m1, m2, investment, won, payoff
    ):
        # each slot set through its descriptor: a frozen dataclass's own
        # __init__ goes through object.__setattr__ once per field
        _set_group(self, group)
        _set_round(self, round)
        _set_triad(self, triad)
        _set_subject(self, subject)
        _set_stage(self, stage)
        _set_slot(self, slot)
        _set_m1(self, m1)
        _set_m2(self, m2)
        _set_investment(self, investment)
        _set_won(self, won)
        _set_payoff(self, payoff)


(
    _set_group, _set_round, _set_triad, _set_subject, _set_stage, _set_slot,
    _set_m1, _set_m2, _set_investment, _set_won, _set_payoff,
) = (getattr(RoundRecord, column).__set__ for column in CSV_COLUMNS)
_record_cells = operator.attrgetter(*CSV_COLUMNS)


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce one session run."""

    spec: ContestSpec
    policies: tuple[BehaviorPolicy, ...]
    groups: int
    rounds: int = 25
    integer_rounding: bool = False
    seed: int = 0

    def __post_init__(self):
        n = self.spec.sequence.n_players
        if len(self.policies) != n:
            raise BadGroupComposition(
                f"need one policy per player ({n}), got {len(self.policies)}"
            )
        if self.groups < 1 or self.rounds < 1:
            raise BadGroupComposition("groups and rounds must be at least 1")
        if self.seed < 0:
            raise ContestError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class SessionLog:
    """All round records of one session plus the metadata to interpret them."""

    spec: ContestSpec
    groups: int
    rounds: int
    integer_rounding: bool
    seed: int
    records: list[RoundRecord] = field(default_factory=list)

    @property
    def sequence(self) -> MoveSequence:
        return self.spec.sequence


def play_round(
    policies: Sequence[BehaviorPolicy],
    spec: ContestSpec,
    rng: np.random.Generator,
    *,
    integer_rounding: bool = False,
    group: int = 1,
    round_number: int = 1,
    triad: int = 1,
    subjects: Sequence[int] = (1, 2, 3),
) -> list[RoundRecord]:
    """Play one triad through all stages, draw the winner, book payoffs.

    Stage t actors observe exactly the investments from stages before t.
    ``rng`` is consumed as the module docstring sets out for one triad.
    """
    seq = spec.sequence
    n = seq.n_players
    if len(policies) != n or len(subjects) != n:
        raise BadGroupComposition("one policy and one subject id per player slot")

    investments: list[float] = []
    roles = []  # (stage, slot, m1, m2) of each player, in player order
    for stage, count in enumerate(seq.stages, start=1):
        observed = list(investments)
        m1, m2 = _observation_inputs(seq, stage, observed)
        for slot in range(1, count + 1):
            x = act(policies[len(investments)], spec, stage, observed, rng)
            if integer_rounding:
                # lab rule: whole points only; round half to even, then clamp
                x = float(min(max(round(x), 0), int(spec.endowment)))
            investments.append(x)
            roles.append((stage, slot, m1, m2))

    winner = draw_winner(investments, float(rng.random()))
    payoffs = round_payoffs(spec, investments, winner).tolist()
    return [
        RoundRecord(
            group, round_number, triad, int(subject), stage, slot, m1, m2, x, i == winner, paid
        )
        for i, (subject, (stage, slot, m1, m2), x, paid) in enumerate(
            zip(subjects, roles, investments, payoffs)
        )
    ]


def _group_rng(seed: int, group_index: int) -> np.random.Generator:
    # counter-based Philox keyed on (seed, group): reproducible regardless of
    # execution order across groups
    import numpy as np  # here, so that importing the package does not load it

    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(group_index,)))
    )


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
    log = SessionLog(
        spec=config.spec,
        groups=config.groups,
        rounds=config.rounds,
        integer_rounding=config.integer_rounding,
        seed=config.seed,
    )
    for g in range(config.groups):
        rng = _group_rng(config.seed, g)
        base_subject = g * n * SUBJECTS_PER_ROLE
        for round_number in range(1, config.rounds + 1):
            matching = [list(range(SUBJECTS_PER_ROLE)) for _ in range(n)]
            for order in matching:
                rng.shuffle(order)
            for triad in range(1, SUBJECTS_PER_ROLE + 1):
                subjects = [
                    base_subject + r * SUBJECTS_PER_ROLE + matching[r][triad - 1] + 1
                    for r in range(n)
                ]
                log.records.extend(
                    play_round(
                        config.policies,
                        config.spec,
                        rng,
                        integer_rounding=config.integer_rounding,
                        group=g + 1,
                        round_number=round_number,
                        triad=triad,
                        subjects=subjects,
                    )
                )
    return log


def _derived_seed(seed: int, replication: int) -> int:
    import numpy as np

    stream = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return int(stream.generate_state(1, dtype=np.uint64)[0])


def run_batch(
    configs: Sequence[SessionConfig],
    replications: int = 1,
) -> list[SessionLog]:
    """Run each config ``replications`` times with independently derived
    seeds. Results come back in (config, replication) order.
    """
    if replications < 1:
        raise ContestError("replications must be at least 1")
    jobs = [
        replace(config, seed=_derived_seed(config.seed, rep))
        for config in configs
        for rep in range(replications)
    ]
    return [run_session(job) for job in jobs]


# ---------------------------------------------------------------------------
# Log serialization
# ---------------------------------------------------------------------------

# first line of a CSV log; the session meta follows it as one line of JSON
CSV_META_PREFIX = "# seqcontest-log "


def write_files(files) -> None:
    """Write each ``(path, text)`` pair of ``files``, all or none: each text
    goes to a uniquely named sibling temp file opened for exclusive creation
    (so concurrent writers never share one, and its mode follows the umask),
    and the temp files are renamed into place only after all are written. On
    any error they are removed. A generator ``files`` builds each text only
    after the one before it is written and released.
    """
    staged = []
    try:
        for path, text in files:
            path = os.fspath(path)
            if os.path.isdir(path):
                # os.replace would fail only at the rename, after earlier renames
                raise IsADirectoryError(f"{path} is a directory")
            tmp = f"{path}.{os.urandom(8).hex()}.tmp"
            with open(tmp, "x", encoding="utf-8", newline="") as fh:
                staged.append((tmp, path))
                fh.write(text)
            del text  # not held while the next text is built
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise


# The session parameters in log-meta order, each with its JSON check and its
# default in a session config. prize, endowment and joy_of_winning are held by
# the ContestSpec, the others by SessionConfig and SessionLog.
_SESSION_PARAMETERS = {
    "prize": (_json_number, 240.0),
    "endowment": (_json_number, 240.0),
    "joy_of_winning": (_json_number, 0.0),
    "groups": (_whole_number, 1),
    "rounds": (_whole_number, 25),
    "integer_rounding": (_json_bool, False),
    "seed": (_whole_number, 0),
}
_SPEC_PARAMETERS = [f.name for f in fields(ContestSpec) if f.name != "sequence"]
_META_KEYS = {"schema", "sequence", *_SESSION_PARAMETERS}


def _session(raw: Mapping, stages_key: str) -> tuple[ContestSpec, dict]:
    """The spec and run parameters of a config or meta ``raw`` that holds
    every session parameter, with its stage counts under ``stages_key``."""
    sequence = MoveSequence(
        tuple(_whole_number(k, f"a {stages_key} stage count") for k in raw[stages_key])
    )
    run = {name: check(raw[name], name) for name, (check, _) in _SESSION_PARAMETERS.items()}
    return ContestSpec(sequence, **{name: run.pop(name) for name in _SPEC_PARAMETERS}), run


def _log_meta(log: SessionLog) -> dict:
    meta = {"schema": 1, "sequence": list(log.sequence.stages)}
    for name in _SESSION_PARAMETERS:
        meta[name] = getattr(log.spec if name in _SPEC_PARAMETERS else log, name)
    return meta


def _log_from_meta(meta: Mapping, records: list[RoundRecord]) -> SessionLog:
    _check_schema(meta, "log")
    if meta.keys() != _META_KEYS:
        raise ContestError(f"the meta keys must be {sorted(_META_KEYS)}, got {sorted(meta)}")
    spec, run = _session(meta, "sequence")
    return SessionLog(spec=spec, **run, records=records)


def _check_finite(columns) -> None:
    # filter(None, ...) drops the None cells of m1 and m2 (and zeros, which
    # are finite)
    for i in _FINITE:
        if not all(map(math.isfinite, filter(None, columns[i]))):
            raise ContestError(f"{CSV_COLUMNS[i]} cells must be finite")


def _check_widths(rows) -> None:
    for number, width in enumerate(map(len, rows), start=1):
        if width != len(CSV_COLUMNS):
            raise ContestError(f"record {number} has {width} cells, expected {len(CSV_COLUMNS)}")


def _transpose(rows) -> list:
    """The log columns of ``rows`` of 11 cells each."""
    return list(zip(*rows)) or [()] * len(CSV_COLUMNS)


def _records(columns) -> list[RoundRecord]:
    _check_finite(columns)
    return list(map(RoundRecord, *columns))


# one JSON record, indented as json.dumps(payload, indent=1) indents it
_JSON_RECORD = "  {\n" + ",\n".join(f'   "{c}": %s' for c in CSV_COLUMNS) + "\n  }"


def _log_text(log: SessionLog, format: str) -> str:
    if format not in ("csv", "json"):
        raise ContestError(f"unknown export format {format!r}")
    columns = _transpose(map(_record_cells, log.records))
    _check_finite(columns)
    cells = zip(*[
        map(getattr(kind, f"{format}_text"), column)
        for kind, column in zip(_COLUMNS.values(), columns)
    ])
    meta = _log_meta(log)
    if format == "csv":
        header = CSV_META_PREFIX + json.dumps(meta) + "\n" + ",".join(CSV_COLUMNS) + "\n"
        rows = "\n".join(map(",".join, cells))
        return header + rows + "\n" if rows else header
    records = ",\n".join(map(_JSON_RECORD.__mod__, cells))
    meta_text = json.dumps(meta, indent=1).replace("\n", "\n ")
    records = f"[\n{records}\n ]" if records else "[]"
    return f'{{\n "meta": {meta_text},\n "records": {records}\n}}\n'


def export_log(log: SessionLog, format: str, path) -> None:
    """Write a session log as CSV or JSON through :func:`write_files`.

    Both formats hold the same meta block and records, spelt as ``json`` and
    ``csv`` spell them: a JSON log is ``json.dumps({"meta": ..., "records":
    [...]}, indent=1)``, and a CSV log starts with one ``# seqcontest-log
    {meta JSON}`` line, then the header and one row per record. A non-finite
    m1, m2, investment or payoff, which :func:`load_log` would refuse, raises
    :class:`ContestError` before anything is written.
    """
    write_files([(path, _log_text(log, format))])


def load_log(path) -> SessionLog:
    """Read back a log written by :func:`export_log`.

    The format follows the file name: ``.json`` or else CSV. Both formats go
    through the same meta and record parsing, so a log reads back with its
    full session parameters whichever format it was saved in.
    The meta holds exactly schema (1), sequence (stage counts, JSON
    integers) and the session parameters of ``_SESSION_PARAMETERS``, each
    checked as a session config's is, with no default for a missing one
    (:func:`session_config_from_dict`). Every record has exactly
    the 11 log columns, as JSON keys or CSV cells (blank CSV lines are
    skipped), each checked column by column (``_COLUMNS``), with a CSV
    ``won`` 0 or 1 and every float cell finite.
    A CSV without its leading meta line, or a log whose meta or records have
    the wrong shape, raises :class:`ContestError` naming the file, and a run
    manifest raises :class:`NotASessionLog`.
    """
    path = os.fspath(path)
    try:
        if path.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ContestError("the top level is not a JSON object")
            if "meta" not in payload and {"command", "outputs"} <= payload.keys():
                raise NotASessionLog(f"{path} is a run manifest")
            rows = payload["records"]
            _check_widths(rows)
            columns = _transpose(map(operator.itemgetter(*CSV_COLUMNS), rows))
            records = _records([
                list(map(kind.json_check, column, repeat(name)))
                for (name, kind), column in zip(_COLUMNS.items(), columns)
            ])
            return _log_from_meta(payload["meta"], records)
        with open(path, encoding="utf-8", newline="") as fh:
            first = fh.readline()
            if not first.startswith(CSV_META_PREFIX):
                raise ContestError(f"no {CSV_META_PREFIX.strip()!r} meta line")
            meta = json.loads(first[len(CSV_META_PREFIX):])
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(CSV_COLUMNS):
                raise ContestError(f"unexpected CSV columns {header!r}")
            rows = [row for row in reader if row]
            _check_widths(rows)
            columns = _transpose(rows)
        records = _records([
            list(map(kind.csv_parse, column)) for kind, column in zip(_COLUMNS.values(), columns)
        ])
        return _log_from_meta(meta, records)
    except NotASessionLog:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # bad JSON, a meta or record of the wrong shape, type or value (a null
        # or non-numeric cell, a short or long record), an unsupported schema
        raise ContestError(f"malformed log {path}: {type(exc).__name__}: {exc}") from exc


def session_config_from_dict(raw: Mapping) -> SessionConfig:
    """Build a SessionConfig from one parsed JSON session object.

    Keys: treatment (stage counts, JSON integers), policies (one entry per
    player, see :func:`seqcontest.behavior.policy_from_config`) and the
    session parameters of a log's meta (``_SESSION_PARAMETERS``), each
    checked as :func:`load_log` checks it and defaulted from that table when
    left out; any other key is an error. Nothing is coerced.
    """
    try:
        defaults = {name: default for name, (_, default) in _SESSION_PARAMETERS.items()}
        spec, run = _session({**defaults, **raw}, "treatment")
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
