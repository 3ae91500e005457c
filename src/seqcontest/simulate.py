"""Replay of the laboratory protocol with programmatic agents.

A session runs fixed matching groups of 9 subjects (3 per player role) for a
number of identical rounds. Each round every group is partitioned uniformly
at random into 3 role-complete triads; triads play the contest with stages
revealed in order, one winner is drawn per triad, and payoffs are booked.
Every (session seed, group) pair owns its own random stream, so logs are
bit-identical across reruns and independent of the order groups run in.

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
(stage 1 observes nothing: both are None). Each player's record cells up
to its investment are built as it acts, and its won and payoff cells once
the winner is drawn and payoffs are booked. Its ``act`` calls
resolve a policy (``behavior._policy_rule``) only on the first call for that
policy, spec and stage, so a session resolves its policies once; only
responder noise and the winner draw touch the stream inside a triad.

Logs. A :class:`RoundRecord` is a frozen dataclass on a tuple of its 11
cells, and :func:`play_round` and :func:`load_log` build each one in C
(``tuple.__new__``) from its cells. The log is written and read column by
column, through one table (``_COLUMNS``) that gives each column its JSON
cell types and check and its spelling. One writer, ``_log_texts``, serves
:func:`export_log` and ``simulate``: it transposes the records to their
columns in one ``zip``, refuses a column whose cell types (one pass each)
fall outside the reader's (a float subclass passes as a float), spells the
int and float columns (and m1 and m2
when they hold no None) once for all the formats asked for, so ``--format
both`` spells them once per log, and fills one template per record.
:func:`load_log` checks a JSON column in one pass over its cell types and
goes cell by cell only when a type falls outside the column's (to name the
bad cell, or to read a JSON integer in a float column as a float). A CSV
cell is read by JSON's number grammar (an empty m1 or m2 cell as null), a
column in one ``json.loads`` of its joined cells, and then goes through the
same check as a JSON column; ``won`` is 0 or 1. The record widths are
counted in one pass, and the records built from the columns. The files are
exactly what ``json.dumps(..., indent=1)`` and ``csv.writer`` write. The
meta is written and read through the table of session parameters
(``_SESSION_PARAMETERS``) that configs and :class:`SessionConfig` use.

Column store. A log keeps one private store, outside its fields: a copy of
the records it was read from and their group, round, triad, stage and
investment columns (``SessionLog._columns``), in which ``stats`` also keeps
what it derives from them. Only two functions seed a store:
:func:`run_session`, with the columns it lays out once the session is played
(``array('q')`` s, by repetition, and an ``array('d')`` of investments), and
:func:`load_log`, with the columns it has checked. The store holds while
``records`` is ``==`` its copy, compared in C, so a record replaced by an
equal one keeps it; after any other edit, and in a log made by ``replace``,
``copy``, ``pickle`` or by hand, the records are read once (``_transpose``)
into a new store, on first use. So is a log cut by ``stats.last_rounds``, a
``replace`` with the kept records.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import operator
import os
import random
from array import array
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, Mapping, NamedTuple, Sequence

from . import _LAZY_EXPORTS
from .core import (
    ContestError,
    ContestSpec,
    MoveSequence,
    _check_schema,
    _is_whole,
    _json_bool,
    _json_number,
    _known_keys,
    _role_plan,
    _whole_number,
    draw_winner,
    round_payoffs,
)
from .behavior import BehaviorPolicy, _observation_inputs, act, policy_from_config

__all__ = list(_LAZY_EXPORTS["simulate"])

SUBJECTS_PER_ROLE = 3


def _json_optional(value, name: str) -> float | None:
    return None if value is None else _json_number(value, name)


def _csv_bits(column) -> list[bool]:
    if not {"0", "1"}.issuperset(column):
        bad = next(cell for cell in column if cell not in ("0", "1"))
        raise ContestError(f"won must be 0 or 1, got {bad!r}")
    return list(map("1".__eq__, column))


class _Column(NamedTuple):
    json_types: frozenset  # types of the JSON cells that load as they are
    json_check: Callable  # (JSON value, column name) -> cell
    text: Callable | None  # cell other than None -> JSON and CSV text; None for bools


# Cells are spelt as json and csv spell them: int.__repr__ and float.__repr__
# (not repr, which a numpy float subclass overrides), None as null or an
# empty cell, a bool as true/false or 1/0. A JSON integer in a float column
# loads as a float.
_INT = _Column(frozenset({int}), _whole_number, int.__repr__)
_FLOAT = _Column(frozenset({float}), _json_number, float.__repr__)
_OPTIONAL = _Column(frozenset({float, type(None)}), _json_optional, float.__repr__)
_BOOL = _Column(frozenset({bool}), _json_bool, None)
# each format's spelling of None, and of False and True
_SPELLINGS = {"json": ("null", ("false", "true")), "csv": ("", ("0", "1"))}

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
# the columns a log's store holds (module docstring), with their index
_STORED = {
    name: CSV_COLUMNS.index(name) for name in ("group", "round", "triad", "stage", "investment")
}


class BadGroupComposition(ContestError):
    """Matching groups, or a batch of sessions, cannot be formed as configured."""


class NotASessionLog(ContestError):
    """The file is a run manifest, not a session log."""


def _count(value, name: str) -> int:
    if _whole_number(value, name) < 1:
        raise BadGroupComposition(f"{name} must be at least 1, got {value}")
    return value


def _nonnegative(value, name: str) -> int:
    if _whole_number(value, name) < 0:
        raise ContestError(f"{name} must be nonnegative, got {value}")
    return value


# The session parameters in log-meta order, each with its check, (value, name)
# -> the value as a log holds it, and its default. The ContestSpec holds prize,
# endowment and joy_of_winning (and checks their ranges), SessionConfig and
# SessionLog the others, the run parameters.
_SESSION_PARAMETERS = {
    "prize": (_json_number, 240.0),
    "endowment": (_json_number, 240.0),
    "joy_of_winning": (_json_number, 0.0),
    "groups": (_count, 1),
    "rounds": (_count, 25),
    "integer_rounding": (_json_bool, False),
    "seed": (_nonnegative, 0),
}
_SPEC_PARAMETERS = ContestSpec.__slots__[1:]  # every field but the sequence
_RUN_PARAMETERS = [name for name in _SESSION_PARAMETERS if name not in _SPEC_PARAMETERS]
_DEFAULTS = {name: default for name, (_, default) in _SESSION_PARAMETERS.items()}
_META_KEYS = {"schema", "sequence", *_SESSION_PARAMETERS}


@dataclass(frozen=True, init=False, eq=False)
class RoundRecord(NamedTuple):
    """One subject-round observation.

    ``stage``/``slot`` locate the subject's role (stage of play, position
    within the stage); ``m1``/``m2`` are the prior investments the subject's
    stage observes, encoded as in the response models: m1 is the (average)
    first-stage investment, m2 the second-stage investment for third movers.
    Both are None where the treatment reveals nothing.

    A record is a tuple of its cells in ``CSV_COLUMNS`` order, built in C: it
    indexes and iterates as one, and equals and hashes as the plain tuple of
    its cells. It is also a frozen dataclass: setting or deleting a field
    raises :class:`dataclasses.FrozenInstanceError`, and ``replace``,
    ``fields``, ``asdict`` and pickling work as on any dataclass. The log
    writer and a log's column store read records by ``zip(*records)``
    (``_transpose``), all eleven columns in about the time (3 ms per 15k
    records on Python 3.11) that reading four field by field takes.
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


@dataclass
class SessionLog:
    """All round records of one session plus the metadata to interpret them.

    ``rng_layout`` is the draw order (module docstring) the records were
    played in: its meta's for a log read back, 1 where the meta names none.
    Its column store (module docstring) is not a field, so ``==``, ``repr``,
    ``replace``, copies and pickles do not see it.
    """

    spec: ContestSpec
    groups: int
    rounds: int
    integer_rounding: bool
    seed: int
    records: list[RoundRecord] = field(default_factory=list)
    rng_layout: int = 2

    _store = None  # (copy of records, {column name: column})

    @property
    def sequence(self) -> MoveSequence:
        return self.spec.sequence

    def _columns(self) -> dict:
        """The column store, read again unless ``records`` equal its copy."""
        store = self._store
        if store is None or self.records != store[0]:
            store = self._store = (self.records[:], _stored(_transpose(self.records)))
        return store[1]

    def __getstate__(self) -> dict:
        # pickle, copy and deepcopy leave the store out
        return {name: value for name, value in self.__dict__.items() if name != "_store"}


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
    docstring sets out for one triad.
    """
    seq = spec.sequence
    plan = _role_plan(seq.stages)
    if len(policies) != len(plan) or len(subjects) != len(plan):
        raise BadGroupComposition("one policy and one subject id per player slot")

    investments: list[float] = []
    observed, m1, m2 = (), None, None  # what stage 1 observes
    heads = []  # each record's cells up to its investment, in player order
    for policy, subject, (stage, slot, _) in zip(policies, subjects, plan):
        if slot == 1 and stage > 1:  # a later stage observes every investment so far
            observed = tuple(investments)
            m1, m2 = _observation_inputs(seq, stage, observed)
        x = act(policy, spec, stage, observed, rng)
        if integer_rounding:
            # lab rule: whole points only; round half to even, then clamp
            x = float(min(max(round(x), 0), int(spec.endowment)))
        investments.append(x)
        heads.append((group, round_number, triad, int(subject), stage, slot, m1, m2, x))

    winner = draw_winner(investments, rng.random())
    payoffs = round_payoffs(spec, investments, winner)
    records = []  # a loop, which is faster than a comprehension before Python 3.12
    for i, (head, paid) in enumerate(zip(heads, payoffs)):
        # built in C from its cells, in CSV_COLUMNS order
        records.append(tuple.__new__(RoundRecord, head + (i == winner, paid)))
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
        # the subject ids of each role; shuffling them draws what shuffling
        # their indices would
        first = g * n * SUBJECTS_PER_ROLE + 1
        role_subjects = [
            range(first + r * SUBJECTS_PER_ROLE, first + (r + 1) * SUBJECTS_PER_ROLE)
            for r in range(n)
        ]
        for round_number in range(1, config.rounds + 1):
            matching = list(map(list, role_subjects))
            for order in matching:
                _shuffle(order, rng.random)
            # triad k takes the k-th subject of each role
            for triad, subjects in enumerate(zip(*matching), start=1):
                extend(
                    play_round(
                        policies,
                        spec,
                        rng,
                        integer_rounding=rounding,
                        group=g + 1,
                        round_number=round_number,
                        triad=triad,
                        subjects=subjects,
                    )
                )
    # each record's group, round, triad, stage and investment, in the order
    # played above
    per_round = SUBJECTS_PER_ROLE * n  # records of one group's round
    log._store = (records[:], {
        "group": _repeated(range(1, config.groups + 1), config.rounds * per_round, 1),
        "round": _repeated(range(1, config.rounds + 1), per_round, config.groups),
        "triad": _repeated(range(1, SUBJECTS_PER_ROLE + 1), n, config.groups * config.rounds),
        "stage": _repeated([role[0] for role in _role_plan(seq.stages)], 1, len(records) // n),
        "investment": array("d", [r.investment for r in records]),
    })
    return log


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


def _session(raw: Mapping, stages_key: str) -> tuple[ContestSpec, dict]:
    """The spec and run parameters of a config or meta ``raw`` that holds
    every session parameter, with its stage counts under ``stages_key``."""
    sequence = MoveSequence(
        tuple(_whole_number(k, f"a {stages_key} stage count") for k in raw[stages_key])
    )
    run = {name: check(raw[name], name) for name, (check, _) in _SESSION_PARAMETERS.items()}
    return ContestSpec(sequence, **{name: run.pop(name) for name in _SPEC_PARAMETERS}), run


def _session_values(session: SessionConfig | SessionLog) -> dict:
    """Every session parameter of ``session``, read from its spec or itself,
    as a log holds it; a value no log can hold raises."""
    return {
        name: check(getattr(session.spec if name in _SPEC_PARAMETERS else session, name), name)
        for name, (check, _) in _SESSION_PARAMETERS.items()
    }


def _rng_layout(value) -> int:
    if not (_is_whole(value) and value in (1, 2)):
        raise ContestError(f"rng_layout must be 1 or 2, got {value!r}")
    return value


def _log_meta(log: SessionLog) -> dict:
    stages, layout = list(log.sequence.stages), _rng_layout(log.rng_layout)
    return {"schema": 1, "sequence": stages, **_session_values(log), "rng_layout": layout}


def _log_from_meta(meta: Mapping, records: list[RoundRecord]) -> SessionLog:
    _check_schema(meta, "log")
    if meta.keys() - {"rng_layout"} != _META_KEYS:
        raise ContestError(
            f"the meta keys must be {sorted(_META_KEYS)}, and may include rng_layout,"
            f" got {sorted(meta)}"
        )
    spec, run = _session(meta, "sequence")
    layout = _rng_layout(meta.get("rng_layout", 1))  # none before layout 2
    return SessionLog(spec=spec, **run, records=records, rng_layout=layout)


def _check_finite(columns) -> None:
    # filter(None, ...) drops the None cells of m1 and m2 (and zeros, which
    # are finite)
    for i in _FINITE:
        if not all(map(math.isfinite, filter(None, columns[i]))):
            raise ContestError(f"{CSV_COLUMNS[i]} cells must be finite")


def _check_types(columns) -> None:
    """Refuse a cell the reader would not load as it is: each column's cell
    types, collected in one pass, must be among its JSON cell types
    (``_COLUMNS``), a float subclass (``np.float64``) counting as a float."""
    for (name, kind), column in zip(_COLUMNS.items(), columns):
        for bad in set(map(type, column)) - kind.json_types:
            if float not in kind.json_types or not issubclass(bad, float):
                cell = next(cell for cell in column if type(cell) is bad)
                types = " or ".join(sorted(t.__name__ for t in kind.json_types))
                raise ContestError(f"{name} cells must be of type {types}, got {cell!r}")


def _check_widths(rows) -> None:
    widths = list(map(len, rows))
    if widths.count(len(CSV_COLUMNS)) != len(widths):
        number = next(n for n, width in enumerate(widths, start=1) if width != len(CSV_COLUMNS))
        raise ContestError(
            f"record {number} has {widths[number - 1]} cells, expected {len(CSV_COLUMNS)}"
        )


def _transpose(rows) -> list:
    """The log columns of ``rows`` of 11 cells each (records, or cells read
    from a file), in one C call."""
    return list(zip(*rows)) or [()] * len(CSV_COLUMNS)


def _stored(columns) -> dict:
    """The columns of ``columns`` (all 11, in file order) that a log's store
    holds, by name."""
    return {name: columns[i] for name, i in _STORED.items()}


def _json_cells(kind: _Column, column, name: str):
    # the cell types in one pass; only a column with a cell of another type
    # (a bad cell, or a JSON integer in a float column) is checked cell by cell
    if kind.json_types.issuperset(map(type, column)):
        return column
    return [kind.json_check(cell, name) for cell in column]


def _csv_numbers(column, optional: bool) -> list | None:
    """The cells of a CSV ``column`` read by JSON's number grammar (an empty
    cell as null when ``optional``), or None if one is not a JSON number."""
    text = ",".join(column)
    # Only digits, signs, points, exponents and commas pass, so json.loads
    # reads numbers, refusing what JSON does ("+1", "07", ".5"), with no
    # space, literal or container; a cell holding a comma is caught by count.
    if not text.isascii() or text.encode().translate(None, b"0123456789+-.eE,"):
        return None
    if optional and "" in column:
        text = ",".join([cell or "null" for cell in column])
    try:
        cells = json.loads(f"[{text}]")
    except ValueError:
        return None
    return cells if len(cells) == len(column) else None


def _csv_cells(kind: _Column, column, name: str):
    """A CSV column read as a JSON column (:func:`_json_cells`); ``won`` is
    0 or 1."""
    if kind is _BOOL:
        return _csv_bits(column)
    cells = _csv_numbers(column, kind is _OPTIONAL)
    if cells is None:
        bad = next(cell for cell in column if _csv_numbers([cell], kind is _OPTIONAL) is None)
        raise ContestError(f"{name} cells must be JSON numbers, got {bad!r}")
    return _json_cells(kind, cells, name)


def _records(columns) -> list[RoundRecord]:
    _check_finite(columns)
    return list(map(tuple.__new__, repeat(RoundRecord), zip(*columns)))


# one JSON record, indented as json.dumps(payload, indent=1) indents it
_JSON_RECORD = "  {\n" + ",\n".join(f'   "{c}": %s' for c in CSV_COLUMNS) + "\n  }"


def _log_texts(log: SessionLog, formats: Sequence[str]) -> list[str]:
    """The text of ``log`` in each of ``formats`` ("csv" or "json"). Its
    columns are read once, and every int and float cell is spelt once for all
    the formats; each format then spells the bools and m1's and m2's None."""
    for format in formats:
        if format not in _SPELLINGS:
            raise ContestError(f"unknown export format {format!r}")
    columns = _transpose(log.records)
    _check_types(columns)
    _check_finite(columns)
    common = [
        None if kind is _BOOL
        else list(map(kind.text, column)) if kind is not _OPTIONAL
        else [cell if cell is None else float.__repr__(cell) for cell in column]
        for kind, column in zip(_COLUMNS.values(), columns)
    ]
    meta = _log_meta(log)
    texts = []
    for format in formats:
        null, truth = _SPELLINGS[format]
        cells = zip(*[
            map(truth.__getitem__, column) if kind is _BOOL
            else [null if cell is None else cell for cell in spelt] if kind is _OPTIONAL
            else spelt
            for kind, column, spelt in zip(_COLUMNS.values(), columns, common)
        ])
        if format == "csv":
            header = CSV_META_PREFIX + json.dumps(meta) + "\n" + ",".join(CSV_COLUMNS) + "\n"
            rows = "\n".join(map(",".join, cells))
            texts.append(header + rows + "\n" if rows else header)
        else:
            records = ",\n".join(map(_JSON_RECORD.__mod__, cells))
            meta_text = json.dumps(meta, indent=1).replace("\n", "\n ")
            records = f"[\n{records}\n ]" if records else "[]"
            texts.append(f'{{\n "meta": {meta_text},\n "records": {records}\n}}\n')
    return texts


def export_log(log: SessionLog, format: str, path) -> None:
    """Write a session log as CSV or JSON through :func:`write_files`.

    Both formats hold the same meta block and records, spelt as ``json`` and
    ``csv`` spell them: a JSON log is ``json.dumps({"meta": ..., "records":
    [...]}, indent=1)``, and a CSV log starts with one ``# seqcontest-log
    {meta JSON}`` line, then the header and one row per record. A cell that
    :func:`load_log` would refuse or read as another type (an int investment,
    a numpy int group) and a non-finite m1, m2, investment or payoff raise
    :class:`ContestError` naming the column before anything is written.
    """
    write_files([(path, _log_texts(log, [format])[0])])


def load_log(path) -> SessionLog:
    """Read back a log written by :func:`export_log`.

    The format follows the file name: ``.json`` or else CSV. Both formats go
    through the same meta and record parsing, so a log reads back with its
    full session parameters whichever format it was saved in.
    The meta holds exactly schema (1), sequence (stage counts, JSON
    integers) and the session parameters of ``_SESSION_PARAMETERS``, each
    checked as a session config's is, with no default for a missing one
    (:func:`session_config_from_dict`), and rng_layout, the JSON integer 1
    or 2 (a log written before layout 2 names none: it reads as 1). Every
    record has exactly the 11 log columns, as JSON keys or CSV cells (blank CSV lines are
    skipped), each checked column by column (``_COLUMNS``), with every float
    cell finite. A CSV cell is read as a JSON number (an empty m1 or m2 as
    null), so ``+1``, ``07``, ``.5``, ``1_0``, a space or a non-ASCII digit
    is refused as a JSON log refuses it, and a CSV ``won`` is 0 or 1.
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
            meta, rows = payload["meta"], payload["records"]
            _check_widths(rows)
            columns = _transpose(map(operator.itemgetter(*CSV_COLUMNS), rows))
            read = _json_cells
        else:
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
            read = _csv_cells
        columns = [
            read(kind, column, name) for (name, kind), column in zip(_COLUMNS.items(), columns)
        ]
        log = _log_from_meta(meta, _records(columns))
        log._store = (log.records[:], _stored(columns))
        return log
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
