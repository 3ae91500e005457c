"""Session logs: records, their column store and the CSV and JSON codec,
which read and write a log without the session engine (``simulate``).

Logs. A :class:`RoundRecord` is a frozen dataclass on a tuple of its 11
cells, and ``simulate.play_round`` and :func:`load_log` build each one in C
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
(``_SESSION_PARAMETERS``) that configs and ``simulate.SessionConfig`` use.

Column store. A log keeps one private store, outside its fields: a copy of
the records it was read from and their group, round, triad, stage and
investment columns, in which ``stats`` also keeps what it derives from them.
:func:`_columns` hands it out, and ``_seed_store`` alone sets it, for two
callers: ``simulate.run_session``, with the columns it lays out once the
session is played (``array('q')`` s, by repetition, and an ``array('d')`` of
investments), and :func:`load_log`, with the columns it has checked. The
store holds while ``records`` is ``==`` its copy, compared in C, so a record
replaced by an equal one keeps it; after any other edit, and in a log made by
``replace``, ``copy``, ``pickle`` or by hand, the records are read once
(``_transpose``) into a new store, on first use. So is a log cut by
``stats.last_rounds``, a ``replace`` with the kept records.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import operator
import os
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Mapping, NamedTuple, Sequence

from . import _LAZY_EXPORTS
from .core import (
    ContestError, ContestSpec, MoveSequence, _check_schema, _is_whole, _json_bool, _json_number,
    _whole_number,
)

__all__ = list(_LAZY_EXPORTS["log"])


def _json_optional(value, name: str) -> float | None:
    return None if value is None else _json_number(value, name)


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
# endowment and joy_of_winning (and checks their ranges), simulate.SessionConfig
# and SessionLog the others, the run parameters.
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


@dataclass
class SessionLog:
    """All round records of one session plus the metadata to interpret them.

    ``rng_layout`` is the draw order (``simulate`` module docstring) the
    records were played in: its meta's for a log read back, 1 where the meta
    names none. Its column store (module docstring) is not a field, so ``==``,
    ``repr``, ``replace``, copies and pickles do not see it.
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

    def __getstate__(self) -> dict:
        # pickle, copy and deepcopy leave the store out
        return {name: value for name, value in self.__dict__.items() if name != "_store"}


def _columns(log_or_records) -> dict:
    """The column store of a log, read again unless its records equal the
    store's copy, or a new one of an iterable of records."""
    if not isinstance(log_or_records, SessionLog):
        return _stored(_transpose(log_or_records))
    if log_or_records._store is None or log_or_records.records != log_or_records._store[0]:
        _seed_store(log_or_records, _columns(log_or_records.records))
    return log_or_records._store[1]


def _seed_store(log: SessionLog, columns: dict) -> SessionLog:
    """Give ``log`` a store of ``columns``, which its records hold (module
    docstring), and return the log."""
    log._store = (log.records[:], columns)
    return log


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


def _session_values(session) -> dict:
    """Every session parameter of ``session``, a config or a log, read from its
    spec or itself, as a log holds it; a value no log can hold raises."""
    return {
        name: check(getattr(session.spec if name in _SPEC_PARAMETERS else session, name), name)
        for name, (check, _) in _SESSION_PARAMETERS.items()
    }


def _rng_layout(value) -> int:
    if not (_is_whole(value) and value in (1, 2)):
        raise ContestError(f"rng_layout must be 1 or 2, got {value!r}")
    return value


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
        if not {"0", "1"}.issuperset(column):
            bad = next(cell for cell in column if cell not in ("0", "1"))
            raise ContestError(f"{name} must be 0 or 1, got {bad!r}")
        return list(map("1".__eq__, column))
    cells = _csv_numbers(column, kind is _OPTIONAL)
    if cells is None:
        bad = next(cell for cell in column if _csv_numbers([cell], kind is _OPTIONAL) is None)
        raise ContestError(f"{name} cells must be JSON numbers, got {bad!r}")
    return _json_cells(kind, cells, name)


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
    stages, layout = list(log.sequence.stages), _rng_layout(log.rng_layout)
    meta = {"schema": 1, "sequence": stages, **_session_values(log), "rng_layout": layout}
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
    (``simulate.session_config_from_dict``), and rng_layout, the JSON integer 1
    or 2 (a log written before layout 2 names none: it reads as 1). Every
    record has exactly the 11 log columns, as JSON keys or CSV cells (blank CSV lines are
    skipped), each checked column by column (``_COLUMNS``), with every float
    cell finite. A CSV cell is read as a JSON number (an empty m1 or m2 as
    null), so ``+1``, ``07``, ``.5``, ``1_0``, a space or a non-ASCII digit
    is refused as a JSON log refuses it, and a CSV ``won`` is 0 or 1.
    A CSV without its leading meta line, or a log whose meta or records have
    the wrong shape or nest too deeply, raises :class:`ContestError` naming
    the file, and a run manifest raises :class:`NotASessionLog`.
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
            cells, read = map(operator.itemgetter(*CSV_COLUMNS), rows), _json_cells
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
            cells, read = rows, _csv_cells
        _check_widths(rows)
        columns = [
            read(kind, column, name)
            for (name, kind), column in zip(_COLUMNS.items(), _transpose(cells))
        ]
        _check_finite(columns)
        log = _log_from_meta(meta, list(map(tuple.__new__, repeat(RoundRecord), zip(*columns))))
        return _seed_store(log, _stored(columns))
    except NotASessionLog:
        raise
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        # bad or too deep JSON, a meta or record of the wrong shape, type or value
        # (a null or non-numeric cell, a short or long record), an unsupported schema
        raise ContestError(f"malformed log {path}: {type(exc).__name__}: {exc}") from exc
