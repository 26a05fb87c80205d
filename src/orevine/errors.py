"""Exception hierarchy shared across the package, and the one rule for the
faults of an input file.

The CLI maps these onto process exit codes: argument/config problems exit
with 2, data/parse/schema problems with 3, numerical fitting failures with 4.

Every file the program reads from outside (model document, scene spec,
volume and label files with their headers, phase slice, dataset CSV) is read
under `file_faults`: a fault of the file is a ParseError that names it, so
exit 3, while an OSError (a path that cannot be opened) passes through and
exits 2.  A value of a JSON file is checked by `json_value`: a number is a
finite JSON int or float, an integer field takes only a JSON int, a flag
only a JSON bool, and a bool never stands for a number.
"""

import csv
import reprlib
import sys
from contextlib import contextmanager

import numpy as np


class OrevineError(Exception):
    """Base class for all package errors."""


class ArgumentError(OrevineError):
    """An argument violates a documented precondition."""


class StructuralError(OrevineError):
    """Inputs are structurally inconsistent (dims mismatch, invalid vine, ...)."""


class FittingError(OrevineError):
    """A numerical fit cannot be carried out (too little data, no support, ...)."""


class ParseError(OrevineError):
    """Malformed external data; message carries a line number where possible."""


class SchemaError(OrevineError):
    """A persisted document has an unknown or incompatible schema version."""


# ValueError covers bad JSON and bytes that are not UTF-8; RecursionError a
# nesting too deep to decode; ArgumentError a value the model classes refuse
FILE_FAULTS = (ValueError, RecursionError, KeyError, TypeError, OverflowError,
               csv.Error, ArgumentError)


@contextmanager
def file_faults(source, where=None):
    """Raise any FILE_FAULTS error of the block as one ParseError that
    starts with `source`, then `where()` (a location such as a line) if
    given.  Other errors, OSError and ParseError included, pass through."""
    try:
        yield
    except FILE_FAULTS as exc:
        fault = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        place = f"{where()}: " if where else ""
        raise ParseError(f"{source}: {place}{fault}") from exc


NUMBER, GRID = "number", "grid"
_KINDS = {NUMBER: ({int, float}, "finite number"), int: ({int}, "integer"),
          bool: ({bool}, "boolean"), dict: ({dict}, "object")}


def json_value(value, what: str, kind=NUMBER, count=None):
    """`value`, read from a JSON file, checked to be of `kind`.

    `kind` is NUMBER (a JSON int or float that a float holds finitely), int
    (a JSON int), bool (a JSON bool) or dict (a JSON object); the types are
    exact, so a bool is never a number.  `count` None takes one value and
    returns it; an int takes a list of that many and returns a tuple; GRID
    takes nested lists of any shape and returns them as a numpy array.  Else
    TypeError naming `what`.
    """
    items = (np.asarray(value, dtype=object).ravel().tolist() if count == GRID
             else [value] if count is None else value)
    types, noun = _KINDS[kind]
    if not (isinstance(items, list) and count in (None, GRID, len(items))
            and set(map(type, items)) <= types
            and (kind != NUMBER or all(abs(x) <= sys.float_info.max for x in items))):
        shape = {None: f"one {noun}", GRID: f"nested lists of {noun}s"}.get(
            count, f"{count} {noun}s")
        raise TypeError(f"{what} must be {shape}, got {reprlib.repr(value)}")
    if count == GRID:
        return np.asarray(value, dtype=float if kind == NUMBER else kind)
    return value if count is None else tuple(items)
