"""The program's JSON: the file reader and writer, and the one kind rule by
which a JSON value fills a field of a config, a dataset option or a checkpoint.

The kind rule: a value must be of its field's JSON kind.  An integer passes
for a float, a bool never passes for a number, and a float must be finite
and fit a double.  A value of another kind, a missing, unreadable or
invalid JSON file, an unknown key and a missing required key are each a
ConfigError, and so is an output file that cannot be written; the
constructors that receive the values own their ranges.
"""

from __future__ import annotations

import inspect
import json
import math
from contextlib import contextmanager
from functools import partial
from typing import get_args, get_origin

from .errors import ConfigError

INT = (int,)
NUMBER = (int, float)
LIST = (list, tuple)
STR = (str,)


def checked(value, kinds: tuple, what: str):
    """``value`` itself when it is an instance of ``kinds`` (never a bool)."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ConfigError(f"{what} must be {names}, got {value!r}")
    return value


def number(value, what: str) -> float:
    """``value`` as a finite float; an integer too large for one, or a NaN or
    infinity (``json.load`` reads those tokens), is a config error."""
    try:
        result = float(checked(value, NUMBER, what))
    except OverflowError:
        raise ConfigError(f"{what} is too large for a float") from None
    if not math.isfinite(result):
        raise ConfigError(f"{what} must be finite, got {result}")
    return result


# The parser of a value by the annotation of the parameter it fills.
PARSERS = {int: partial(checked, kinds=INT), float: number, str: partial(checked, kinds=STR)}


def _parsed(annotation, value, what: str, parsers: dict):
    """``value`` parsed by ``parsers[annotation]``; a ``tuple[X, ...]`` takes a list of ``X``."""
    if get_origin(annotation) is tuple:
        return tuple(_parsed(get_args(annotation)[0], v, what, parsers)
                     for v in checked(value, LIST, what))
    return parsers[annotation](value, what=what)


def arguments(fn, options, what: str, parsers=PARSERS, **given) -> dict:
    """The keyword arguments of ``fn`` from the JSON mapping ``options``.

    Each option is parsed by the annotation of the parameter it fills
    (``_parsed``), a missing one takes ``fn``'s default, and ``given``
    passes as it is (so an option cannot set it).  A non-mapping, an
    unknown key or a missing required one is a ConfigError naming ``what``."""
    if not isinstance(options, dict):
        raise ConfigError(f"{what} must be a mapping, got {type(options).__name__}")
    params = inspect.signature(fn, eval_str=True).parameters
    unknown = options.keys() - (params.keys() - given.keys())
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    args = {name: p.default for name, p in params.items() if p.default is not p.empty}
    args |= {name: _parsed(params[name].annotation, value, name, parsers)
             for name, value in options.items()}
    missing = params.keys() - args.keys() - given.keys()
    if missing:
        raise ConfigError(f"{what} needs {', '.join(map(repr, sorted(missing)))}")
    return args | given


@contextmanager
def writing(path):
    """An OSError while creating or writing the output ``path`` is a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def write_json(path, payload) -> None:
    """``payload`` as indented, key-sorted JSON with a final newline; NaN or ±inf is an error."""
    with writing(path), open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_json(path, what: str):
    """The parsed JSON file at ``path``; a missing, unreadable or invalid
    file is a ConfigError naming ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
