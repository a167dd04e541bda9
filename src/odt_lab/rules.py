"""The one rule language of the scenario's settings (config) and the input
tables' columns (network, demand): rules are Annotated metadata on a type, as
in Annotated[float, POSITIVE], and a broken one is one error naming its value."""

from __future__ import annotations

import sys
from dataclasses import dataclass, is_dataclass
from functools import cache
from types import UnionType
from typing import Annotated, Any, Callable, get_args, get_origin


@dataclass(frozen=True)
class Rule:
    """A value keeps the rule if ok(value), else its error says text. On a
    config field, a rule that reads a module name is a constant there, as an
    annotation is evaluated with its class's namespace as globals."""

    ok: Callable[[Any], bool]
    text: str


def at_least(n: int) -> Rule:
    return Rule(lambda v: v >= n, f"must be at least {n}")


def one_of(choices: tuple) -> Rule:
    return Rule(lambda v: v in choices, f"must be one of {', '.join(map(str, choices))}")


POSITIVE = Rule(lambda v: v > 0, "must be positive")
NOT_NEGATIVE = Rule(lambda v: v >= 0, "must not be negative")
# every float, and an int given for a number, before its rules; an int too
# large for a float is refused, and nan breaks every comparison
FINITE = Rule(lambda v: abs(v) <= sys.float_info.max, "must be a finite number")


@cache
def _spec(tp) -> tuple:
    """How a value of type tp is read, worked out once: (the type without
    its rules and `| None`, the rules, whether it may be None, the kind it is
    checked as (dict for a dataclass), a list's item spec)."""
    rules = ()
    if get_origin(tp) is Annotated:
        tp, rules = get_args(tp)[0], tp.__metadata__
    optional = isinstance(tp, UnionType)  # X | None
    if optional:
        tp = get_args(tp)[0]
    kind = dict if is_dataclass(tp) else (get_origin(tp) or tp)
    return tp, rules, optional, kind, _spec(get_args(tp)[0]) if kind is list else None


def _check(rules: tuple[Rule, ...], value, path: str, errors: list[str]) -> None:
    """One error for the first rule a value breaks; null keeps every rule."""
    for rule in rules:
        if value is not None and not rule.ok(value):
            errors.append(f"{path}: {rule.text}, got {value!r}")
            return
