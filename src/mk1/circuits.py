"""A finite generating set acting on leading letters, and word synthesis.

Each generator is an ordinary table that reads and rewrites a short prefix
of its input, leaving the tail alone:

* ``and`` / ``or`` — consume two letters, emit one; the first alphabet
  letter plays the role of "true".
* ``not`` — flip the first letter between letter 0 and letter 1 (every
  other letter maps to letter 0).
* ``fork`` — duplicate the first letter.
* ``proj2`` — drop the first of two letters.
* ``E1`` .. ``Ek`` — equality probes: ``Ei`` replaces the first letter by
  letter 1 when it equals letter i-1, by letter 0 otherwise.
* ``guard`` — the partial identity killing inputs whose first letter is
  letter 0.
* ``tau(i)`` — swap input positions i and i+1 (1-based).

A generator word is a list of such tokens, applied right to left like
function composition.  Its length charges 1 per gate and i+1 per tau(i).
That is the width of the gate's table, the letters it reads, except for
``and``, ``or`` and ``proj2``, which read two letters but charge 1.
:func:`eval_generator_word` builds each distinct gate's table once, then
folds the word from the right, pushing the product of the tokens that act
first through one short gate table at a time.

:func:`synthesize_partial_identity` compiles, for any target word s, a
generator word evaluating to the partial identity on all length-|s| words
except s.  The construction probes each input position against the
corresponding letter of s, OR-combines the probe flags (the flag stays at
letter 0 exactly on input s), then negates, guards, and discards the flag.
"""

from __future__ import annotations

import re

from .elements import Mk1Element, compose, fiber_offsets, identity_element
from .errors import BaseTooSmall, EmptyTarget, TooLarge, UnknownGate
from .words import Word, check_letters, words_of_length

_TAU = re.compile(r"^tau\(([0-9]+)\)$")
_PROBE = re.compile(r"^E([0-9]{1,18})$")


def gate_element(k: int, token: str) -> Mk1Element:
    """A generator's table: one row for each word of the level it reads (2
    letters for and/or/proj2, i+1 for tau(i), else 1), listed by
    ``words_of_length``, which refuses a level past 2^20 words unbuilt."""
    if token == "and":
        rows = ((w, (0,) if w == (0, 0) else (1,)) for w in words_of_length(k, 2))
    elif token == "or":
        rows = ((w, (0,) if 0 in w else (1,)) for w in words_of_length(k, 2))
    elif token == "not":
        rows = ((w, (1,) if w == (0,) else (0,)) for w in words_of_length(k, 1))
    elif token == "fork":
        rows = ((w, w + w) for w in words_of_length(k, 1))
    elif token == "proj2":
        rows = ((w, w[1:]) for w in words_of_length(k, 2))
    elif token == "guard":
        rows = ((w, w) for w in words_of_length(k, 1) if w != (0,))
    elif m := _PROBE.match(token):
        c = int(m.group(1))
        if not 1 <= c <= k:
            raise UnknownGate(f"probe {token} needs an alphabet of at least {c} letters"
                              if c else f"probes count from 1, got {token}")
        rows = ((w, (1,) if w == (c - 1,) else (0,)) for w in words_of_length(k, 1))
    elif _TAU.match(token):
        i = token_length(token) - 1
        if i < 1:
            raise UnknownGate("tau positions are 1-based")
        rows = ((w, w[: i - 1] + (w[i], w[i - 1])) for w in words_of_length(k, i + 1))
    else:
        raise UnknownGate(f"unknown generator {token!r}")
    return Mk1Element.make(k, rows)


def token_length(token: str) -> int:
    if m := _TAU.match(token):
        if len(m.group(1)) > 18:  # int() refuses past 4300 digits
            raise TooLarge(f"a tau position of {len(m.group(1))} digits is out of reach")
        return int(m.group(1)) + 1
    return 1


def generator_length(tokens: list[str]) -> int:
    return sum(token_length(t) for t in tokens)


def parse_generator_word(text: str) -> list[str]:
    return [t for t in text.replace(",", " ").split() if t]


def eval_generator_word(k: int, tokens: list[str]) -> Mk1Element:
    """Compose the generator tables, rightmost token acting first.

    Each distinct token's table is built once, in token order, before any
    is composed, so the first bad token raises.  The program is then folded
    from the right, ``acc = gate ∘ acc``: each step sorts only the short
    gate's domain and pushes the product of the tokens that act first
    through it, and those products stay smaller than the prefix products
    on synthesized programs."""
    gates: dict[str, Mk1Element] = {}
    for token in tokens:
        if token not in gates:
            gates[token] = gate_element(k, token)
    acc = identity_element(k)
    for token in reversed(tokens):
        acc = compose(gates[token], acc)
    return acc


def synthesize_partial_identity(k: int, target: Word) -> list[str]:
    """A generator word for the partial identity on A^m minus {target}."""
    if k < 2:
        raise BaseTooSmall(f"alphabet size must be at least 2, got {k}")
    target = tuple(target)
    m = len(target)
    if m == 0:
        raise EmptyTarget("target word must be nonempty")
    check_letters(k, (target,))
    prog: list[str] = []
    for i in range(1, m + 1):
        if i > 1:
            # x_i sits at position i+1 behind the flag and x_1..x_{i-1}.
            prog.extend(f"tau({p})" for p in range(i, 0, -1))
        prog.append("fork")
        prog.append(f"E{target[i - 1] + 1}")
        if i > 1:
            prog.append("tau(2)")
            prog.append("or")
            prog.extend(f"tau({p})" for p in range(2, i + 1))
    prog.extend(["not", "guard", "proj2"])
    return list(reversed(prog))


def length_bound_check(k: int, tokens: list[str], factor: int = 2) -> bool:
    """Every image word has a preimage within |image| + factor*word-length."""
    e = eval_generator_word(k, tokens)
    bound = factor * generator_length(tokens)
    # z's shortest preimage has length |z| + its fiber's least offset |x| - |y|
    return all(min(offsets) <= bound for _, offsets in fiber_offsets(e))
