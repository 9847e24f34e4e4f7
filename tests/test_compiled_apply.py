"""Each order's ``apply`` under the strict ``<`` against the builder's loop,
where no other test reaches it.

Under the strict ``<`` with structural equality and natural-number sums, the
lexicographic builders compare tuples, ``graded`` compares ``sum`` before
the vector order, and a weight matrix sums products column by column.  The
same builder given another equality, or another monoid, runs its generic
loop, which is the definition.  test_families compares the lexicographic
builders with the literal recursion; here the graded orders meet their loop
under another monoid, the weight matrices of the fixtures meet
``weighted_lt``, and every order refuses mismatched lengths with the loop's
exception and message.  The domain is numbers with exact equality, as for
``key``: ints, ``Fraction``s and bools, compared across types.  (One NaN
object in both families is outside it: a tuple comparison takes it as equal
to itself, the loop does not.)
"""

import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gradedorders import (
    LT,
    LengthMismatchError,
    Monoid,
    colex,
    graded,
    grcolex,
    grevlex,
    grlex,
    grsymlex,
    lex,
    load_matrix,
    revlex,
    symlex,
    weighted_lt,
    weighted_relation,
)

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"

LOOP_EQ = lambda a, b: a == b  # noqa: E731 -- not operator.eq, so the loop runs
LOOP_ADD = Monoid(0, operator.add, name="loop+")  # not NAT_ADD, so the fold runs

LEX_BUILDERS = {"lex": lex, "colex": colex, "symlex": symlex, "revlex": revlex}
GRADED_BUILDERS = {"grlex": grlex, "grcolex": grcolex, "grsymlex": grsymlex, "grevlex": grevlex}


def graded_pairs():
    """(compiled, loop) pairs of one graded order each."""
    pairs = {name: (build(LT), build(LT, LOOP_ADD, LOOP_EQ)) for name, build in GRADED_BUILDERS.items()}
    pairs["graded(lt,lex(lt))"] = (graded(LT, lex(LT)), graded(LT, lex(LT, LOOP_EQ), LOOP_ADD))
    return pairs


def order_pairs():
    """(compiled, loop) pairs of the eight named orders and graded(lt,lex(lt))."""
    pairs = {name: (build(LT), build(LT, LOOP_EQ)) for name, build in LEX_BUILDERS.items()}
    pairs.update(graded_pairs())
    return pairs


def weighted_pairs():
    """(compiled, weighted_lt) pairs of each w and flat fixture."""
    pairs = {}
    for path in sorted(FIXTURES.glob("*.txt")):
        w = load_matrix(path)
        loop = lambda x, y, w=w: weighted_lt(w, LT, x, y)  # noqa: E731
        pairs[path.stem] = (weighted_relation(w, LT).apply, loop, w.d)
    return pairs


VALUES = [0, 1, 2, 3, -1, True, False, Fraction(1, 2), Fraction(-5, 3), Fraction(2), Fraction(6, 2)]


def family(rng, d):
    return tuple(rng.choice(VALUES) for _ in range(d))


def as_kind(rng, x, y):
    kind = rng.choice(["tuples", "lists", "mixed"])
    if kind == "lists":
        return list(x), list(y)
    if kind == "mixed":
        return (list(x), y) if rng.random() < 0.5 else (x, list(y))
    return x, y


def random_pairs(rng, d, count):
    """Pairs of families of length d: independent, equal, equal up to the
    types of their components, and differing at one index; as tuples, lists
    or one of each."""
    for _ in range(count):
        x = family(rng, d)
        how = rng.choice(["independent", "equal", "retyped", "one index"])
        if how == "independent":
            y = family(rng, d)
        elif how == "equal":
            y = x
        elif how == "retyped":  # 1 and True, 2 and Fraction(2): equal under ==
            y = tuple(Fraction(v) if rng.random() < 0.5 else v for v in x)
        else:
            y = list(x)
            if d:
                y[rng.randrange(d)] = rng.choice(VALUES)
            y = tuple(y)
        yield as_kind(rng, x, y)


def answer(apply, x, y):
    """The answer with its type, or the type and message of what apply raised."""
    try:
        got = apply(x, y)
    except Exception as exc:  # the length check, on both paths
        return type(exc), str(exc)
    return type(got), got


@pytest.mark.parametrize("name", graded_pairs())
def test_compiled_graded_apply_agrees_with_the_loop(name):
    compiled, loop = graded_pairs()[name]
    assert compiled.apply.__code__ is not loop.apply.__code__
    rng = random.Random(name)
    for d in range(0, 7):
        for x, y in random_pairs(rng, d, 300):
            assert answer(compiled.apply, x, y) == answer(loop.apply, x, y), (x, y)
            assert answer(compiled.apply, y, x) == answer(loop.apply, y, x), (y, x)


@pytest.mark.parametrize("name", order_pairs())
def test_compiled_apply_refuses_mismatched_lengths_as_the_loop_does(name):
    compiled, loop = order_pairs()[name]
    rng = random.Random(f"lengths {name}")
    for d in range(0, 6):
        for e in (d + 1, d + 3):
            x, y = as_kind(rng, family(rng, d), family(rng, e))
            for a, b in ((x, y), (y, x)):
                got = answer(compiled.apply, a, b)
                assert got == answer(loop.apply, a, b)
                assert got[0] is LengthMismatchError, got


@pytest.mark.parametrize("name", weighted_pairs())
def test_compiled_weighted_apply_agrees_with_weighted_lt(name):
    compiled, loop, d = weighted_pairs()[name]
    rng = random.Random(name)
    for x, y in random_pairs(rng, d, 600):
        assert answer(compiled, x, y) == answer(loop, x, y), (x, y)
        assert answer(compiled, y, x) == answer(loop, y, x), (y, x)
    for e in (d - 1, d + 1):
        x, y = as_kind(rng, family(rng, d), family(rng, e))
        for a, b in ((x, y), (y, x)):
            got = answer(compiled, a, b)
            assert got == answer(loop, a, b)
            assert got[0] is LengthMismatchError, got
