"""The image side read off the image words.

The R-order, the R-height, injectivity and the plep index depend only on
the right ideal the image words generate, so they are read off the minimal
image words (:func:`image_ideal`) without building the image-code
restriction.  These properties compare each with the restriction-based
reference it replaced.
"""

import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    deep_rotation,
    el,
    elements,
    elements_over,
    nested_images,
    plep_pairs,
    plep_tables,
    prefix_free,
    random_element,
    random_nonempty_code,
    random_plep_pair,
    reference_common_image_refinement,
    reference_d_index_M,
    reference_inverse_element,
    reference_is_injective,
    reference_leq_R,
    words,
)
from mk1 import elements as elements_module
from mk1 import green
from mk1.elements import (
    Mk1Element,
    image_code,
    image_ideal,
    inverse_element,
    is_injective,
    zero_element,
)
from mk1.errors import Mk1Error, NotInjective
from mk1.green import d_index_M, eq_R, leq_R
from mk1.plep import (
    common_image_refinement,
    d_index_plep,
    eq_D_plep,
    plep_d_witness,
    plep_element_with_index,
)
from mk1.words import PrefixCode, ideal_ess_eq, is_prefix


@st.composite
def _related(draw, k):
    """Two elements over k letters: independent, or the second drops a row
    of the first or extends one of its images by a letter."""
    f = draw(elements_over(k))
    how = draw(st.sampled_from(("independent", "drop", "extend")))
    if how == "independent" or not f.rows:
        return f, draw(elements_over(k))
    rows = list(f.rows)
    i = draw(st.integers(0, len(rows) - 1))
    x, y = rows.pop(i)
    if how == "extend":
        rows.append((x, y + (draw(st.integers(0, k - 1)),)))
    return f, Mk1Element.make(k, rows)


element_pairs = st.sampled_from((2, 3)).flatmap(_related)


@st.composite
def _injective(draw, k):
    """A table zipping a prefix code onto a prefix code: injective, unless a
    letter appended to one image makes it extend another."""
    domain = prefix_free(draw(st.lists(words(k, min_size=1), min_size=1, max_size=10)))
    images = prefix_free(draw(st.lists(words(k, min_size=1), min_size=len(domain), max_size=10)))
    images = draw(st.permutations(images))
    rows = list(zip(domain, images))
    if draw(st.booleans()):
        x, y = rows.pop()
        rows.append((x, y + (draw(st.integers(0, k - 1)),)))
    return Mk1Element.make(k, rows)


injective_or_not = st.one_of(elements, st.sampled_from((2, 3)).flatmap(_injective))


def outcome(fn, *args):
    """fn's result, or the name and text of the library error it raised."""
    try:
        return fn(*args)
    except Mk1Error as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(elements)
def test_image_ideal_generates_the_image_ideal(e):
    ideal = image_ideal(e)
    assert PrefixCode(ideal.k, ideal.words) == ideal  # passes the checks it skips
    assert ideal.mu == image_code(e).mu
    assert ideal_ess_eq(ideal, image_code(e))
    images = set(e.image_words)
    assert set(ideal.words) <= images
    assert all(any(is_prefix(w, y) for w in ideal.words) for y in images)


@settings(max_examples=400, deadline=None)
@given(element_pairs)
def test_R_order_matches_the_restriction_reference(fg):
    f, g = fg
    assert leq_R(f, g) == reference_leq_R(f, g)
    assert leq_R(g, f) == reference_leq_R(g, f)
    want = reference_leq_R(f, g) and reference_leq_R(g, f)
    assert eq_R(f, g) == eq_R(g, f) == want


@settings(max_examples=400, deadline=None)
@given(injective_or_not)
def test_injectivity_matches_the_restriction_reference(e):
    assert is_injective(e) == reference_is_injective(e)
    assert outcome(inverse_element, e) == outcome(reference_inverse_element, e)


@settings(max_examples=300, deadline=None)
@given(elements)
def test_d_index_M_matches_the_restriction_reference(e):
    assert d_index_M(e) == reference_d_index_M(e)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(plep_tables))
def test_plep_index_matches_the_restriction_reference(e):
    assert d_index_plep(e) == image_code(e).mu.num


# images of one length on each side: the uniform step splits nothing
@example((el(2, ("a", "b"), ("b", "a")), plep_element_with_index(2, 1)))
# uniform images on a common level already: the level step splits nothing
@example((el(2, ("a", "a"), ("ba", "ba")),) * 2)
@settings(max_examples=400, deadline=None)
@given(plep_pairs)
def test_common_image_refinement_matches_the_restriction_reference(pair):
    """One split of each side to its level gives the rows of the two-step
    reference: a split to uniform images, then to a common level."""
    e1, e2 = pair
    want = outcome(reference_common_image_refinement, e1, e2)
    got = outcome(common_image_refinement, e1, e2)
    if isinstance(want, tuple) and isinstance(want[0], Mk1Element):
        assert tuple(r.rows for r in got) == tuple(r.rows for r in want)
    else:
        assert got == want


def test_plep_refinement_of_random_level_pairs_and_the_zero_element():
    rng = random.Random(12)
    for i in range(300):
        e1, e2 = random_plep_pair(rng, 2 + i % 2)
        got = outcome(common_image_refinement, e1, e2)
        want = outcome(reference_common_image_refinement, e1, e2)
        if isinstance(want[0], Mk1Element):
            assert tuple(r.rows for r in got) == tuple(r.rows for r in want)
        else:
            assert got == want and want[0] == "IndexMismatch"
    z = zero_element(2)
    assert outcome(common_image_refinement, z, deep_rotation(3)) == \
        outcome(reference_common_image_refinement, z, deep_rotation(3))


def test_R_side_of_nested_images_is_fast():
    """Nested images are read off once sorted; restricting them is quadratic."""
    e = nested_images(10)
    started = time.perf_counter()
    assert leq_R(e, e) and eq_R(e, e)
    assert not is_injective(e)
    with pytest.raises(NotInjective):
        inverse_element(e)
    assert time.perf_counter() - started < 1.0


def test_R_side_builds_no_restriction(monkeypatch):
    """The R-order, injectivity and the plep index never walk the fibers or
    build the image-code restriction; only the L side needs them."""
    rng = random.Random(21)
    pairs = [(random_element(rng, k), random_element(rng, k)) for k in (2, 3) for _ in range(30)]
    code = random_nonempty_code(rng, 3)
    images = list(code.words)
    rng.shuffle(images)
    injective = [deep_rotation(40), Mk1Element.make(3, zip(code.words, images))]
    plep = [random_plep_pair(rng, 2 + i % 2) for i in range(40)]

    def answers():
        return (
            [(leq_R(f, g), leq_R(g, f), eq_R(f, g), is_injective(f)) for f, g in pairs],
            [(is_injective(e), inverse_element(e)) for e in injective],
            [(d_index_plep(e1), d_index_plep(e2), eq_D_plep(e1, e2),
              outcome(plep_d_witness, e1, e2)) for e1, e2 in plep],
        )

    want = answers()
    assert any(isinstance(w, tuple) and w[0] == "IndexMismatch" for *_, w in want[2])
    assert any(not isinstance(w, tuple) for *_, w in want[2])

    def no_fibers(e):
        raise AssertionError("fibers were walked or a restriction was built")

    monkeypatch.setattr(elements_module, "image_code_restriction", no_fibers)
    monkeypatch.setattr(elements_module, "fibers", no_fibers)
    monkeypatch.setattr(green, "fibers", no_fibers)
    assert answers() == want
