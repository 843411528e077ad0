"""The L-order by one section, and the Green orders over related pairs.

``leq_L`` tests f∘s∘g = f with one section s of g (g∘s∘g = g) read off g's
minimal image words, with no fiber partition.  These properties check it
against the fiber-refining reference in ``helpers``, check that the
heights are height functions of the R- and L-orders on pairs built to be
related (f = g∘u, f = u∘g), and time the nested tables on which the fiber
walk was cubic.
"""

import random
import time

from hypothesis import given, settings, strategies as st

from helpers import elements_over, nested_images, random_element, reference_leq_L, related_pairs
from mk1 import elements as elements_module
from mk1 import green
from mk1.elements import compose, zero_element
from mk1.green import _l_section, eq_L, eq_R, heights, leq_L, leq_R

pairs = st.sampled_from((2, 3)).flatmap(related_pairs)


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_L_order_matches_the_fiber_reference(sfg):
    side, f, g = sfg
    assert leq_L(f, g) == reference_leq_L(f, g)
    assert leq_L(g, f) == reference_leq_L(g, f)
    assert eq_L(f, g) == eq_L(g, f) == (reference_leq_L(f, g) and reference_leq_L(g, f))
    assert side != "L" or leq_L(f, g)
    assert side != "R" or leq_R(f, g)
    for e in (f, g):   # the section leq_L composes through
        assert compose(compose(e, _l_section(e)), e) == e.reduced()


def _monotone(leq, eq, h_f, h_g):
    """A height along an order: no larger below, strictly smaller strictly
    below, equal on equivalent pairs."""
    if eq:
        assert h_f == h_g
    elif leq:
        assert h_f < h_g


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_heights_are_height_functions_of_the_R_and_L_orders(sfg):
    _, f, g = sfg
    hf, hg = heights(f), heights(g)
    _monotone(leq_R(f, g), eq_R(f, g), hf.r, hg.r)
    leq, eq = leq_L(f, g), eq_L(f, g)
    _monotone(leq, eq, hf.l, hg.l)
    _monotone(leq, eq, hf.l_max, hg.l_max)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda k: st.tuples(*[elements_over(k)] * 3)))
def test_R_and_L_orders_are_transitive_along_chains(guv):
    g, u, v = guv
    gu, vu = compose(g, u), compose(v, u)
    assert leq_R(compose(gu, v), gu) and leq_R(gu, g) and leq_R(compose(gu, v), g)
    assert leq_L(compose(vu, g), compose(u, g)) and leq_L(compose(u, g), g)
    assert leq_L(compose(vu, g), g)


def test_L_order_builds_no_fibers(monkeypatch):
    """leq_L and eq_L never walk the fibers or build the image-code restriction."""
    rng = random.Random(13)
    gs = [random_element(rng, k) for k in (2, 3) for _ in range(40)]
    pairs = [(compose(random_element(rng, g.k), g) if i % 2 else random_element(rng, g.k), g)
             for i, g in enumerate(gs)] + [(zero_element(2), gs[0]), (gs[-1], zero_element(3))]

    def answers():
        return [(leq_L(f, g), leq_L(g, f), eq_L(f, g)) for f, g in pairs]

    want = answers()
    assert sum(w[0] for w in want) > 20

    def no_fibers(e):
        raise AssertionError("fibers were walked or a restriction was built")

    monkeypatch.setattr(elements_module, "image_code_restriction", no_fibers)
    monkeypatch.setattr(elements_module, "fibers", no_fibers)
    monkeypatch.setattr(green, "fibers", no_fibers)
    assert answers() == want


def test_L_order_of_nested_images_is_fast():
    """1,024 nested images: two compositions, where the fiber walk is cubic."""
    e = nested_images(10)
    started = time.perf_counter()
    assert leq_L(e, e) and eq_L(e, e)
    assert time.perf_counter() - started < 1.0
