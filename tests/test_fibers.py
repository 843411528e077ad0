"""The fiber walk: one walk of the image trie feeds every fiber reader.

:func:`mk1.elements.fibers` yields each image-code word z with the rows
whose images are prefixes of z.  The fiber partition, the image-code
restriction and the canonical section are read off it.  The same walk
with each image tagged by its rows' offsets, ``fiber_offsets``, feeds the
L-heights, the D-index's L-height cross-check and the length bound, and
the image code is the walk of the bare images; none of them builds the
restriction.  These properties check the walk against the counter-loop
restriction, check the heights and the D-index against the restriction's
explicit rows, check that those readers build no restriction and read
no rows, and time the nested tables on which the restriction is cubic.
The fiber partition skips the walk when the images form a prefix code and
otherwise splits through ``image_code_restriction``; it is checked against
the reference partition on tables of both kinds.
"""

import random
import time
import tracemalloc

from hypothesis import example, given, settings, strategies as st

from helpers import (
    deep_code,
    deep_rotation,
    el,
    elements,
    elements_over,
    heights_from_restriction,
    nested_images,
    random_element,
    reference_image_code_restriction,
    reference_part,
    tables,
)
from mk1 import elements as elements_module, green
from mk1.circuits import length_bound_check, synthesize_partial_identity
from mk1.congruence import noncollision_measure
from mk1.elements import fibers, image_code, image_code_restriction, part, zero_element
from mk1.green import d_index_M, eq_D_M, format_height_report, heights, section_inverse
from mk1.kary import parse_krational
from mk1.reductions import covers_every_y, encode_formula, ensure_surjective, formula_from_truth_table
from mk1.words import is_prefix, word_key, words_of_length


@settings(max_examples=300, deadline=None)
@given(elements)
def test_the_walk_yields_the_image_code_with_its_rows(e):
    walked = list(fibers(e))
    zs = [z for z, _ in walked]
    assert len(set(zs)) == len(zs)
    images = set(e.image_words)
    for z, path in walked:
        assert any(is_prefix(y, z) for y in images)
        assert not any(is_prefix(z, y) and y != z for y in images)
        assert sorted(path) == sorted(row for row in e.rows if is_prefix(row[1], z))
    rows = sorted(((x + z[len(y):], z) for z, path in walked for x, y in path),
                  key=lambda row: word_key(row[0]))
    assert tuple(rows) == reference_image_code_restriction(e)


def test_L_side_readers_build_no_restriction(monkeypatch):
    """Heights, the image code, the section and the length bound read the
    walk's lengths and offsets, never the restriction's rows."""
    rng = random.Random(14)
    es = [random_element(rng, k) for k in (2, 3) for _ in range(60)]
    es += [nested_images(4), deep_rotation(30)]
    programs = [(2, synthesize_partial_identity(2, (0, 1))), (2, ["proj2"]), (2, ["fork", "and"]),
                (3, ["tau(2)", "or"]), (3, synthesize_partial_identity(3, (2,)))]

    def answers():
        return ([(heights(e), image_code(e), section_inverse(e)) for e in es],
                [length_bound_check(k, prog, f) for k, prog in programs for f in (0, 1, 2)])

    assert sum(image_code_restriction(e) is not e for e in es) > 20
    want = answers()
    assert False in want[1] and True in want[1]

    def no_restriction(e):
        raise AssertionError("an image-code restriction was built")

    monkeypatch.setattr(elements_module, "image_code_restriction", no_restriction)
    assert answers() == want


def test_heights_and_d_index_M_read_only_the_offset_walk(monkeypatch):
    """Heights and the D-index read the offset walk: with the row walk and
    the restriction refused, they give the same answers."""
    rng = random.Random(34)
    es = [random_element(rng, k) for k in (2, 3, 4) for _ in range(40)]
    es += [nested_images(4), deep_rotation(30), nested_images(1)]
    want = [(heights(e), d_index_M(e)) for e in es]

    def refuse(e):
        raise AssertionError("the row walk or the restriction was read")

    for module, name in ((elements_module, "fibers"), (green, "fibers"),
                         (elements_module, "image_code_restriction")):
        monkeypatch.setattr(module, name, refuse)
    assert [(heights(e), d_index_M(e)) for e in es] == want


@settings(max_examples=300, deadline=None)
@given(elements)
@example(nested_images(6))
@example(deep_rotation(40))
@example(zero_element(3))
def test_heights_and_d_index_M_match_the_restriction_rows(e):
    """Both read off the offset walk equal the values summed from the
    explicit rows of the image-code restriction, grouped by image."""
    report, index = heights_from_restriction(e)
    assert heights(e) == report
    assert format_height_report(heights(e)) == format_height_report(report)
    assert d_index_M(e) == index


def test_L_side_of_nested_images_is_fast():
    """1,024 nested images: the restriction has 2^19 rows and 2^28 letters,
    the walk one path per image-code word."""
    e = nested_images(10)
    started = time.perf_counter()
    rep, code, s = heights(e), image_code(e), section_inverse(e)
    assert time.perf_counter() - started < 2.0
    # every z = 0^j·1 (j < 1023) has shortest member length 11, and 0^1023 has 10
    assert (rep.r, rep.l, rep.l_max) == tuple(
        parse_krational(2, v) for v in ("1", "0.10000000001", "0.0000000001"))
    assert code.words == tuple(sorted(deep_code(1023), key=word_key))
    # 0^j·1 goes back through row j, the last one to image 0^j
    level = list(words_of_length(2, 10))
    back = {(0,) * j + (1,): w + (1,) for j, w in enumerate(level[:-1])}
    assert dict(s.rows) == {**back, (0,) * 1023: level[-1]}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(elements_over))
def test_d_index_M_matches_the_noncollision_measure_of_the_partition(e):
    """The walk's L-height has the digit sum of the fiber partition's
    noncollision measure, the route that builds the restriction."""
    want = None if e.is_zero else noncollision_measure(part(e)).digit_sum_mod()
    assert d_index_M(e) == want


def test_d_index_M_builds_no_restriction(monkeypatch):
    """The D-index, and with it the D-relation, reads its L-height off the
    walk, never the restriction's rows."""
    rng = random.Random(32)
    es = [random_element(rng, k) for k in (2, 3, 4) for _ in range(60)]
    es += [nested_images(4), deep_rotation(30)]
    assert sum(image_code_restriction(e) is not e for e in es) > 20
    want = [d_index_M(e) for e in es]

    def no_restriction(e):
        raise AssertionError("an image-code restriction was built")

    monkeypatch.setattr(elements_module, "image_code_restriction", no_restriction)
    assert [d_index_M(e) for e in es] == want
    same_k = [(f, g, a, b) for f, g, a, b in zip(es, es[1:], want, want[1:]) if f.k == g.k]
    assert [eq_D_M(f, g) for f, g, _, _ in same_k] == [a == b for _, _, a, b in same_k]


def test_d_index_M_of_nested_images_is_fast_and_small():
    """1,024 nested images: the restriction would have 524,800 rows and
    about 185 M letters, the walk one path per image-code word."""
    e = nested_images(10)
    started = time.perf_counter()
    assert d_index_M(e) == 1 and eq_D_M(e, e)
    assert time.perf_counter() - started < 1.0
    tracemalloc.start()
    try:
        eq_D_M(e, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 << 20


def _same_partition(e) -> bool:
    got, want = part(e), reference_part(e)
    return (got.code.words, got.classes) == (want.code.words, want.classes)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(tables))
def test_part_matches_the_reference_on_tables(e):
    """Images that are prefixes of one another split the rows first; images
    that form a prefix code are grouped as they stand."""
    assert _same_partition(e)


@st.composite
def phi_bs(draw):
    """φ_B of a random truth table of a shape with m, n <= 3, either or
    both of them possibly 0, made surjective where needed."""
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    f = formula_from_truth_table(m, n, draw(st.integers(0, (1 << (1 << (m + n))) - 1)))
    return encode_formula(f if covers_every_y(f) else ensure_surjective(f))


@settings(max_examples=200, deadline=None)
@given(phi_bs())
def test_part_matches_the_reference_on_phi_b(e):
    assert _same_partition(e)


def test_part_takes_both_branches():
    """Seeded tables take both branches of ``part``: images that form a
    prefix code, and images that must be split first."""
    rng = random.Random(19)
    es = [random_element(rng, k) for k in (2, 3) for _ in range(40)]
    split = [image_code_restriction(e) is not e for e in es]
    assert True in split and False in split
    assert all(_same_partition(e) for e in es + [nested_images(5), deep_rotation(20)])


def test_part_splits_through_the_one_restriction_builder(monkeypatch):
    """``part`` gets its split table from ``image_code_restriction``, which
    a wrapper sees, and calls nothing when φ_B's images (m, n >= 1) form a
    prefix code as they stand."""
    built = []
    build = elements_module.image_code_restriction

    def counted(e):
        r = build(e)
        built.append(len(r.rows))
        return r

    monkeypatch.setattr(elements_module, "image_code_restriction", counted)
    part(el(2, ("aa", "a"), ("ab", "aa"), ("b", "aaa")))  # PHI1
    assert built == [6]
    built.clear()
    for m, n, table in ((1, 1, 0b0110), (2, 1, 0xB4), (1, 2, 0x5A), (2, 2, 0xF0F0)):
        f = formula_from_truth_table(m, n, table)
        part(encode_formula(f if covers_every_y(f) else ensure_surjective(f)))
    assert built == []
