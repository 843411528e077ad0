import random
from collections import Counter

import pytest

from mk1 import dfa
from mk1.dfa import Dfa, dfa_measure, format_dfa, height_report_via_dfa, trie_dfa
from mk1.errors import EmptyLanguage
from mk1.green import heights
from mk1.kary import kq, kq_one
from mk1.words import PrefixCode, parse_word, word_key

from helpers import (
    ReferenceDfa,
    language,
    random_element,
    random_nonempty_code,
    reference_counts_by_length,
    reference_trie_dfa,
)


def pc(k, *texts):
    return PrefixCode.make(k, [parse_word(t, k) for t in texts])


def test_validation():
    """The checked reference automaton rejects what no minimal automaton is."""
    with pytest.raises(ValueError, match="cycle"):
        ReferenceDfa(2, 2, 0, 1, ((0, 0, 1), (1, 0, 0)))
    with pytest.raises(ValueError, match="cycle"):
        ReferenceDfa(2, 1, 0, 0, ((0, 0, 0),))
    with pytest.raises(ValueError, match="two edges"):
        ReferenceDfa(2, 2, 0, 1, ((0, 0, 1), (0, 0, 1)))   # duplicate transition
    with pytest.raises(ValueError, match="reachable"):
        ReferenceDfa(2, 3, 0, 1, ((0, 0, 1),))             # state 2 unreachable
    with pytest.raises(ValueError, match="reach the accept"):
        # state 1 never reaches the accept state
        ReferenceDfa(2, 3, 0, 2, ((0, 0, 1), (0, 1, 2)))
    with pytest.raises(ValueError, match="outside alphabet"):
        ReferenceDfa(2, 2, 0, 1, ((0, 5, 1),))
    with pytest.raises(ValueError, match="exactly one accept state"):
        ReferenceDfa.make(2, 3, 0, (1, 2), ((0, 0, 1), (0, 1, 2)))
    d = ReferenceDfa.make(2, 2, 0, [1], ((0, 0, 1),))
    assert d.accept == 1


def test_reachability_is_decided_by_degrees():
    # state 0's only edge leads into the start: start has an in-edge, and 0
    # is a second state without in-edges
    with pytest.raises(ValueError, match="reachable from the start"):
        ReferenceDfa(2, 3, 1, 2, ((0, 0, 1), (1, 0, 2)))
    # state 3 is a second sink beside the accept state
    with pytest.raises(ValueError, match="reach the accept state"):
        ReferenceDfa(2, 4, 0, 2, ((0, 0, 1), (0, 1, 3), (1, 0, 2)))
    # the accept state may not lead on
    with pytest.raises(ValueError, match="reach the accept state"):
        ReferenceDfa(2, 3, 0, 1, ((0, 0, 1), (1, 0, 2)))
    assert ReferenceDfa(2, 1, 0, 0, ()).n_states == 1


def test_trie_dfa_worked():
    d = trie_dfa(pc(2, "a", "ba", "bb"))
    # state 1 reads a or b to the accept state 0; the root reads a, or b then state 1
    assert d == Dfa(2, 2, ((), ((0, 0), (1, 0)), ((0, 0), (1, 1))))
    assert language(d) == [(0,), (1, 0), (1, 1)]


def test_trie_dfa_merges_equivalent_states():
    # both depth-1 subtrees of the full level look alike and fuse
    d = trie_dfa(pc(2, "aa", "ab", "ba", "bb"))
    assert d.n_states == 3
    assert format_dfa(d).splitlines()[3:] == ["0 --a--> 1", "0 --b--> 1", "1 --a--> 2", "1 --b--> 2"]
    # single-word codes become a path
    d2 = trie_dfa(pc(2, "aab"))
    assert d2.n_states == 4 and sum(map(len, d2.sigs)) == 3


def test_trie_dfa_epsilon_and_empty():
    d = trie_dfa(PrefixCode.make(2, [()]))
    assert d.n_states == 1 and d.root == 0
    assert language(d) == [()]
    assert dfa_measure(d) == kq_one(2)
    with pytest.raises(EmptyLanguage):
        trie_dfa(PrefixCode.make(2, []))


def test_language_roundtrip_random():
    rng = random.Random(20260819)
    for _ in range(120):
        k = rng.choice((2, 3))
        code = random_nonempty_code(rng, k)
        d = trie_dfa(code)
        assert language(d) == sorted(code.words, key=word_key)
        assert trie_dfa(code) == d


def test_every_state_is_added_through_one_place(monkeypatch):
    """Each state a signature table gets beyond the accept state comes from
    ``dfa._state``, the chains of one-word codes and long runs included."""
    added = []
    state = dfa._state

    def counted(sig, ids, sigs):
        before = len(sigs)
        sid = state(sig, ids, sigs)
        added.append(len(sigs) - before)
        return sid

    monkeypatch.setattr(dfa, "_state", counted)
    rng = random.Random(25)
    codes = [PrefixCode.make(2, [(0, 1) * 30]), PrefixCode.make(3, [(2,) * 40, (0,)])]
    codes += [random_nonempty_code(rng, rng.choice((2, 3)), rng.choice((4, 12))) for _ in range(150)]
    for code in codes:
        added.clear()
        n_states = trie_dfa(code).n_states
        assert sum(added) == n_states - 1


def test_dfa_measure():
    assert dfa_measure(trie_dfa(pc(2, "a", "ba", "bb"))) == kq_one(2)
    assert dfa_measure(trie_dfa(pc(2, "aa", "b"))) == kq(2, 3, 2)
    rng = random.Random(5)
    for _ in range(200):
        k = rng.choice((2, 3, 5))
        code = random_nonempty_code(rng, k)
        assert dfa_measure(trie_dfa(code)) == code.mu


def test_shortest_accepted():
    assert language(trie_dfa(pc(2, "aaa", "b")))[0] == (1,)
    rng = random.Random(6)
    for _ in range(100):
        code = random_nonempty_code(rng, 2)
        assert len(language(trie_dfa(code))[0]) == min(len(w) for w in code.words)


def test_counts_by_length():
    """The reference forward count over the reference automaton."""
    assert reference_counts_by_length(reference_trie_dfa(pc(2, "a", "ba", "bb"))) == {1: 1, 2: 2}
    rng = random.Random(7)
    for _ in range(100):
        k = rng.choice((2, 3))
        code = random_nonempty_code(rng, k)
        expect = dict(Counter(len(w) for w in code.words))
        assert reference_counts_by_length(reference_trie_dfa(code)) == expect


def test_height_report_matches_direct_computation():
    rng = random.Random(20260819)
    for _ in range(300):
        k = rng.choice((2, 3))
        e = random_element(rng, k)
        assert height_report_via_dfa(e) == heights(e)


def test_format_dfa():
    text = format_dfa(trie_dfa(pc(2, "a", "ba", "bb")))
    assert text == "\n".join([
        "states: 3",
        "start: 0",
        "accept: 1",
        "0 --a--> 1",
        "0 --b--> 2",
        "2 --a--> 1",
        "2 --b--> 1",
    ])
