"""Checked boundaries and the unchecked results built behind them.

Public constructors check their input; results the library derives from
checked values skip those checks.  These properties make sure every such
result would have passed them anyway, and that the one-pass image-code
restriction agrees with the counter-loop reference.  (Automata have no
checked constructor: ``test_height_reports`` compares them with the
checked reference automaton in ``helpers``.)  Formulas built from truth
tables skip the check fold and carry their table; φ_B skips ``make``'s
sort and checks.  The text readers check their input once and build
tables and formulas without the constructors' checks.  Lints over the
library's source keep out asserts, eval, recursion, unbounded caches,
error classes nothing raises, exports only the tests read, private
functions nothing reads, imports inside functions and import cycles, keep
the canonical word order in the modules that build codes, tables and
congruences, keep row reduction in ``elements``, ``make`` and the checked
identity and zero constructors to input no check has seen, keep ``dfa``'s
signature tables growing in ``_state`` alone, keep the listing of an
alphabet's letters in ``words_of_length``, and keep ``cli`` to command
plumbing.
"""

import ast
import operator
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mk1
from helpers import elements, reference_image_code_restriction, tables
from mk1 import elements as elements_module, words as words_module
from mk1.congruence import PrefixCodeCongruence, split_class
from mk1.elements import (
    Mk1Element,
    compose,
    format_table,
    identity_element,
    image_code,
    image_code_restriction,
    parse_table,
    part,
    partial_identity,
    r2_normal_form,
    restrict_to_length,
    zero_element,
)
from mk1.errors import (
    ArityMismatch,
    BaseTooSmall,
    DomainNotPrefixCode,
    NotAClass,
    NotCanonical,
    NotPrefixCode,
    OutOfRange,
    ParseError,
)
from mk1.reductions import (
    BooleanFormula,
    covers_every_y,
    encode_formula,
    ensure_surjective,
    formula_from_truth_table,
    parse_formula,
    truth_table,
)
from mk1.green import element_with_heights, heights, section_inverse, separating_context
from mk1.plep import eta_idempotent, plep_d_witness
from mk1.words import (
    PrefixCode,
    code_with_measure,
    format_word,
    parse_code,
    replace_r1,
    replace_r2,
)


pairs = st.sampled_from((2, 3)).flatmap(lambda k: st.tuples(
    st.one_of(st.just(identity_element(k)), tables(k)), tables(k)))


def rebuilt(value):
    """The value rebuilt from its fields through the checked constructor."""
    if isinstance(value, Mk1Element):
        return Mk1Element(value.k, value.rows)
    if isinstance(value, PrefixCode):
        return PrefixCode(value.k, value.words)
    if isinstance(value, BooleanFormula):
        return BooleanFormula(value.m, value.n, value.ast)
    return PrefixCodeCongruence(rebuilt(value.code), value.classes)


@settings(max_examples=300, deadline=None)
@given(elements)
def test_restriction_matches_counter_loop(e):
    assert image_code_restriction(e).rows == reference_image_code_restriction(e)


ENDS = {k: (zero_element(k), identity_element(k)) for k in (2, 3)}  # built before any patch


def _built_unchecked(e, extra):
    """The values that builders in four modules make from e without
    checks: partial identities, R1/R2 rewrites and normal forms of
    its image code, codes of its measures, its section, an element with its
    heights, an idempotent on a level of its domain, plep conjugators
    between idempotents of equal index, total ones included, and contexts
    separating it from the zero and the identity."""
    code = image_code(e)
    rep = heights(e)
    built = [partial_identity(code), r2_normal_form(code), code_with_measure(e.k, code.mu),
             code_with_measure(e.k, e.domain_code.mu), section_inverse(e),
             element_with_heights(e.k, rep.r, rep.l)]
    if code.words:
        c = code.words[extra % len(code)]
        r1 = replace_r1(code, c)
        w = plep_d_witness(partial_identity(code), partial_identity(r1))
        built += [r1, replace_r2(r1, c), r2_normal_form(r1), w.b, w.b_prime]
    level = restrict_to_length(e, max((len(x) for x, _ in e.rows), default=0) + extra)
    if level.rows:
        eta = eta_idempotent(level.domain_code, level.rows[extra % len(level.rows)][0])
        w = plep_d_witness(eta, eta)
        built += [eta, w.b, w.b_prime]
    for other in ENDS[e.k]:
        if other != e.reduced():
            built += separating_context(e, other)
    return built


@settings(max_examples=200, deadline=None)
@given(elements, st.integers(0, 2))
def test_derived_values_pass_the_checks(e, extra):
    r = image_code_restriction(e)
    p = part(e)
    derived = [e.reduced(), r, image_code(e), p, p.code, e.domain_code,
               restrict_to_length(e, max((len(x) for x, _ in e.rows), default=0) + extra)]
    if p.classes:
        derived.append(split_class(p, extra % len(p.classes)))
    for value in derived + _built_unchecked(e, extra):
        assert rebuilt(value) == value


@settings(max_examples=50, deadline=None)
@given(elements, st.integers(0, 2))
def test_derived_values_skip_the_letter_check(e, extra):
    """No builder above reaches ``check_letters``, which every checked
    constructor of codes and tables runs."""
    calls = []

    def record(k, words):
        calls.append(k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words_module, "check_letters", record)
        patch.setattr(elements_module, "check_letters", record)
        _built_unchecked(e, extra)
        e.reduced()
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(pairs)
def test_compose_passes_the_checks(fg):
    f, g = fg
    fg_ = compose(f, g)
    assert rebuilt(fg_) == fg_
    assert fg_.reduced() == fg_


shapes = st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(lambda mn: sum(mn) <= 10)
truth_tables = shapes.flatmap(lambda mn: st.tuples(
    st.just(mn[0]), st.just(mn[1]), st.integers(0, (1 << (1 << sum(mn))) - 1)))


@settings(max_examples=150, deadline=None)
@given(truth_tables)
@example((0, 0, 0))
@example((0, 0, 1))
@example((0, 3, 0b11111111))   # no x: all eight question rows of φ_B merge
@example((3, 0, 0b01101001))   # no y: two pairs of question rows merge
@example((5, 5, 2**1024 - 1))  # 1024 minterms
def test_formulas_from_truth_tables_pass_the_checks(mnt):
    """The stored table is the fold of the checked rebuild, and it takes no
    part in ==, hash or str.  (The rebuild shares the ast, so == stays off
    Python's recursion limit on long DNFs.)"""
    m, n, table = mnt
    f = formula_from_truth_table(m, n, table)
    assert f._table == table
    for g in (f, ensure_surjective(f)):
        checked = rebuilt(g)
        assert checked._table is None
        assert g._table == truth_table(checked)
        assert g == checked and hash(g) == hash(checked) and str(g) == str(checked)
        if covers_every_y(g):
            e = encode_formula(g)
            assert e == Mk1Element.make(2, e.rows)


@settings(max_examples=200, deadline=None)
@given(elements, st.randoms(use_true_random=False))
def test_parsed_tables_and_codes_pass_the_checks(e, rnd):
    """Rows and words in any order, repeated code words counting once."""
    rows = format_table(e).splitlines()[1:]
    words = [format_word(y) for y in image_code(e).words] * 2
    rnd.shuffle(rows)
    rnd.shuffle(words)
    header = f"k {e.k}\n"
    t, code = parse_table(header + "\n".join(rows)), parse_code(header + "\n".join(words))
    assert rebuilt(t) == t == e
    assert rebuilt(code) == code == image_code(e)


_ATOMS = [("const", 0), ("const", 1), ("x", 1), ("x", 2), ("y", 1), ("y", 2)]
_TOKENS = ["x1", "x2", "x3", "y1", "y2", "y3", "0", "1", "!", "&", "|", "(", ")"]
formula_texts = st.tuples(st.integers(0, 2), st.integers(0, 2)).flatmap(lambda mn: st.one_of(
    st.recursive(st.sampled_from(_ATOMS), lambda sub: st.one_of(
        st.tuples(st.just("not"), sub), st.tuples(st.sampled_from(["and", "or"]), sub, sub)),
        max_leaves=8).map(lambda tree: str(BooleanFormula._trusted(*mn, tree, None))),
    st.lists(st.sampled_from(_TOKENS), max_size=10).map(
        lambda ts: f"m={mn[0]} n={mn[1]} " + " ".join(ts))))


@settings(max_examples=300, deadline=None)
@given(formula_texts)
def test_parsed_formulas_pass_the_checks(text):
    """Well-formed formulas, some with variables out of range, and token
    soup: every formula the reader returns passes the check fold."""
    try:
        f = parse_formula(text)
    except (ParseError, ArityMismatch):
        return
    assert rebuilt(f) == f == parse_formula(str(f))


def test_readers_skip_the_constructor_checks(monkeypatch):
    def refuse(self):
        raise AssertionError("checked twice")

    monkeypatch.setattr(Mk1Element, "__post_init__", refuse)
    monkeypatch.setattr(BooleanFormula, "__post_init__", refuse)
    monkeypatch.setattr(PrefixCode, "__post_init__", refuse)
    assert parse_table("k 2\nb -> a\na -> b\n").rows == (((0,), (1,)), ((1,), (0,)))
    assert parse_formula("m=1 n=1 x1 | !y1").ast == ("or", ("x", 1), ("not", ("y", 1)))
    assert parse_code("k 2\nb\naa\nb\nab\n").words == ((1,), (0, 0), (0, 1))
    with pytest.raises(NotPrefixCode):
        parse_code("k 2\na\nab\n")


def test_public_constructors_still_check():
    with pytest.raises(DomainNotPrefixCode):
        Mk1Element.make(2, [((0,), ()), ((0, 1), ())])
    with pytest.raises(OutOfRange):
        Mk1Element.make(2, [((2,), ())])
    with pytest.raises(ValueError):
        Mk1Element.make(2, [((0,), (0,)), ((0,), (1,))])  # one word, two images
    with pytest.raises(ValueError):
        PrefixCode(2, ((0, 0), (1,)))                     # not canonically sorted
    with pytest.raises(BaseTooSmall):
        PrefixCode(1, ())
    code = PrefixCode.make(2, [(0,), (1,)])
    with pytest.raises(ValueError):
        PrefixCodeCongruence(code, (((1,),), ((0,),)))    # classes out of order
    for classes, error, match in ((((),), NotAClass, "empty class"),
                                  ((((1,), (0,)),), NotCanonical, "class not canonically sorted"),
                                  ((((0,),), ((0,), (1,))), NotAClass, "classes overlap")):
        with pytest.raises(error, match=match):
            PrefixCodeCongruence(code, classes)
    with pytest.raises(NotAClass):
        PrefixCodeCongruence.make(code, [[(0,), (1,)], []])


def test_code_membership():
    code = PrefixCode.make(3, [(0,), (1, 2), (2, 0, 1), (1, 0)])
    for w in code.words:
        assert w in code and list(w) in code
    for w in [(), (1,), (0, 0), (1, 1), (2, 0), (2, 0, 1, 0), (2, 2, 2)]:
        assert w not in code
    assert () not in PrefixCode.make(2, [])


def _library_nodes():
    package = Path(mk1.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_assert_statements_in_the_library():
    """Library checks must survive ``python -O``, which strips asserts."""
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_eval_or_exec_in_the_library():
    """The library never runs generated code."""
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("eval", "exec")]
    assert found == []


def test_no_recursive_functions_in_the_library():
    """Walks keep their own stacks, so deep tables never reach Python's
    recursion limit.  (A method calling a module function of its own name
    is not recursion.)"""
    nodes = list(_library_nodes())
    methods = {id(fn) for _, cls in nodes if isinstance(cls, ast.ClassDef) for fn in cls.body}
    found = [f"{name}:{fn.name}" for name, fn in nodes
             if isinstance(fn, ast.FunctionDef) and id(fn) not in methods
             and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                     and call.func.id == fn.name for call in ast.walk(fn))]
    assert found == []


def test_no_private_imports_across_library_modules():
    """Modules share only public names; the one exception is the unchecked
    constructor every ``_trusted`` classmethod wraps."""
    found = [f"{name}:{node.lineno}:{alias.name}" for name, node in _library_nodes()
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("mk1"))
             for alias in node.names
             if alias.name.startswith("_")
             and ((node.module or "").removeprefix("mk1."), alias.name) != ("words", "_unchecked")]
    assert found == []


def _names_cache(node) -> str | None:
    """'lru_cache' or 'cache' when ``node`` spells functools' decorator."""
    if isinstance(node, ast.Call):
        node = node.func
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name if name in ("lru_cache", "cache") else None


def test_every_cache_is_bounded():
    """Each cache keeps at most a fixed number of entries: an ``lru_cache``
    with an integer ``maxsize``, never ``functools.cache``."""
    found, caches = [], 0
    for name, node in _library_nodes():
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{name}:{node.lineno}:import" for a in node.names if a.name == "cache"]
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            kind = _names_cache(deco)
            if kind is None:
                continue
            caches += 1
            maxsize = [kw.value for kw in getattr(deco, "keywords", ()) if kw.arg == "maxsize"]
            maxsize += getattr(deco, "args", [])[:1]
            if kind == "cache" or not (len(maxsize) == 1 and isinstance(maxsize[0], ast.Constant)
                                       and type(maxsize[0].value) is int):
                found.append(f"{name}:{node.lineno}:{node.name}")
    assert caches and found == []


def _spells_the_cap(node) -> bool:
    """2^20 as a literal, 1 << 20 or 2 ** 20."""
    if isinstance(node, ast.Constant):
        return node.value == 1 << 20 and type(node.value) is int
    ops = {ast.LShift: operator.lshift, ast.Pow: operator.pow}
    return (isinstance(node, ast.BinOp) and type(node.op) in ops
            and isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant)
            and ops[type(node.op)](node.left.value, node.right.value) == 1 << 20)


def test_only_words_spells_the_size_cap():
    """Every 2^20 cap on rows or words goes through ``words.check_count``,
    alone or under ``words.check_cap``."""
    found = [name for name, node in _library_nodes() if _spells_the_cap(node)]
    assert found and set(found) == {"words.py"}


def test_only_words_caps_a_single_level():
    """A level is capped where it is listed: ``words_of_length`` refuses more
    than 2^20 words, so no other module calls ``check_cap`` on one depth."""
    found = [name for name, node in _library_nodes()
             if isinstance(node, ast.Call) and len(node.args) > 1
             and "check_cap" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
             and isinstance(node.args[1], (ast.List, ast.Tuple, ast.Set))
             and len(node.args[1].elts) == 1]
    assert found == ["words.py"]


def _lists_an_alphabet(node) -> bool:
    """A call ``range(k)`` or ``range(<name>.k)``."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range"
            and len(node.args) == 1 and not node.keywords):
        return False
    arg = node.args[0]
    return getattr(arg, "id", None) == "k" or getattr(arg, "attr", None) == "k"


def test_only_words_of_length_lists_an_alphabet():
    """A node's k children, like every level, come from ``words_of_length``,
    which refuses more than 2^20 words; nothing else ranges over k."""
    found = {f"{name}:{fn.name}" for name, fn in _library_nodes()
             if isinstance(fn, ast.FunctionDef) and any(map(_lists_an_alphabet, ast.walk(fn)))}
    assert found == {"words.py:words_of_length"}


def test_only_elements_names_the_restriction():
    """Fibers are worked out in one module, on one trie walk; the others
    read ``fiber_offsets`` (heights, the D-index, the length bound),
    ``fibers`` (the section, the automaton report), ``part`` or
    ``image_code``.  The package re-exports the restriction."""
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if name not in ("elements.py", "__init__.py")
             and "image_code_restriction" in (getattr(node, "id", None),
                                              getattr(node, "attr", None),
                                              getattr(node, "name", None))]
    assert found == []


def test_only_phi_b_paths_call_part():
    """The fiber partition expands fiber words, splitting through the
    restriction unless the images form a prefix code.  Heights and the
    D-index read the offset walk instead; only ``count_via_element`` and
    ``phi-b --check`` call ``part``, on φ_B's images, which form a prefix
    code for m, n >= 1."""
    found = sorted({name for name, node in _library_nodes()
                    if isinstance(node, ast.Call)
                    and "part" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))})
    assert found == ["cli.py", "reductions.py"]


def test_the_automaton_report_takes_only_the_report_type_from_green():
    """``dfa`` counts fiber lengths on its own automata: of ``green`` it
    imports ``HeightReport`` alone, so the two height methods share no
    length shortcut."""
    tree = ast.parse((Path(mk1.__file__).parent / "dfa.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".green", "mk1.green"):
                found += [alias.name for alias in node.names]
            elif module in (".", "mk1"):
                found += [alias.name for alias in node.names if alias.name == "green"]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "mk1.green"]
    assert found == ["HeightReport"]


def test_every_error_class_is_named_outside_errors():
    """An error class that no other library module names is never raised."""
    package = Path(mk1.__file__).parent
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    named = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for name, node in _library_nodes() if name != "errors.py"}
    assert defined and sorted(defined - named) == []


def test_every_export_is_read_outside_the_tests():
    """Each name ``mk1`` exports, other than its modules, is read by a
    library module, by the benchmark or by an acceptance criterion: code
    that only tests call is deleted."""
    package, root = Path(mk1.__file__).parent, Path(__file__).parents[1]
    paths = [*package.glob("*.py"), *(root / "perfbench").rglob("*.py"),
             root / "tests" / "test_acceptance.py"]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for path in paths for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    modules = {path.stem for path in package.glob("*.py")}
    assert sorted(set(mk1.__all__) - modules - read) == []


def test_every_private_function_is_read_in_the_library():
    """Each private function or method a library module defines, dunders
    aside, is read by some library module: a helper nothing calls is
    deleted with its last caller."""
    nodes = [node for _, node in _library_nodes()]
    defined = {node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    read = {node.id if isinstance(node, ast.Name) else node.attr for node in nodes
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert defined and sorted(defined - read) == []


def test_no_library_module_imports_fractions():
    """Height exponents are reduced integer pairs, so the library builds no
    Fraction, and starting it loads no numeric tower."""
    found = [name for name, node in _library_nodes()
             if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "fractions"
                                                     for alias in node.names)
             or isinstance(node, ast.ImportFrom) and not node.level
             and (node.module or "").split(".")[0] == "fractions"]
    assert found == []


def test_functions_import_nothing():
    """Imports sit at module level, where the layering lint below sees them."""
    found = [(name, fn.name, alias.name) for name, fn in _library_nodes()
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    assert found == []


# each module imports only from the layers before its own
LAYERS = (("errors",), ("kary",), ("words",), ("congruence",), ("elements",),
          ("green", "plep", "circuits", "reductions"), ("dfa",), ("cli", "__init__"))


def test_imports_run_one_way_through_the_layers():
    """No import cycle: every relative import goes to an earlier layer.  Only
    the top layer imports by ``import_module``, and a literal target, "mk1.x"
    or ".x", is a library module of an earlier layer; the targets it reads
    from tables (``__init__``'s names, ``cli``'s relations) are pinned by the
    tests in ``test_cli`` that resolve every name and run every command."""
    layer = {module: i for i, modules in enumerate(LAYERS) for module in modules}
    found = []
    for name, node in _library_nodes():
        module = name[:-3]
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [alias.name for alias in node.names] if node.module is None \
                else [node.module.split(".")[0]]
            found += [(module, t) for t in targets if layer[t] >= layer[module]]
        elif isinstance(node, ast.Call) and "import_module" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            target = node.args[0]
            literal = isinstance(target, ast.Constant)
            match = literal and re.fullmatch(r"(?:mk1)?\.(\w+)", target.value)
            below = match and layer.get(match[1], len(LAYERS)) < layer[module]
            if module not in LAYERS[-1] or literal and not below:
                found.append((module, ast.unparse(target)))
    assert found == []


def test_only_elements_reduces_rows():
    """Other modules reduce through ``make``, ``_trusted_make`` or ``reduced``."""
    found = {name for name, node in _library_nodes()
             if "_merge_rows" in (getattr(node, "id", None), getattr(node, "attr", None),
                                  getattr(node, "name", None))}
    assert found == {"elements.py"}


def _callers(name: str) -> set[str]:
    """``module.function`` of each call in the library to a function or
    method called ``name``, the outermost function holding it."""
    found = set()
    for path in sorted(Path(mk1.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # outer functions come first
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(id(node), fn.name)
        found |= {f"{path.stem}.{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    return found


def test_make_is_called_only_on_unchecked_input():
    """Rows and words derived from checked values are built through
    ``_trusted_make`` or ``_trusted``; a ``make`` is called only where a
    base ``k`` arrives that no check has seen."""
    assert _callers("make") == {"circuits.gate_element"}


def test_checked_small_tables_are_built_only_on_unchecked_input():
    """The identity and the zero table run the constructor's checks; the
    library builds them from checked values through ``_trusted``, and calls
    them only where ``k`` arrives unchecked."""
    for name in ("identity_element", "zero_element"):
        assert _callers(name) <= {"circuits.eval_generator_word"}, name


def test_only_state_adds_to_a_signature_table():
    """In ``dfa`` a signature table grows only in ``_state``, which
    ``test_every_state_is_added_through_one_place`` and the state counts in
    ``test_height_reports`` wrap: no other function appends, extends or
    inserts into a list named ``sigs`` or ``*_sigs``, or adds to one."""
    tree = ast.parse((Path(mk1.__file__).parent / "dfa.py").read_text(encoding="utf-8"))
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                owner[id(node)] = fn.name  # inner functions come later, so they win
    grown = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("append", "extend", "insert") and _names_sigs(node.func.value)
             or isinstance(node, ast.AugAssign) and _names_sigs(node.target)]
    assert grown and {owner.get(id(node)) for node in grown} == {"_state"}


def _names_sigs(node) -> bool:
    return isinstance(node, ast.Name) and (node.id == "sigs" or node.id.endswith("_sigs"))


def test_only_words_elements_and_congruence_name_the_word_order():
    """The canonical (length, then dictionary) order is spelled by
    ``word_key`` in the modules that build codes, tables and congruences;
    the others take words already in that order from them."""
    found = {name for name, node in _library_nodes()
             if "word_key" in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "name", None))}
    assert found == {"words.py", "elements.py", "congruence.py"}


def test_cli_keeps_only_command_plumbing():
    """The command line parses, calls the library and prints: every
    computation, such as chain's letter test, sits in a library module."""
    tree = ast.parse((Path(mk1.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    plumbing = {"_read", "integer", "_checked", "build_parser", "main", "_Parser.error"}
    owner = {id(fn): f"{c.name}." for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for fn in c.body}
    found = [name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for name in [owner.get(id(fn), "") + fn.name]
             if not name.startswith("_cmd_") and name not in plumbing]
    assert found == []


def test_only_words_reads_the_header():
    """The "k <int>" header line has one reader, ``words.parse_header``."""
    package = Path(mk1.__file__).parent
    found = [path.name for path in sorted(package.glob("*.py"))
             if "k <int>" in path.read_text(encoding="utf-8")]
    assert found == ["words.py"]


def test_test_modules_import_only_names_they_read():
    """An unused import hides what a test module really tests."""
    found = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{path.name}:{node.lineno}:{alias.name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  if (alias.asname or alias.name).split(".")[0] not in read]
    assert found == []
