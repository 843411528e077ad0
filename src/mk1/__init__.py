"""Exact computation in the Thompson-Higman monoids M_{k,1}.

Everything is exact: measures are k-ary rationals, heights may carry
fractional exponents symbolically, and every predicate is decided by
finite table manipulation — no floating point anywhere.

The package's names resolve on first use (PEP 562): ``mk1.heights``
imports ``mk1.green`` then, and a program that imports one module of the
package loads only that module and the layers under it.
"""

from importlib import import_module

# each public name, and the module that defines it; a module's own name
# stands for the module itself.  This is the library's one lazy loader:
# ``cli`` reads every name it calls through it.
_HOME = {
    "circuits": "circuits", "dfa": "dfa", "reductions": "reductions",
    **dict.fromkeys(("PrefixCodeCongruence", "collision_measure", "congruence",
                     "noncollision_measure", "split_class"), "congruence"),
    **dict.fromkeys(("Mk1Element", "NoValue", "apply", "compose", "elements", "format_table",
                     "identity_element", "image_code", "image_code_restriction", "is_idempotent",
                     "is_injective", "parse_table", "part", "partial_identity", "r2_normal_form",
                     "zero_element"), "elements"),
    **dict.fromkeys(("Mk1Error", "ParseError", "errors"), "errors"),
    **dict.fromkeys(("HeightReport", "d_index_M", "dense_chain", "element_with_heights",
                     "eq_D_M", "eq_L", "eq_R", "format_height_report", "green", "heights",
                     "leq_L", "leq_R", "section_inverse", "separating_context"), "green"),
    **dict.fromkeys(("KRational", "format_krational", "kary", "kq", "parse_krational"), "kary"),
    **dict.fromkeys(("d_index_plep", "eq_D_plep", "eta_idempotent", "is_plep", "is_tlep",
                     "plep", "plep_d_witness", "plep_element_with_index"), "plep"),
    **dict.fromkeys(("PrefixCode", "code_with_measure", "format_word", "mu", "parse_code",
                     "parse_word", "words"), "words"),
}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """The object ``name`` from its defining module, imported now if it is
    not yet; it is looked up on every call, so a name the module rebinds
    resolves to the new binding."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{home}", __name__)
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
