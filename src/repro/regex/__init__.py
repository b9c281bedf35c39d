"""Regular expressions over element names (DTD content models).

This subpackage is the formal substrate of the paper: DTD types are
regular expressions over names (Definition 2.2), specialized DTDs use
tagged names (Definition 3.8), and every tightness question is a
regular-language question (Definition 3.3).

Public surface:

* AST and smart constructors: :mod:`repro.regex.ast`
* DTD content-model syntax: :func:`parse_regex`, :func:`to_string`
* Exact decision procedures: :mod:`repro.regex.language`
* Simplification: :func:`simplify`, :func:`simplify_deep`
* Counting and sampling: :mod:`repro.regex.counting`,
  :mod:`repro.regex.sampling`

The kernel's caches register with :mod:`repro.obs.registry`
(:func:`repro.obs.kernel_stats`, :func:`repro.obs.clear_caches`).
"""

from .ast import (
    EMPTY,
    EPSILON,
    Alt,
    Concat,
    Empty,
    Epsilon,
    Opt,
    Plus,
    Regex,
    Star,
    Sym,
    alphabet,
    alt,
    concat,
    image,
    letters,
    names,
    nullable,
    opt,
    plus,
    rename,
    size,
    star,
    substitute,
    sym,
    symbols,
)
from .counting import (
    count_words_by_length,
    count_words_up_to,
    language_density,
    looseness_factor,
)
from .language import (
    canonical_signature,
    difference_witness,
    is_empty,
    is_equivalent,
    is_proper_subset,
    is_subset,
    matches,
    matches_letters,
    minimal_dfa,
    to_dfa,
)
from .parser import parse_regex
from .printer import to_string, to_xml_content_model
from .sampling import sample_word, sample_word_uniform
from .simplify import simplify, simplify_deep

__all__ = [
    "EMPTY",
    "EPSILON",
    "Alt",
    "Concat",
    "Empty",
    "Epsilon",
    "Opt",
    "Plus",
    "Regex",
    "Star",
    "Sym",
    "alphabet",
    "alt",
    "canonical_signature",
    "concat",
    "count_words_by_length",
    "count_words_up_to",
    "difference_witness",
    "image",
    "is_empty",
    "is_equivalent",
    "is_proper_subset",
    "is_subset",
    "language_density",
    "letters",
    "looseness_factor",
    "matches",
    "matches_letters",
    "minimal_dfa",
    "names",
    "nullable",
    "opt",
    "parse_regex",
    "plus",
    "rename",
    "sample_word",
    "sample_word_uniform",
    "simplify",
    "simplify_deep",
    "size",
    "star",
    "substitute",
    "sym",
    "symbols",
    "to_dfa",
    "to_string",
    "to_xml_content_model",
]
