"""Unitary colligations and their characteristic functions.

The package models four tiers of structure, each with a semigroup product,
an equivalence by inner conjugation, and a transfer (characteristic)
function that is a complete invariant for the equivalence:

* :mod:`~colligations.colligation` — a single unitary with an
  exposed/inner block split; scalar transfer function on the disc.
* :mod:`~colligations.multi` — a tuple of colligations sharing one split;
  transfer function of a square matrix argument.
* :mod:`~colligations.conjugacy` — one unitary with several coupled inner
  slots, the conjugacy-class analogue of a tuple.
* :mod:`~colligations.doublecoset` — paired families with left and right
  matrix arguments, transfer functions valued in a doubled space carrying
  indefinite and skew forms.

:mod:`~colligations.realization` evaluates every kind's transfer function
as one realization ``A + B (S x I - D)^{-1} C``, batched over arguments.
:mod:`~colligations.relations` gives the relation-valued picture of the
transfer function on eigensurfaces, :mod:`~colligations.documents` the JSON
wire format, :mod:`~colligations.verify` the randomized property suites,
and :mod:`~colligations.cli` the command-line front end, whose ``eval`` and
``surface`` commands run in :mod:`~colligations.sweeps`.
"""

import importlib

__version__ = "0.1.0"

# Every public name, by the module that defines it.  A name is imported from
# its module on first use (PEP 562), so that importing the package loads none
# of its modules and each command loads only the modules it runs.
_EXPORTS = {
    "errors": (
        "AlphaMismatch",
        "ArityMismatch",
        "BadSplit",
        "ColligationError",
        "DocumentError",
        "NearPole",
        "NearSingular",
        "NotOrthogonal",
        "NotUnitary",
        "OnEigensurface",
        "RetriesExhausted",
    ),
    "linalg": (
        "DEFAULT_TOLERANCES",
        "CharValue",
        "Tolerances",
        "haar_orthogonal",
        "haar_unitary",
        "op_norm",
        "rel_defect",
    ),
    "colligation": (
        "Colligation",
        "charfun_z",
        "conjugate_inner",
        "equivalent_probe",
        "identity_colligation",
        "pad",
        "product",
        "random_colligation",
        "spectra_match",
        "unit_spectrum",
    ),
    "multi": (
        "MultiColligation",
        "elimination_matrix",
        "multi_charfun",
        "multi_charfun_system",
        "multi_conjugate",
        "multi_product",
        "random_multi",
    ),
    "relations": (
        "ConstraintSubspace",
        "LinearRelation",
        "char_relation",
        "compose_relations",
        "contains",
        "form_on_subspace",
        "graph_relation",
        "identity_relation",
        "on_eigensurface",
        "signature_form",
        "subspace_distance",
    ),
    "conjugacy": (
        "TriColligation",
        "random_tri",
        "tri_charfun",
        "tri_charfun_system",
        "tri_conjugate",
        "tri_product",
    ),
    "doublecoset": (
        "dc_charfun",
        "dc_charfun_system",
        "dc_equivalent",
        "indefinite_form",
        "skew_form",
        "transpose_inverse",
    ),
    "documents": (
        "KINDS",
        "Document",
        "emit_document",
        "load_document",
        "parse_document",
        "random_document",
        "save_document",
    ),
    "verify": ("Dims", "SuiteReport", "list_suites", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
