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
and :mod:`~colligations.cli` the command-line front end.
"""

from .errors import (
    AlphaMismatch,
    ArityMismatch,
    BadSplit,
    ColligationError,
    DocumentError,
    NearPole,
    NearSingular,
    NotOrthogonal,
    NotUnitary,
    OnEigensurface,
    RetriesExhausted,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    TOLERANCE_PROFILES,
    CharValue,
    Tolerances,
    haar_orthogonal,
    haar_unitary,
    op_norm,
    rel_defect,
    tolerances_from_profile,
)
from .colligation import (
    Colligation,
    charfun_z,
    conjugate_inner,
    equivalent_probe,
    identity_colligation,
    make_colligation,
    pad,
    product,
    random_colligation,
    spectra_match,
    unit_spectrum,
)
from .multi import (
    MultiColligation,
    diag_conjugation,
    eigensurface_det,
    eigensurface_sigma,
    elimination_matrix,
    multi_charfun,
    multi_charfun_system,
    multi_conjugate,
    multi_product,
    random_multi,
)
from .relations import (
    ConstraintSubspace,
    LinearRelation,
    char_relation,
    compose_relations,
    contains,
    form_on_subspace,
    graph_relation,
    identity_relation,
    on_eigensurface,
    signature_form,
    subspace_distance,
)
from .conjugacy import (
    TriColligation,
    random_tri,
    tri_charfun,
    tri_charfun_system,
    tri_conjugate,
    tri_elimination_matrix,
    tri_product,
)
from .doublecoset import (
    DoubleCosetFamily,
    FormReport,
    adjoint_experiment,
    dc_charfun,
    dc_charfun_system,
    dc_dilation_check,
    dc_elimination_matrix,
    dc_equivalent,
    dc_product,
    form_checks,
    indefinite_form,
    random_family,
    skew_form,
    transpose_inverse,
)
from .documents import (
    KINDS,
    Document,
    document_for,
    emit_document,
    load_document,
    parse_document,
    random_document,
    save_document,
)
__version__ = "0.1.0"

# The verification suites load on first use (PEP 562), so that importing the
# package, or running a command other than ``verify``, does not pay for them.
_FROM_VERIFY = ("Dims", "SuiteReport", "list_suites", "run_suite")


def __getattr__(name):
    if name in _FROM_VERIFY:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlphaMismatch",
    "ArityMismatch",
    "BadSplit",
    "CharValue",
    "Colligation",
    "ColligationError",
    "ConstraintSubspace",
    "DEFAULT_TOLERANCES",
    "Dims",
    "Document",
    "DocumentError",
    "DoubleCosetFamily",
    "FormReport",
    "KINDS",
    "LinearRelation",
    "MultiColligation",
    "NearPole",
    "NearSingular",
    "NotOrthogonal",
    "NotUnitary",
    "OnEigensurface",
    "RetriesExhausted",
    "SuiteReport",
    "TOLERANCE_PROFILES",
    "Tolerances",
    "TriColligation",
    "adjoint_experiment",
    "char_relation",
    "charfun_z",
    "compose_relations",
    "conjugate_inner",
    "contains",
    "dc_charfun",
    "dc_charfun_system",
    "dc_dilation_check",
    "dc_elimination_matrix",
    "dc_equivalent",
    "dc_product",
    "diag_conjugation",
    "document_for",
    "eigensurface_det",
    "eigensurface_sigma",
    "elimination_matrix",
    "emit_document",
    "equivalent_probe",
    "form_checks",
    "form_on_subspace",
    "graph_relation",
    "haar_orthogonal",
    "haar_unitary",
    "identity_colligation",
    "identity_relation",
    "indefinite_form",
    "list_suites",
    "load_document",
    "make_colligation",
    "multi_charfun",
    "multi_charfun_system",
    "multi_conjugate",
    "multi_product",
    "on_eigensurface",
    "op_norm",
    "pad",
    "parse_document",
    "product",
    "random_colligation",
    "random_document",
    "random_family",
    "random_multi",
    "random_tri",
    "rel_defect",
    "run_suite",
    "save_document",
    "signature_form",
    "skew_form",
    "spectra_match",
    "subspace_distance",
    "tolerances_from_profile",
    "transpose_inverse",
    "tri_charfun",
    "tri_charfun_system",
    "tri_conjugate",
    "tri_elimination_matrix",
    "tri_product",
    "unit_spectrum",
]
