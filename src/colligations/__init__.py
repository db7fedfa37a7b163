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

Each public name is imported from the module that defines it and lists it
in its ``__all__``; importing the package itself loads none of its modules.
"""

__version__ = "0.1.0"
