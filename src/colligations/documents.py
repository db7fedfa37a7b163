"""JSON documents for colligation objects, with a canonical byte format.

A document is a single JSON object ``{"kind": ..., "metadata": ...,
"payload": ...}``.  Complex scalars are two-element ``[re, im]`` arrays and
matrices are nested row-major arrays of those pairs, so any JSON reader can
consume the files.  :func:`emit_document` always produces the canonical
form -- sorted keys, no whitespace, one trailing newline, shortest lossless
float literals -- so parse/emit round-trips are byte-identical.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from .errors import ColligationError, DocumentError
from .linalg import DEFAULT_TOLERANCES, Tolerances

if TYPE_CHECKING:
    from .colligation import Colligation
    from .conjugacy import TriColligation
    from .multi import MultiColligation

__all__ = [
    "SCHEMA_VERSION",
    "KINDS",
    "KIND_TABLE",
    "KindSpec",
    "Document",
    "Payload",
    "matrix_to_json",
    "matrix_from_json",
    "parse_document",
    "emit_document",
    "load_document",
    "save_document",
    "random_document",
]

SCHEMA_VERSION = "1"

Payload = Union["Colligation", "MultiColligation", "TriColligation"]


@dataclasses.dataclass(frozen=True)
class Document:
    """A kind tag, a validated payload object, and free-form metadata."""

    kind: str
    payload: Payload
    metadata: dict


def _parse_error(message: str) -> DocumentError:
    return DocumentError("parse", message)


def matrix_to_json(m) -> list:
    """Row-major nested lists with each entry as a ``[re, im]`` pair."""
    a = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def matrix_from_json(obj, what: str) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; raises ``DocumentError`` on bad shape."""
    if not isinstance(obj, list) or not obj:
        raise _parse_error(f"{what}: expected a non-empty list of rows")
    width = None
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise _parse_error(f"{what}: row {i} is not a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise _parse_error(f"{what}: row {i} has {len(row)} entries, expected {width}")
        entries = []
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
            ):
                raise _parse_error(f"{what}: entry ({i},{j}) is not a [re, im] number pair")
            try:
                entries.append(complex(pair[0], pair[1]))
            except OverflowError:
                raise _parse_error(f"{what}: entry ({i},{j}) is too large for a float") from None
        rows.append(entries)
    m = np.array(rows, dtype=complex)
    if not np.isfinite(m).all():
        raise _parse_error(f"{what}: entries must be finite")
    return m


def _require_keys(obj: dict, required: dict, optional: dict, what: str) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise _parse_error(f"{what}: unexpected key {key!r}")
    for key in required:
        if key not in obj:
            raise _parse_error(f"{what}: missing key {key!r}")


def _natural(obj: dict, key: str, what: str) -> int:
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise _parse_error(f"{what}: {key!r} must be a positive integer")
    return value


def _parse_metadata(obj) -> dict:
    if not isinstance(obj, dict):
        raise _parse_error("metadata must be an object")
    _require_keys(obj, {"schema_version": None}, {"seed": None}, "metadata")
    version = obj["schema_version"]
    if version != SCHEMA_VERSION:
        raise _parse_error(f"unsupported schema_version {version!r}")
    meta = {"schema_version": version}
    if "seed" in obj:
        seed = obj["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise _parse_error("metadata: 'seed' must be an integer")
        meta["seed"] = seed
    return meta


def _parse_dims(obj, what: str, keys: tuple[str, ...]) -> list[int]:
    """Check a payload object has exactly ``keys``; return the positive
    integers under all but the last (the matrix data)."""
    if not isinstance(obj, dict):
        raise _parse_error("payload must be an object")
    _require_keys(obj, dict.fromkeys(keys), {}, what)
    return [_natural(obj, key, what) for key in keys[:-1]]


def _parse_colligation(obj, what: str, tol: Tolerances) -> Colligation:
    from .colligation import Colligation

    alpha, inner = _parse_dims(obj, what, ("alpha", "inner", "matrix"))
    matrix = matrix_from_json(obj["matrix"], what)
    if matrix.shape != (alpha + inner, alpha + inner):
        raise _parse_error(f"{what}: matrix shape {matrix.shape} does not match alpha+inner")
    return Colligation(matrix, alpha, tol)


def _parse_family(obj, what: str, tol: Tolerances) -> MultiColligation:
    from .colligation import Colligation
    from .multi import MultiColligation

    alpha, inner = _parse_dims(obj, what, ("alpha", "inner", "members"))
    raw = obj["members"]
    if not isinstance(raw, list) or not raw:
        raise _parse_error(f"{what}: 'members' must be a non-empty list")
    members = []
    for i, entry in enumerate(raw):
        matrix = matrix_from_json(entry, f"{what} member {i}")
        if matrix.shape != (alpha + inner, alpha + inner):
            raise _parse_error(f"{what}: member {i} shape {matrix.shape} does not match alpha+inner")
        members.append(Colligation(matrix, alpha, tol))
    return MultiColligation(members)


def _parse_tri(obj, what: str, tol: Tolerances) -> TriColligation:
    from .conjugacy import TriColligation

    alpha, slot_dim, slots = _parse_dims(obj, what, ("alpha", "p", "slots", "matrix"))
    matrix = matrix_from_json(obj["matrix"], what)
    size = alpha + slots * slot_dim
    if matrix.shape != (size, size):
        raise _parse_error(f"{what}: matrix shape {matrix.shape} does not match the split")
    return TriColligation(matrix, alpha, slot_dim, slots, tol)


@dataclasses.dataclass(frozen=True)
class KindSpec:
    """Everything that differs between document kinds.

    ``parse(obj, what, tol)`` and ``emit(payload)`` convert the payload
    object; ``random(alpha, inner, arity, seed)`` draws one (slot dimension
    and slot count for ``tri``).  ``variables`` names the arguments in order
    and ``argument_dim(payload)`` is the size of a matrix argument (None for
    the scalar ``z``, whose kind has no eigensurface).  ``realize(payload,
    tol)`` builds the :class:`~colligations.realization.Realization` that
    evaluates the characteristic function and its eliminated system.
    """

    parse: Callable
    emit: Callable
    random: Callable
    product: Callable
    variables: tuple[str, ...]
    argument_dim: Callable | None
    realize: Callable


def _module(name: str):
    """The package module ``name``, imported on first use."""
    return importlib.import_module(f"{__package__}.{name}")


# A document loads only its own kind's modules, when an entry first needs
# them.  The entries call through the kind module's attributes, so a wrapper
# bound to those names at run time (a profiler's, say) sees every call.
_MULTI = KindSpec(
    parse=_parse_family,
    emit=lambda mc: {
        "alpha": mc.alpha,
        "inner": mc.inner,
        "members": [matrix_to_json(member.matrix) for member in mc.members],
    },
    random=lambda alpha, inner, arity, seed: _module("multi").random_multi(alpha, inner, arity, seed),
    product=lambda x, y, tol: _module("multi").multi_product(x, y, tol),
    variables=("S",),
    argument_dim=lambda mc: mc.arity,
    realize=lambda mc, tol: _module("multi").multi_realization(mc),
)
KIND_TABLE = {
    "colligation": KindSpec(
        parse=_parse_colligation,
        emit=lambda col: {"alpha": col.alpha, "inner": col.inner, "matrix": matrix_to_json(col.matrix)},
        random=lambda alpha, inner, arity, seed: _module("colligation").random_colligation(alpha, inner, seed),
        product=lambda x, y, tol: _module("colligation").product(x, y, tol),
        variables=("z",),
        argument_dim=None,
        realize=lambda col, tol: _module("colligation").colligation_realization(col),
    ),
    "multi": _MULTI,
    "tri": KindSpec(
        parse=_parse_tri,
        emit=lambda tc: {"alpha": tc.alpha, "p": tc.slot_dim, "slots": tc.slots, "matrix": matrix_to_json(tc.matrix)},
        random=lambda alpha, slot_dim, slots, seed: _module("conjugacy").random_tri(alpha, slot_dim, slots, seed),
        product=lambda x, y, tol: _module("conjugacy").tri_product(x, y, tol),
        variables=("S",),
        argument_dim=lambda tc: tc.slots,
        realize=lambda tc, tol: _module("conjugacy").tri_realization(tc),
    ),
    # The multi family, read with the two-argument function.
    "doublecoset": dataclasses.replace(
        _MULTI,
        variables=("S", "R"),
        realize=lambda fam, tol: _module("doublecoset").dc_realization(fam, tol),
    ),
}
KINDS = tuple(KIND_TABLE)


def parse_document(text: str, tol: Tolerances = DEFAULT_TOLERANCES) -> Document:
    """Parse and validate one JSON document.

    Raises ``DocumentError`` with stage ``"parse"`` for malformed input and
    stage ``"invariant"`` when the input is well-formed JSON describing an
    invalid object (for example a non-unitary matrix).
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integers too long to convert, and nesting too deep
        raise _parse_error(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise _parse_error("document must be a JSON object")
    _require_keys(obj, dict.fromkeys(("kind", "metadata", "payload")), {}, "document")
    kind = obj["kind"]
    if kind not in KINDS:
        raise _parse_error(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    metadata = _parse_metadata(obj["metadata"])
    try:
        payload = KIND_TABLE[kind].parse(obj["payload"], f"{kind} payload", tol)
    except DocumentError:
        raise
    except ColligationError as exc:
        raise DocumentError("invariant", f"{type(exc).__name__}: {exc}") from exc
    return Document(kind, payload, metadata)


def emit_document(doc: Document) -> str:
    """Serialize to the canonical byte form (stable under parse/emit)."""
    obj = {
        "kind": doc.kind,
        "metadata": doc.metadata,
        "payload": KIND_TABLE[doc.kind].emit(doc.payload),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_document(path, tol: Tolerances = DEFAULT_TOLERANCES) -> Document:
    """Read and parse a document file (UTF-8)."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _parse_error(f"cannot read {path}: {exc}") from exc
    return parse_document(text, tol)


def save_document(doc: Document, path) -> None:
    """Write the canonical serialization to a file (UTF-8)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(emit_document(doc))


def random_document(
    kind: str,
    seed: int,
    alpha: int = 2,
    inner: int = 2,
    arity: int = 2,
) -> Document:
    """A seeded random document of any kind.

    ``arity`` is the member count for family kinds and the slot count for the
    coupled kind; ``inner`` is the inner dimension (slot dimension for the
    coupled kind).
    """
    if kind not in KIND_TABLE:
        raise _parse_error(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    metadata = {"schema_version": SCHEMA_VERSION, "seed": int(seed)}
    return Document(kind, KIND_TABLE[kind].random(alpha, inner, arity, seed), metadata)
