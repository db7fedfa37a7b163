import json

import numpy as np
import numpy.testing as npt
import pytest

from colligations.documents import (
    KINDS,
    emit_document,
    load_document,
    matrix_from_json,
    matrix_to_json,
    parse_document,
    random_document,
    save_document,
)
from colligations.errors import DocumentError


def payload_matrices(doc) -> list[np.ndarray]:
    payload = doc.payload
    if hasattr(payload, "members"):
        return [g.matrix for g in payload.members]
    return [payload.matrix]


class TestMatrixCodec:
    def test_round_trip(self):
        m = np.array([[1.0 + 2.0j, 0.0], [-0.5j, 3.0]])
        npt.assert_array_equal(matrix_from_json(matrix_to_json(m), "test"), m)

    def test_row_major_pairs(self):
        encoded = matrix_to_json(np.array([[1.0 + 2.0j, 3.0]]))
        assert encoded == [[[1.0, 2.0], [3.0, 0.0]]]

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            [[]],
            [[1.0, 0.0]],
            [[[1.0]]],
            [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            [[[1.0, True]]],
            "nope",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(DocumentError) as err:
            matrix_from_json(bad, "test")
        assert err.value.stage == "parse"


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_emit_parse_emit_is_stable(self, kind):
        doc = random_document(kind, seed=5)
        text = emit_document(doc)
        again = emit_document(parse_document(text))
        assert text == again
        assert text.endswith("\n")

    @pytest.mark.parametrize("kind", KINDS)
    def test_payload_survives(self, kind):
        doc = random_document(kind, seed=6)
        parsed = parse_document(emit_document(doc))
        assert parsed.kind == kind
        assert parsed.metadata == doc.metadata
        for ours, theirs in zip(payload_matrices(doc), payload_matrices(parsed)):
            npt.assert_array_equal(ours, theirs)

    def test_canonical_layout(self):
        text = emit_document(random_document("colligation", seed=7))
        assert "\n" not in text[:-1]
        assert ": " not in text
        assert json.loads(text)["metadata"]["seed"] == 7

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "doc.json"
        doc = random_document("multi", seed=8)
        save_document(doc, path)
        loaded = load_document(path)
        assert emit_document(loaded) == emit_document(doc)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DocumentError) as err:
            load_document(tmp_path / "absent.json")
        assert err.value.stage == "parse"


class TestParseErrors:
    def test_truncated_json(self):
        with pytest.raises(DocumentError) as err:
            parse_document('{"kind": "colligation"')
        assert err.value.stage == "parse"

    def test_unknown_kind(self):
        with pytest.raises(DocumentError, match="unknown kind"):
            parse_document('{"kind": "widget", "metadata": {"schema_version": "1"}, "payload": {}}')

    def test_unknown_schema_version(self):
        doc = json.loads(emit_document(random_document("colligation", seed=0)))
        doc["metadata"]["schema_version"] = "2"
        with pytest.raises(DocumentError, match="schema_version"):
            parse_document(json.dumps(doc))

    def test_unexpected_key(self):
        doc = json.loads(emit_document(random_document("colligation", seed=0)))
        doc["extra"] = 1
        with pytest.raises(DocumentError, match="unexpected key"):
            parse_document(json.dumps(doc))

    def test_shape_mismatch(self):
        doc = json.loads(emit_document(random_document("colligation", seed=0)))
        doc["payload"]["alpha"] = 3
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(doc))
        assert err.value.stage == "parse"

    def test_non_unitary_is_an_invariant_error(self):
        doc = json.loads(emit_document(random_document("colligation", seed=0)))
        doc["payload"]["matrix"][0][0] = [2.0, 0.0]
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(doc))
        assert err.value.stage == "invariant"
        assert "NotUnitary" in str(err.value)


class TestFactories:
    @pytest.mark.parametrize("kind", KINDS)
    def test_random_document_deterministic(self, kind):
        first = emit_document(random_document(kind, seed=10))
        second = emit_document(random_document(kind, seed=10))
        assert first == second

    def test_random_document_dimensions(self):
        doc = random_document("tri", seed=11, alpha=2, inner=3, arity=2)
        assert (doc.payload.alpha, doc.payload.slot_dim, doc.payload.slots) == (2, 3, 2)
        doc = random_document("doublecoset", seed=12, alpha=1, inner=2, arity=3)
        assert (doc.payload.alpha, doc.payload.inner, doc.payload.arity) == (1, 2, 3)

    def test_random_document_unknown_kind(self):
        with pytest.raises(DocumentError) as err:
            random_document("widget", seed=0)
        assert err.value.stage == "parse"
