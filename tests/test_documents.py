import json

import numpy as np
import pytest

from releq import (
    Configuration,
    DocumentError,
    Problem,
    ProblemDocument,
    dumps_document,
    parse_document,
    save_document,
)
from releq import documents
from releq.documents import (
    json_chunks,
    load_document,
    write_blocks,
    write_text_atomic,
)

import oracles


@pytest.fixture
def oracle_doc_text():
    prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
    cfg = Configuration(oracles.two_body_points(1.0, 1.0, 1.0, -1.5))
    return dumps_document(ProblemDocument(prob, cfg, {"note": "oracle"}))


def test_round_trip_is_fixed_point(oracle_doc_text):
    doc = parse_document(oracle_doc_text)
    text = dumps_document(doc)
    assert text == oracle_doc_text
    assert dumps_document(parse_document(text)) == text


def test_parsed_values(oracle_doc_text):
    doc = parse_document(oracle_doc_text)
    prob = doc.problem
    cfg = doc.config
    assert prob.n == 2 and prob.k == 2 and prob.a == -1.5
    assert cfg.points.shape == (2, 2)
    assert doc.metadata == {"note": "oracle"}


def test_positions_optional():
    prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
    doc = parse_document(dumps_document(ProblemDocument(prob)))
    assert doc.config is None


def test_syntax_error_carries_line():
    with pytest.raises(DocumentError, match="line 2"):
        parse_document('{\n  "schema_version": }')


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d.pop("exponent"), "exponent"),
    (lambda d: d.update(exponent=-0.3), "exponent"),
    (lambda d: d.update(exponent="x"), "exponent"),
    (lambda d: d.update(dimension=1), "dimension"),
    (lambda d: d.update(dimension=2.5), "dimension"),
    (lambda d: d.update(masses=[1.0]), "masses"),
    (lambda d: d.update(masses=[1.0, -1.0]), "masses"),
    (lambda d: d.update(frequencies=[1.0, 2.0]), "frequencies"),
    (lambda d: d.update(positions=[[0.0, 0.0]]), "positions"),
    (lambda d: d.update(positions=[[1.0], [-1.0]]), "positions"),
    (lambda d: d.update(metadata={"a": 1}), "metadata"),
    (lambda d: d.update(schema_version="99"), "schema_version"),
    (lambda d: d.update(bogus=1), "bogus"),
    (lambda d: d.update(masses=["a", 1.0]), "masses"),
    (lambda d: d.update(dimension=True), "dimension"),
    (lambda d: d.update(exponent=True), "exponent"),
    (lambda d: d.update(positions=[["x", 0.0], [1.0, 0.0]]), "positions[0]"),
])
def test_field_errors(oracle_doc_text, mutate, field):
    raw = json.loads(oracle_doc_text)
    mutate(raw)
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(raw))
    assert field.strip() in str(err.value)


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.update(bogus=1, zeta=2), "unknown field(s): bogus, zeta"),
    (lambda d: d.pop("masses"), "missing required field 'masses'"),
    (lambda d: d.update(schema_version="99"),
     "field 'schema_version' must be the string '1'"),
    (lambda d: d.update(dimension=True), "field 'dimension' must be an integer"),
    (lambda d: d.update(exponent=True), "field 'exponent' must be a number"),
    (lambda d: d.update(masses=["a", 1.0]),
     "field 'masses' must be an array of numbers"),
    (lambda d: d.update(positions=[[0.0, 0.0]]),
     "field 'positions' must be an array of 2 points"),
    (lambda d: d.update(positions=[["x", 0.0], [1.0, 0.0]]),
     "field 'positions[0]' must be an array of numbers"),
    (lambda d: d.update(positions=[[1.0], [-1.0]]),
     "field 'positions[0]' must have length 2, got 1"),
    (lambda d: d.update(metadata={"a": 1}),
     "field 'metadata' must be a string-to-string map"),
])
def test_error_message_names_the_field(oracle_doc_text, mutate, message):
    # the message is all a DocumentError carries, so its bytes are pinned
    raw = json.loads(oracle_doc_text)
    mutate(raw)
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(raw))
    assert str(err.value) == message


def test_colliding_positions_rejected(oracle_doc_text):
    raw = json.loads(oracle_doc_text)
    raw["positions"] = [[0.0, 0.0], [1e-14, 0.0]]
    with pytest.raises(DocumentError):
        parse_document(json.dumps(raw))


def test_save_and_load(tmp_path, oracle_doc_text):
    path = tmp_path / "doc.json"
    save_document(path, parse_document(oracle_doc_text))
    assert path.read_text() == oracle_doc_text
    doc = load_document(path)
    assert doc.problem.k == 2


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.json"
    write_text_atomic(path, "hello\n")
    write_text_atomic(path, "world\n")
    assert path.read_text() == "world\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class _Writes:
    """A text handle that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_str_is_written_as_one_piece():
    text = "x" * (3 * documents._BLOCK + 1)
    handle = _Writes()
    write_blocks(handle, text)
    assert handle.writes == [text]


def test_chunks_are_written_in_bounded_blocks():
    chunks = [str(i % 10) for i in range(2 * documents._BLOCK + 5)]
    handle = _Writes()
    write_blocks(handle, iter(chunks))
    assert [len(w) for w in handle.writes] == [documents._BLOCK,
                                               documents._BLOCK, 5]
    assert "".join(handle.writes) == "".join(chunks)


def test_json_chunks_are_the_indented_dump():
    payload = {"a": [0.1, -2.5e-300, float("inf"), None, True],
               "b": {"c": [], "d": {}, "e": "\u00e9"}, "f": 3}
    assert "".join(json_chunks(payload)) == json.dumps(payload, indent=2) + "\n"


def test_atomic_write_of_chunks(tmp_path):
    path = tmp_path / "out.json"
    chunks = [f"{i}\n" for i in range(3 * documents._BLOCK)]
    write_text_atomic(path, (c for c in chunks))
    assert path.read_text() == "".join(chunks)
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_failure_mid_write_keeps_old_target(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    seen = []

    def chunks():
        yield from ["new\n"] * documents._BLOCK
        # the first block went to the temp file before this raises
        seen.extend(p.name for p in tmp_path.glob("*.tmp"))
        raise RuntimeError("encoder failed")

    with pytest.raises(RuntimeError, match="encoder failed"):
        write_text_atomic(path, chunks())
    assert len(seen) == 1
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_numbers_round_trip_bit_faithfully():
    values = [0.1, 1.0 / 3.0, 2.0 ** 0.5, 1e-300, -1.2345678901234567e17]
    prob = Problem(2, [1.0, 1.0], [1.0], -1.5)
    cfg = Configuration(np.array([[values[0], values[1]],
                                  [values[2], values[3]]]) + 1.0)
    text = dumps_document(ProblemDocument(prob, cfg))
    back = parse_document(text).config
    assert np.array_equal(back.points, cfg.points)


def test_configuration_must_fit_problem():
    prob = Problem(2, [1.0, 1.0, 1.0], [1.0], -1.5)
    cfg = Configuration(oracles.two_body_points(1.0, 1.0, 1.0, -1.5))
    with pytest.raises(ValueError, match="does not match"):
        ProblemDocument(prob, cfg)
