"""The serve wire protocol: strict envelopes, both directions."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.serve import protocol

#: Lines under the size cap that ``json.loads`` refuses with something
#: other than a JSON syntax error: nesting past the interpreter's stack
#: (``RecursionError``) and an integer past its digit limit
#: (``ValueError``).
HOSTILE_LINES = (
    b"[" * 200_000 + b"\n",
    (json.dumps({"proto": protocol.PROTOCOL, "id": "r1", "kind": "ping"})[:-1]
     + ', "priority": ' + "9" * 5000 + "}\n").encode(),
)


class TestRequestRoundTrip:
    def test_encode_decode_identity(self):
        request = protocol.Request(
            id="r7", kind="sort", params={"records": 500, "seed": 3},
            client="alice", priority=-2,
        )
        assert protocol.decode_request(request.encode()) == request

    def test_encode_is_one_sorted_json_line(self):
        line = protocol.Request(id="r1", kind="ping").encode()
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        body = json.loads(line)
        assert list(body) == sorted(body)
        assert body["proto"] == protocol.PROTOCOL

    def test_client_defaults_to_absent_on_the_wire(self):
        body = json.loads(protocol.Request(id="r1", kind="ping").encode())
        assert "client" not in body
        assert protocol.decode_request(
            protocol.Request(id="r1", kind="ping").encode()
        ).client is None


class TestRequestValidation:
    def _line(self, **overrides) -> bytes:
        body = {"proto": protocol.PROTOCOL, "id": "r1", "kind": "sort",
                "params": {}, "priority": 0, **overrides}
        return (json.dumps(body) + "\n").encode()

    def test_not_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.decode_request(b"{nope\n")

    def test_not_an_object(self):
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            protocol.decode_request(b"[1, 2]\n")

    def test_wrong_protocol_version(self):
        with pytest.raises(ProtocolError, match="unsupported protocol"):
            protocol.decode_request(self._line(proto="bonsai-serve/v0"))

    def test_missing_or_empty_id(self):
        with pytest.raises(ProtocolError, match="'id'"):
            protocol.decode_request(self._line(id=""))
        with pytest.raises(ProtocolError, match="'id'"):
            protocol.decode_request(self._line(id=17))

    def test_unknown_kind_lists_the_valid_ones(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_request(self._line(kind="teleport"))
        for kind in protocol.WORK_KINDS + protocol.CONTROL_KINDS:
            assert kind in str(excinfo.value)

    def test_params_must_be_an_object(self):
        with pytest.raises(ProtocolError, match="'params'"):
            protocol.decode_request(self._line(params=[1]))

    def test_priority_must_be_an_integer(self):
        with pytest.raises(ProtocolError, match="'priority'"):
            protocol.decode_request(self._line(priority="high"))
        with pytest.raises(ProtocolError, match="'priority'"):
            protocol.decode_request(self._line(priority=True))

    def test_oversize_line_is_refused_before_parsing(self):
        huge = b" " * (protocol.MAX_LINE_BYTES + 1)
        with pytest.raises(ProtocolError, match="byte limit"):
            protocol.decode_request(huge)


class TestHostileLines:
    @pytest.mark.parametrize("line", HOSTILE_LINES, ids=["nesting", "digits"])
    def test_every_decoder_answers_with_a_protocol_error(self, line):
        assert len(line) < protocol.MAX_LINE_BYTES
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.decode_request(line)
        assert protocol.salvage_request_id(line) == "?"
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.decode_response(line)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: Envelopes near the valid shape: every field is optional and each one
#: is either a plausible value or any JSON value.
ENVELOPES = st.fixed_dictionaries({}, optional={
    "proto": st.sampled_from([protocol.PROTOCOL, "bonsai-serve/v0"]) | JSON_VALUES,
    "id": st.text(max_size=8) | JSON_VALUES,
    "kind": st.sampled_from(protocol.WORK_KINDS + protocol.CONTROL_KINDS)
    | JSON_VALUES,
    "params": st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4)
    | JSON_VALUES,
    "client": st.text(max_size=8) | JSON_VALUES,
    "priority": st.integers() | JSON_VALUES,
})


class TestFuzz:
    """Any line decodes to a ``Request`` or raises ``ProtocolError``, and
    ``salvage_request_id`` always returns a string: nothing a client
    sends can raise anything else in the connection handler."""

    @staticmethod
    def check(line: bytes) -> None:
        try:
            request = protocol.decode_request(line)
        except ProtocolError:
            pass
        else:
            assert isinstance(request, protocol.Request)
            assert protocol.decode_request(request.encode()) == request
        assert isinstance(protocol.salvage_request_id(line), str)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, line):
        self.check(line)

    @settings(max_examples=300, deadline=None)
    @given(ENVELOPES | JSON_VALUES)
    def test_arbitrary_json_envelopes(self, body):
        self.check(json.dumps(body).encode() + b"\n")


class TestSalvageRequestId:
    def test_salvages_the_id_from_a_bad_envelope(self):
        # A wrong proto (or kind, or params shape) still carries an id
        # the pipelining client needs echoed back.
        line = (json.dumps({"proto": "bonsai-serve/v0", "id": "r9",
                            "kind": "sort"}) + "\n").encode()
        with pytest.raises(ProtocolError):
            protocol.decode_request(line)
        assert protocol.salvage_request_id(line) == "r9"

    @pytest.mark.parametrize("line", [
        b"{not json\n",
        b"[1, 2]\n",
        b'{"kind": "sort"}\n',            # no id at all
        b'{"id": ""}\n',                  # empty
        b'{"id": 17}\n',                  # wrong type
        b"\xff\xfe\n",                    # not UTF-8
    ])
    def test_unusable_lines_fall_back_to_placeholder(self, line):
        assert protocol.salvage_request_id(line) == "?"


class TestResponses:
    def test_ok_response_round_trip(self):
        body = protocol.decode_response(
            protocol.ok_response("r3", {"digest": "ff"}, cached=True)
        )
        assert body["status"] == "ok"
        assert body["id"] == "r3"
        assert body["cached"] is True
        assert body["result"] == {"digest": "ff"}

    def test_rejected_and_error_responses(self):
        rejected = protocol.decode_response(
            protocol.rejected_response("r4", "overloaded")
        )
        assert (rejected["status"], rejected["reason"]) == ("rejected", "overloaded")
        error = protocol.decode_response(
            protocol.error_response("r5", "ProtocolError: bad job")
        )
        assert error["status"] == "error"
        assert "bad job" in error["reason"]

    def test_reject_reasons_are_the_documented_set(self):
        assert protocol.REJECT_REASONS == ("overloaded", "quota", "draining")

    def test_response_validation(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.decode_response(b"}\n")
        with pytest.raises(ProtocolError, match="unsupported response protocol"):
            protocol.decode_response(b'{"proto": "x", "id": "r", "status": "ok"}\n')
        with pytest.raises(ProtocolError, match="unknown response status"):
            protocol.decode_response(
                json.dumps({"proto": protocol.PROTOCOL, "id": "r",
                            "status": "maybe"}).encode()
            )
