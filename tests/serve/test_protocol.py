"""Wire-protocol parsing: strict validation, stable defaults."""

import json

import pytest

from repro.core.serialization import instance_to_dict
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    ProtocolError,
    UnsupportedVersion,
    check_version,
    envelope,
    parse_query,
)


def body(disagree, **extra):
    return {"v": PROTOCOL_VERSION, "instance": instance_to_dict(disagree), **extra}


class TestParseQuery:
    def test_minimal_request_defaults(self, disagree):
        request = parse_query(body(disagree))
        assert len(request.models) == 24
        assert request.queue_bound == 3
        assert request.max_states == 200_000
        assert request.reliable_twin_first is True
        assert request.engine == "packed"
        assert request.reduction == "ample"
        assert request.instance.name == disagree.name

    def test_accepts_bytes_str_and_dict(self, disagree):
        raw = json.dumps(body(disagree))
        for form in (raw, raw.encode(), json.loads(raw)):
            assert parse_query(form).instance.name == disagree.name

    def test_models_bounds_and_config(self, disagree):
        request = parse_query(
            body(
                disagree,
                models=["R1O", "RMS", "R1O"],  # duplicates collapse
                bounds={"queue_bound": 2, "max_states": 50, "reliable_twin_first": False},
                config={"engine": "packed", "reduction": "none"},
            )
        )
        assert request.models == ("R1O", "RMS")
        assert request.queue_bound == 2
        assert request.max_states == 50
        assert request.reliable_twin_first is False
        assert request.engine == "packed"
        assert request.reduction == "none"

    def test_server_default_engine_applies(self, disagree):
        request = parse_query(body(disagree), default_engine="packed")
        assert request.engine == "packed"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b.pop("instance"),
            lambda b: b.update(surprise=1),
            lambda b: b.update(models=[]),
            lambda b: b.update(models=["NOPE"]),
            lambda b: b.update(models="R1O"),
            lambda b: b.update(bounds={"queue_bound": 0}),
            lambda b: b.update(bounds={"queue_bound": True}),
            lambda b: b.update(bounds={"max_states": -1}),
            lambda b: b.update(bounds={"reliable_twin_first": 1}),
            lambda b: b.update(bounds={"step_bound": 5}),
            lambda b: b.update(config={"engine": "warp"}),
            lambda b: b.update(config={"reduction": "magic"}),
            lambda b: b.update(config={"cache_dir": "/tmp/x"}),
            lambda b: b.update(config={"workers": 4}),
            lambda b: b.update(config={"telemetry": "t.jsonl"}),
        ],
    )
    def test_malformed_requests_rejected(self, disagree, mutate):
        request = body(disagree)
        mutate(request)
        with pytest.raises(ProtocolError):
            parse_query(request)

    def test_non_json_and_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            parse_query(b"{nope")
        with pytest.raises(ProtocolError):
            parse_query(b"[1,2]")
        with pytest.raises(ProtocolError):
            parse_query({"v": 2, "instance": {"bogus": True}})

    def test_group_key_separates_bounds_not_models(self, disagree):
        base = parse_query(body(disagree, models=["R1O"]))
        same = parse_query(body(disagree, models=["RMS", "REA"]))
        other = parse_query(body(disagree, bounds={"queue_bound": 2}))
        assert base.group_key("h") == same.group_key("h")
        assert base.group_key("h") != other.group_key("h")


#: Marks a request body that carries no ``"v"`` at all.
MISSING = object()


class TestVersioning:
    """The shared v2 envelope: every endpoint demands ``"v": 2``; a
    version-less (retired v1) body is refused like any other version."""

    def test_current_version_is_supported(self):
        assert PROTOCOL_VERSION == 2
        assert SUPPORTED_VERSIONS == (PROTOCOL_VERSION,)

    @pytest.mark.parametrize("v", sorted(SUPPORTED_VERSIONS))
    def test_supported_versions_pass(self, v):
        assert check_version({"v": v}) == v

    @pytest.mark.parametrize(
        "v",
        [0, 1, 3, 99, -1, "2", 2.0, True, None]
        + [pytest.param(MISSING, id="missing")],
    )
    def test_bad_versions_raise_with_machine_code(self, v):
        with pytest.raises(UnsupportedVersion) as info:
            check_version({} if v is MISSING else {"v": v})
        assert info.value.code == "unsupported-version"

    def test_unsupported_version_is_a_protocol_error(self):
        assert issubclass(UnsupportedVersion, ProtocolError)
        assert ProtocolError("x").code == "bad-request"

    def test_envelope_stamps_current_version(self):
        assert envelope({"shard": 3}) == {"v": 2, "shard": 3}

    def test_parse_query_accepts_versioned_bodies(self, disagree):
        request = parse_query(body(disagree, v=PROTOCOL_VERSION))
        assert request.instance.name == disagree.name
        with pytest.raises(UnsupportedVersion):
            parse_query(body(disagree, v=99))
        unversioned = body(disagree)
        del unversioned["v"]
        with pytest.raises(UnsupportedVersion):
            parse_query(unversioned)

    def test_client_bodies_are_versioned(self, disagree):
        from repro.serve.client import build_query_body

        sent = json.loads(build_query_body(disagree))
        assert sent["v"] == PROTOCOL_VERSION
