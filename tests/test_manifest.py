import json

import pytest

from dihedralcalc import __version__
from dihedralcalc.manifest import canonical_bytes, digest, make_manifest, \
    toolchain, wrap


def test_canonical_bytes_sorted_and_stable():
    a = canonical_bytes({"b": 1, "a": [2, {"z": 3, "y": 4}]})
    b = canonical_bytes({"a": [2, {"y": 4, "z": 3}], "b": 1})
    assert a == b
    assert a == b'{"a":[2,{"y":4,"z":3}],"b":1}\n'


def test_canonical_bytes_rejects_nan():
    with pytest.raises(ValueError):
        canonical_bytes({"x": float("inf")})


def test_digest_tracks_content():
    assert digest({"x": 1}) != digest({"x": 2})
    assert len(digest({})) == 64


def test_toolchain_fields():
    info = toolchain()
    assert info["package"] == __version__
    assert info["python"].count(".") == 2


def test_wrap_structure_and_digest():
    doc = wrap("cone", {"n": 3, "m": 3}, {"rows": [1, 2]}, seed=None,
               field={"mode": "cyclotomic", "n": 3})
    mani = doc["manifest"]
    assert mani["command"] == "cone"
    assert mani["parameters"] == {"n": 3, "m": 3}
    assert mani["field"]["n"] == 3
    assert mani["digests"]["payload"] == digest(doc["payload"])
    # the document itself is canonically serializable
    round_trip = json.loads(canonical_bytes(doc))
    assert round_trip == doc


def test_equal_payloads_equal_manifests():
    a = make_manifest("audit", {"n": 4}, {"payload": {"k": [1]}})
    b = make_manifest("audit", {"n": 4}, {"payload": {"k": [1]}})
    assert a == b
    assert canonical_bytes(a) == canonical_bytes(b)
