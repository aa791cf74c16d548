import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from dihedralcalc import cli, cones, prering
from dihedralcalc.building import ChamberGraph, WeightedConfiguration, \
    min_slope_scan, slope_at
from dihedralcalc.cli import SYSTEM_CHOICES, main, system_from_spec
from dihedralcalc.cones import DominantWeight, gen_km, gen_wti, theta_system
from dihedralcalc.manifest import canonical_bytes, digest, wrap


def run(tmp_path, *argv, expect=0):
    code = main(list(argv))
    assert code == expect, argv
    return code


def load(path):
    return json.loads(path.read_text())


def write_point(tmp_path, weights, name="point.json"):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"weights": [[str(a), str(b)] for a, b in weights]}))
    return path


# -- system specs ----------------------------------------------------------------

def test_system_spec_slot_convention():
    assert system_from_spec("wti", 3, 4).slots == 4
    assert system_from_spec("km", 3, 4).slots == 4
    assert system_from_spec("theta:bk", 4, 3).slots == 3
    assert system_from_spec("theta:km", 3, 4).key_set == \
        theta_system(gen_km(3, 3, "at")).key_set


def test_system_spec_rejects_unknown():
    from dihedralcalc.errors import InvalidParameterError
    with pytest.raises(InvalidParameterError):
        system_from_spec("nope", 3, 3)
    with pytest.raises(InvalidParameterError):
        system_from_spec("a1", 3, 3)  # oracle pinned to n = 2


# -- cone ---------------------------------------------------------------------------

def test_cone_json_artifact(tmp_path):
    dest = tmp_path / "wti.json"
    run(tmp_path, "cone", "--system", "wti", "--n", "3", "--m", "3",
        "--out", "json", "--dest", str(dest))
    doc = load(dest)
    assert doc["manifest"]["command"] == "cone"
    assert doc["manifest"]["digests"]["payload"] == digest(doc["payload"])
    payload = doc["payload"]
    assert payload["n"] == 3 and payload["m"] == 3
    assert len(payload["inequalities"]) == len(gen_wti(3, 3).inequalities)


def test_cone_high_degree_field(tmp_path, monkeypatch):
    # n = 101 works over a degree-100 field once the budget admits m*n = 202
    monkeypatch.setenv("DIHEDRALCALC_BUDGET", "202")
    dest = tmp_path / "wti.json"
    run(tmp_path, "cone", "--system", "wti", "--n", "101", "--m", "2",
        "--dest", str(dest))
    assert load(dest)["payload"]["n"] == 101


def test_cone_default_filename(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(tmp_path, "cone", "--system", "wti", "--n", "3", "--m", "3",
        "--out", "json")
    assert (tmp_path / "wti-n3-m3.json").exists()


def test_cone_latex_rendering(tmp_path):
    dest = tmp_path / "sys.tex"
    run(tmp_path, "cone", "--system", "wti", "--n", "4", "--m", "3",
        "--out", "latex", "--dest", str(dest))
    text = dest.read_text()
    assert text.startswith("% manifest: {")
    assert "\\begin{align*}" in text
    assert text.count("\\le 0") == len(gen_wti(4, 3).inequalities)


def test_cone_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        run(tmp_path, "cone", "--system", "sti", "--n", "4", "--m", "3",
            "--dest", str(dest))
    assert a.read_bytes() == b.read_bytes()


# -- member ----------------------------------------------------------------------------

def test_member_zero_point(tmp_path, capsys):
    point = write_point(tmp_path, [(0, 0)] * 3)
    dest = tmp_path / "verdict.json"
    run(tmp_path, "member", "--system", "wti", "--n", "3", "--m", "3",
        "--point", str(point), "--dest", str(dest))
    assert capsys.readouterr().out.strip() == "member"
    assert load(dest)["payload"] == {"member": True}


def test_member_violated_point(tmp_path):
    point = write_point(tmp_path, [(3, 0), (0, 0), (0, 0)])
    dest = tmp_path / "verdict.json"
    run(tmp_path, "member", "--system", "wti", "--n", "3", "--m", "3",
        "--point", str(point), "--dest", str(dest))
    payload = load(dest)["payload"]
    assert payload["member"] is False
    assert payload["violated"]["system"] == "WTI"
    assert len(payload["violated_key"]) == 3


def test_member_stdout_mode(tmp_path, capsys):
    point = write_point(tmp_path, [(0, 0)] * 3)
    run(tmp_path, "member", "--system", "wti", "--n", "3", "--m", "3",
        "--point", str(point))
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["member"] is True
    assert doc["manifest"]["parameters"]["point_sha256"]


def test_member_rejects_malformed_point(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"weights": [["1"], ["2", "3"], ["0", "0"]]}')
    run(tmp_path, "member", "--system", "wti", "--n", "3", "--m", "3",
        "--point", str(path), expect=2)


# -- audit / equal ------------------------------------------------------------------------

def test_audit_wti_all_facets(tmp_path):
    dest = tmp_path / "audit.json"
    run(tmp_path, "audit", "--system", "wti", "--n", "3", "--m", "3",
        "--dest", str(dest))
    payload = load(dest)["payload"]
    assert payload["facets"] == len(gen_wti(3, 3).inequalities)
    assert payload["redundant"] == 0
    assert all(e["status"] == "facet" for e in payload["entries"])


def test_equal_wti_sti(tmp_path):
    dest = tmp_path / "eq.json"
    run(tmp_path, "equal", "--a", "wti", "--b", "sti", "--n", "3",
        "--m", "3", "--dest", str(dest))
    payload = load(dest)["payload"]
    assert payload["equal"] is True
    assert payload["forward"] and payload["backward"]


def test_equal_unequal_cones_exit_1(tmp_path):
    # without the star twist the cohomological cone differs for odd n
    dest = tmp_path / "neq.json"
    run(tmp_path, "equal", "--a", "km", "--b", "wti", "--n", "3",
        "--m", "4", "--dest", str(dest), expect=1)
    payload = load(dest)["payload"]
    assert payload["equal"] is False
    assert "counterexample" in payload
    # pins the separating LP vertex exported as the counterexample witness
    assert digest(payload) == \
        "a5d5ea8dee9e54691b11171dd58ca1e60ccece7df00c9178137a34c18106a496"


# -- mult-table -----------------------------------------------------------------------------

@pytest.mark.parametrize("algebra", ["at", "gr", "limit", "bi"])
def test_mult_table_shapes(tmp_path, algebra):
    dest = tmp_path / f"{algebra}.json"
    run(tmp_path, "mult-table", "--n", "4", "--algebra", algebra,
        "--dest", str(dest))
    payload = load(dest)["payload"]
    assert payload["n"] == 4
    expected = 4 if algebra == "bi" else 8
    assert len(payload["basis"]) == expected
    assert len(payload["table"]) == expected * expected


def test_mult_table_bi_side_flag(tmp_path):
    one = tmp_path / "b1.json"
    two = tmp_path / "b2.json"
    run(tmp_path, "mult-table", "--n", "5", "--algebra", "bi",
        "--side", "1", "--dest", str(one))
    run(tmp_path, "mult-table", "--n", "5", "--algebra", "bi",
        "--side", "2", "--dest", str(two))
    assert load(one)["payload"]["basis"] != load(two)["payload"]["basis"]


# Payload digests of `mult-table` for every n the algebra-tables benchmark
# exports, per n in the order at, gr, limit, bi --side 1, bi --side 2.
# Payloads, not whole files: the manifest names the Python version.
MULT_TABLE_PINS = {
    2: (
        "ef378a75f80413f13d714c9966e2af6346101fa7373bf21c4d106111fb767e92",
        "ef378a75f80413f13d714c9966e2af6346101fa7373bf21c4d106111fb767e92",
        "7e30e15ed9715d4e9e6e08b678e9d0ef7effd2d797f5c3541965e5e850c96af6",
        "15225969fa92169c18bf053f9c85ddff98b6f993c25cf56061bdcde04bea7b60",
        "761892aa73871b6b669ad274c853f9d3f0aa9104aa0b545658cbf3ee38b356ca",
    ),
    3: (
        "553586579c3e089a986db47e7ac30aa6b4958e1487544187182194bf2c54d05d",
        "28c633404602b72a060d90a27c4f93b514c27a4bae8ced686a04d8caf71bb190",
        "e08edd14aa82a8ac3a44b51f4b17b0c6181dff4206bc8608e3185844398911d3",
        "c4e7605a0f48a560e7a3d4b5dd6fd8f6528c3f0c7caa3209195d9c0a50e6ce35",
        "5f289cd2154735878d93e1b8f860f31d419f89bdd6af7cf1242ecec13c3c9184",
    ),
    4: (
        "392a1d7f8a0ef8bf1b8d3fd4b3446ed63b2fa471b49be287feb28822ce016071",
        "6bb37036279dce8738c92b284e3ee0948922632ca38cb7b88c95518ca3b5b41f",
        "c001f0de75c8f80a836ef6096b5a7c0116030e5d45e9ce556a67ca679cd82b9c",
        "ffacb0b0cfff54396492bb0724737305a0be939733b47187d20071041f5b4859",
        "79d779a05e9a9e915cbdf74766a1ae8bd7ffbeb09b0b54ba7041583562d9d0aa",
    ),
    5: (
        "9168f5bebc5c2604b8db6e22bfab986cbe9c692ed93813fb6d0b4367696651fb",
        "31794244ef1a2b7324128ec47b92108c7a5bced0b5aeecde5b237905df1c5db7",
        "08bee4591eee321c3a827da027750f411c16cca4ded181287a1de164785a974c",
        "214d9c57e29d71f0d4477c47a598fe3318340bb88c3f3bbd6d58453ccb7b1348",
        "14fadc2a4ef8b241771484686853b38267bc66909410fb736f5361d4d5150d09",
    ),
    6: (
        "6c919931b38455641d09026682e85a11e41c189d8f3b6c4ccc29175a11de7d56",
        "0ab08c100fcffe7a288ac1e2fdb60a7638c482a5db8b2cd6a850a50c4833767f",
        "b1d92039e611f9ab258269b8917c7045ad119e27d6dba0ea8ebb0118af5fdf0e",
        "6ad4f3264926704e238d937c53c884be1f90847564301fd53ad653fcd4cfe4f7",
        "ffbc25d3a1e3c3141c488b13b0d2ea9fb0d1aff5fb5ac43db4487381cf7d7422",
    ),
    7: (
        "f59913cfdc123cabedf9783993ad37ddf78e1540a42b081dd77177608052cd93",
        "2c49c758c96f27998be27d7eb7777cc19271c35e8b44ad14037768ec74d21e9c",
        "70b22bf44b661896fc8ec9888d15833ea89cf8e0621a07caaf7d106ceeb08311",
        "b57b2328556574975f328da433a8c62af60e9ad03043a3a3e50944efcdf3ffc9",
        "25e1026a512b362282c76adaf6d97e6b0c80c9939670d1653f81b5ca44879b89",
    ),
    8: (
        "9b4f1d588811ddf7ae835c9c04f136c264e2896081fde6b0147a32157024e561",
        "aab41fe151e04b60cd9fd708a40bf519a7f7207832f1d21af9687327a00c3856",
        "a4958bc412b4c07f87232c5207da93d79fb630cf6a055727f17927c51d7df827",
        "0e85b1f4e7d8be17887fdea5c6aba21d8d69479629fe223237fd1866f066a94e",
        "f3f8b1254b72ae862213f7539acb7f990c16ce426d008315d01d33e3aa0054a7",
    ),
    9: (
        "8c88163408919b8ab677c68a348b1654da7deac8d5aa5e1a882b23c7771ff95e",
        "2b783f15fdd80f560529d4e46b177420840a6f042d0e5ba457ac35b1fabdf618",
        "4072c85c14dab2e4fe03a444943b1170078e21f0dbfe4247557da92e5a90c5d5",
        "608d2e2f2310e8dadafb0907ff28ee141bf6159887e04aa617e48021c8a24909",
        "89b3db704c5a57d2f8d08ae8ee1b8138158b746df67701989d3505eb2be05ed9",
    ),
    10: (
        "0ea77c415d102426fc17690d18ec0449040d96726563572dcdf30d8b3f1851ac",
        "03a8ab798c3379ff836d331e2b16e4658b4f30b0188578f7fa0e08f4dd8cc9d0",
        "862c279635324e170b4e6ef60efa53c52367af86f306ad7dacf4acc845caf3c9",
        "c0e6e428601538f3357b470431063700d4a3da2d5cdf4085e0c6e4db07b01e96",
        "827b1fbabcc8a0b21bd56bcdbab63a5e2d7f3a7ce1fb92657a23e1158877f939",
    ),
    11: (
        "f63b66f41c92fb75320ebfb4b0b50dcc8e6ed4dab245fe4f124bb8f66db4cea2",
        "a605199dfb9acccad4c19425acf2d1bb515bc2712cea6c3f265cb6b3cac0fcac",
        "57e10e9428350a3e6f6c9b798a8e7835143b744c07f1668b7037b33078e54bf7",
        "36c116cd91d7f3dc69635e9008a41fb3fb3c9c09d0cf1c6c0b1412e92d06f0d6",
        "1cd52014fc7044f7755506c41206579f711547180d874b01a9eed989a9f49ec8",
    ),
    12: (
        "497c3724165f7e6f8228a00f5cb348fd2b7a2bfc48810884e400929dd418b3a7",
        "4da8d69525ac3f2efda8d4ded8b6b496abf7174dc352e50ce70db35fb93b6773",
        "f6176f83ed4528d99510cc77a87cca0b79459e45c539246c315ebfa5422e63ca",
        "6735edd11aad85c4306232e57419e292f0cb614e7e9a784e47bbc3c407de01c2",
        "55810b919a1086699bc503d2570f172c824398ecb19b9ac0763b0d09b32aab21",
    ),
    13: (
        "b129c692c1e0333408c2e96ef5b197dd0cf00411ca7985e4182db3f044a95f53",
        "3732c04ee3d92db5dcbe7ce8d279564da928d185d3ef49310e1eabae5e9d5c3b",
        "fa130c0f8cd85d8c74beac39fca3b360dbada9f13e9c1fc334e3853adf7d8700",
        "b22e378b082e56ea25435eccde024d5562b154d7277bb65ec68cb3bdf8e55ff0",
        "73c6402eb5ed6a06cb0ecc7ca9838a3f2df84f9361b1155d9e0b2fe8a10ae4f5",
    ),
    14: (
        "12b72d16fb5de2933931d8fd8e6d009af2be2ef008dbc5112daea19f85071237",
        "48c74750b033745cc2d4caf08c485ccd02641b9e390b915be4b3c85f65360c6c",
        "f013f737de28a5f7334ed12b29c174e6cba73a6c59632b31efc3745822de0a6b",
        "f0fcf288e1a6aa18f6171ec6e06abda4b99623f965b2618e70aa581b364e85b2",
        "82caae0a4a142bfddb76b5d00ceaca6f55792d87e998a47509d67d7effb4cc37",
    ),
    15: (
        "8dcc83e4050fde59c76e4dbaaf8ecd18ef6b3a9afa5c730d93877aa0d4ac9b63",
        "980454bdb37bcf594792863d432a6f4255866fa345ef9c630ebfa09e5be06adc",
        "a65c19da84b4ebe408fbcf0e18379492f60e8223725247d51e4ed67a14ebd55d",
        "aa48d7cba6d455839a22422f36dd089653a6795f61eebaf1fe7889549902f1ab",
        "e2452dcb152facf8052891a1b2c57b900507b44027a1c032cf2dffe6eea54c2a",
    ),
    16: (
        "a866b2af03fe9f7e950191668fe270dfd6f2c2fbd220e0dd463b44a00de11889",
        "c7280ec30a89bb1dfd6bf8ddcc29eb1068f82258c66ee5e143f73528d42bfd7c",
        "ee232645ca7d7288a593befe7a7792959404d1cad3495e632e5709cfc8793434",
        "bf50c8a29ee0b7058a31c697b570495e9f629bdbcf5ec964720d85608a0f973d",
        "23a3c3753a3f55f73b2a4864256e2f53da8754730e21e02dcf130dcc88f6cca2",
    ),
    17: (
        "39b733c2cd5307bd1567639902c02b01503c7de263766157e44d34dc0472ffac",
        "cc79ea7b8936512d796c9104152811af069e6d04251922cef60e3d98e21250c9",
        "2d8470a2ea7b3975348022ff21ac3dbab7c7ab79fc8885436f4d10522c492169",
        "f0e2561697d9087cec9b7bc65a441318249672517bfb6450e26e9223092c8788",
        "72665a48a6eeb52ae5fe16ec984c688edc795df59747727c0924097d7eb95752",
    ),
    18: (
        "9b7cc23e57845f5651fdad0ef6a6bd7e302a31d17404b60daedfe6910689c48f",
        "1c01719bfba35b437858493d12f2bf6619d68282599402dfcbe5f0dd714b5d9b",
        "cae2bad3e212c748c83444686aa3bbbdb8b71a322d2c4f8ff6c8d5de36938ef6",
        "1cc8041f3e0e26c899d9b6c73eee88c7f827cb7bfc3e86f34ca0ab0f3f3e5b3b",
        "112e67e079bca89fed0c64ef47f37186d977a11289fdbe0cbdc55e88ea3de6c2",
    ),
    19: (
        "e5823bed0cacd2c3fac785c6089dc4469942767866eb5b2ed8d7e12378fbc127",
        "98ba7ce2d2ca08baa0424f830b7863ace0e69fb7abd876352a476750504a3d60",
        "09f44edee0f61c3496e756ce88bc18d5e671d32091b1b3d87c798bbb35555ef0",
        "fec0051948e156f09d9c09bec9ec1616e4b3642af3cd12a2255cc8996553a6d6",
        "74de0a5ef1a6eb11601ecd748bbdd0d5f68e35a353b7370d4f901b90e9965e7b",
    ),
    20: (
        "da2d67d7b513bae446f3ebb8acf54f3dc42aa43531e04f63d7919bc2757b0d93",
        "a19007d328f094ef537842e016084e71dfa0f2b3f3f02fb1a84973132850caac",
        "6c6763f9c434cbb3bbf1260a2575858602e75b1ac6e8a67fb6516d2a4c9d8d9e",
        "40971225e00dfa300d6abf706258b9fb3bcea280d992bb124d3f94fa539214c2",
        "09e4c9a3f463eb86bba96fded4a58fb343b7841873f4ecf68fa01aefb4ea14b3",
    ),
}
MULT_TABLE_KINDS = (["at"], ["gr"], ["limit"], ["bi", "--side", "1"],
                    ["bi", "--side", "2"])


@pytest.mark.parametrize("n", sorted(MULT_TABLE_PINS))
def test_mult_table_payload_pinned(tmp_path, n):
    found = []
    for kind in MULT_TABLE_KINDS:
        dest = tmp_path / f"{'-'.join(kind)}.json"
        run(tmp_path, "mult-table", "--n", str(n), "--algebra", *kind,
            "--dest", str(dest))
        doc = load(dest)
        assert doc["manifest"]["digests"]["payload"] == digest(doc["payload"])
        found.append(digest(doc["payload"]))
    assert tuple(found) == MULT_TABLE_PINS[n]


# -- artifact encoding ---------------------------------------------------------------

JSON_SCALARS = (st.none() | st.booleans()
                | st.integers(-2 ** 300, 2 ** 300)
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.text())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(payload=JSON_VALUES | st.sampled_from([{}, [], "", {"": {}}]),
       parameters=st.dictionaries(st.text(max_size=6), JSON_SCALARS,
                                  max_size=3),
       seed=st.none() | st.integers(0, 2 ** 70),
       field=st.none() | st.dictionaries(st.text(max_size=4), JSON_SCALARS,
                                         max_size=2))
def test_document_bytes_equal_the_wrapped_encoding(payload, parameters, seed,
                                                   field):
    # the payload is encoded once and spliced in after the manifest
    data = cli._document_bytes("cmd", parameters, payload, seed=seed,
                               field=field)
    assert data == canonical_bytes(
        wrap("cmd", parameters, payload, seed=seed, field=field))
    doc = json.loads(data)
    assert doc["manifest"]["digests"]["payload"] == digest(payload)


# -- build / slope -----------------------------------------------------------------------------

def test_build_deterministic_and_metrical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        run(tmp_path, "build", "--n", "3", "--stages", "2", "--seed", "11",
            "--dest", str(dest))
    assert a.read_bytes() == b.read_bytes()
    payload = load(a)["payload"]
    assert len(payload["metrics"]) == 3  # initial + two stages
    assert all(stage["girth"] == 6 for stage in payload["metrics"])
    assert len(payload["chambers"]) == 3
    graph = ChamberGraph.from_json(payload["graph"])
    assert graph.n == 3


# Payload digests of ``build`` at seed 12345 for n = 4, 5 and 6: the
# determinism battery pins only n = 3, so these pin bar_step growth past it.
# (5, 4) and (6, 3) reach diameters 15 and 16 with more than 10^5 pairs per
# bar_step scan.
@pytest.mark.parametrize("n, stages, pin", [
    (4, 3, "f4ffe2846ffe65d74117ebd0a0657728e80c46545ad5f3f0c263808816018449"),
    (5, 2, "dc180d0f49de3aa2f77ac9c9594995e9137852b15dd46da7ee2bb978dc0d8d60"),
    (5, 4, "ff8497fa14f8915e93ce610465952cd40273b30680d424b104eefa63f3f3f2dc"),
    (6, 3, "40de38b8649538115de57c0ea8c6f73792596dcb8b20343b69f482376d23f6e5"),
])
def test_build_payload_pinned(tmp_path, n, stages, pin):
    dest = tmp_path / "g.json"
    run(tmp_path, "build", "--n", str(n), "--stages", str(stages),
        "--seed", "12345", "--dest", str(dest))
    assert digest(load(dest)["payload"]) == pin


def test_build_seed_changes_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(tmp_path, "build", "--n", "4", "--stages", "1", "--seed", "1",
        "--dest", str(a))
    run(tmp_path, "build", "--n", "4", "--stages", "1", "--seed", "2",
        "--dest", str(b))
    assert load(a)["manifest"]["seed"] == 1
    assert load(b)["manifest"]["seed"] == 2


def test_slope_matches_library(tmp_path):
    dest = tmp_path / "g.json"
    run(tmp_path, "build", "--n", "3", "--stages", "1", "--seed", "5",
        "--dest", str(dest))
    payload = load(dest)["payload"]
    graph = ChamberGraph.from_json(payload["graph"])
    chambers = [tuple(c) for c in payload["chambers"][:2]]
    weights = [DominantWeight(Fraction(1), Fraction(2)),
               DominantWeight(Fraction(0), Fraction(1))]
    config = WeightedConfiguration(graph, chambers, weights)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "chambers": [list(c) for c in chambers],
        "weights": [["1", "2"], ["0", "1"]]}))
    out = tmp_path / "scan.json"
    run(tmp_path, "slope", "--graph", str(dest), "--config", str(cfg),
        "--dest", str(out))
    scanned = load(out)["payload"]
    for l, expect in min_slope_scan(config, within=3).items():
        got = scanned[f"grassmannian_{l}"]
        assert got["vertex"] == expect.vertex
        assert got["value"] == expect.value.to_json()

    eta_out = tmp_path / "eta.json"
    run(tmp_path, "slope", "--graph", str(dest), "--config", str(cfg),
        "--eta", "2", "--dest", str(eta_out))
    assert load(eta_out)["payload"]["slope"] == \
        slope_at(config, 2).to_json()


def test_slope_accepts_bare_graph_json(tmp_path):
    graph = ChamberGraph.apartment(3)
    raw = tmp_path / "bare.json"
    raw.write_text(json.dumps(graph.to_json()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chambers": [[0, 1]], "weights": [["1", "0"]]}))
    run(tmp_path, "slope", "--graph", str(raw), "--config", str(cfg))


@pytest.mark.parametrize("eta", ["99999", "-1"])
def test_slope_eta_outside_graph_exits_2(tmp_path, capsys, eta):
    dest = tmp_path / "g.json"
    run(tmp_path, "build", "--n", "3", "--stages", "1", "--seed", "7",
        "--dest", str(dest))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "chambers": load(dest)["payload"]["chambers"][:1],
        "weights": [["1", "2"]]}))
    assert main(["slope", "--graph", str(dest), "--config", str(cfg),
                 "--eta", eta]) == 2
    assert "outside" in capsys.readouterr().err


NO_VERTICES = {k: v for k, v in ChamberGraph.apartment(3).to_json().items()
               if k != "vertices"}


@pytest.mark.parametrize(
    "text",
    [json.dumps(NO_VERTICES), "null",
     json.dumps({**ChamberGraph.apartment(3).to_json(), "n": 3.7})],
    ids=["no-vertices", "null", "n-float"])
def test_slope_malformed_graph_exits_2(tmp_path, capsys, text):
    raw = tmp_path / "bad.json"
    raw.write_text(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chambers": [[0, 1]], "weights": [["1", "0"]]}))
    assert main(["slope", "--graph", str(raw), "--config", str(cfg)]) == 2
    assert "malformed graph" in capsys.readouterr().err


@pytest.mark.parametrize(
    "chambers", [[["a", "b"]], [[0, 1, 2]], [[0.5, 1]], [["0", "1"]], [[False, 1]]],
    ids=["str-endpoints", "three-endpoints", "float-endpoint", "numeric-str",
         "bool-endpoint"])
def test_slope_malformed_chambers_exit_2(tmp_path, capsys, chambers):
    raw = tmp_path / "g.json"
    raw.write_text(json.dumps(ChamberGraph.apartment(3).to_json()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chambers": chambers, "weights": [["1", "0"]]}))
    assert main(["slope", "--graph", str(raw), "--config", str(cfg)]) == 2
    assert "malformed config" in capsys.readouterr().err


def test_slope_short_cycle_graph_exits_2(tmp_path, capsys):
    doc = ChamberGraph.apartment(3).to_json()
    doc["edges"].append([0, 3])
    raw = tmp_path / "bad.json"
    raw.write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chambers": [[0, 1]], "weights": [["1", "0"]]}))
    assert main(["slope", "--graph", str(raw), "--config", str(cfg)]) == 2
    assert "4-cycle < 6" in capsys.readouterr().err


def test_slope_negative_within_exits_2(tmp_path, capsys):
    raw = tmp_path / "g.json"
    raw.write_text(json.dumps(ChamberGraph.apartment(3).to_json()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chambers": [[0, 1]], "weights": [["1", "0"]]}))
    argv = ["slope", "--graph", str(raw), "--config", str(cfg), "--within"]
    assert main(argv + ["-1"]) == 2
    assert "--within must be nonnegative" in capsys.readouterr().err
    assert main(argv + ["0"]) == 0


def _bad_json_argv(tmp_path, command, bad):
    """argv that feeds the file bad to member --point, slope --graph
    ("slope") or slope --config, with a valid file in every other slot."""
    if command == "member":
        return ["member", "--system", "wti", "--n", "3", "--m", "3",
                "--point", str(bad)]
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(ChamberGraph.apartment(3).to_json()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chambers": [[0, 1]],
                               "weights": [["1", "0"]]}))
    if command == "slope":
        graph = bad
    else:
        cfg = bad
    return ["slope", "--graph", str(graph), "--config", str(cfg)]


BAD_JSON_COMMANDS = ["member", "slope", "slope-config"]


@pytest.mark.parametrize("command", BAD_JSON_COMMANDS)
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(_bad_json_argv(tmp_path, command, deep)) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("command", BAD_JSON_COMMANDS)
def test_undecodable_json_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    assert main(_bad_json_argv(tmp_path, command, bad)) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--stages", "--cap"])
def test_build_negative_count_exits_2(tmp_path, capsys, flag):
    argv = {"--stages": "1", "--cap": "64"}
    argv[flag] = "-1"
    assert main(["build", "--n", "3", "--seed", "0",
                 "--stages", argv["--stages"], "--cap", argv["--cap"],
                 "--dest", str(tmp_path / "g.json")]) == 2
    assert f"{flag} must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_build_cap_zero_is_valid(tmp_path):
    run(tmp_path, "build", "--n", "3", "--stages", "1", "--seed", "0",
        "--cap", "0", "--dest", str(tmp_path / "g.json"))


# -- exit codes and verify -------------------------------------------------------------------------

def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["cone", "--system", "nope", "--n", "3", "--m", "3"]) == 2
    assert main(["member", "--system", "wti", "--n", "3", "--m", "3",
                 "--point", str(tmp_path / "missing.json")]) == 2
    assert main(["cone", "--n", "3", "--m", "3"]) == 2  # argparse usage
    assert main(["verify", "nope"]) == 2
    capsys.readouterr()


def test_budget_env_exit_3(tmp_path, monkeypatch, capsys):
    # a budget of 0 stops build at its size check, before the tuple search
    monkeypatch.setenv("DIHEDRALCALC_BUDGET", "0")
    dest = tmp_path / "g.json"
    assert main(["build", "--n", "3", "--stages", "1", "--seed", "1",
                 "--dest", str(dest)]) == 3
    assert "max(cap,64)/32 = 12 exceeds budget 0" in capsys.readouterr().err
    # n = 2 with no stages passes a size check of 4, but six chambers count
    # m*n = 12 against the same budget before the tuple search starts
    argv = ["build", "--n", "2", "--stages", "0", "--seed", "1", "--m", "6",
            "--dest", str(dest)]
    monkeypatch.setenv("DIHEDRALCALC_BUDGET", "11")
    assert main(argv) == 3
    assert "m*n = 12 exceeds budget 11" in capsys.readouterr().err
    assert not dest.exists()
    monkeypatch.setenv("DIHEDRALCALC_BUDGET", "12")
    assert main(argv) == 0 and len(load(dest)["payload"]["chambers"]) == 6
    monkeypatch.setenv("DIHEDRALCALC_BUDGET", "twelve")
    assert main(["build", "--n", "3", "--stages", "1", "--seed", "1",
                 "--dest", str(dest)]) == 2
    capsys.readouterr()


def _refuse_work(monkeypatch):
    """Make every place an oversized request could start work fail loudly."""
    def started(*args, **kwargs):
        raise AssertionError("work started before the budget check")
    for owner, name in ((cones, "field_init"), (cones, "AlgebraContext"),
                        (cones, "_chain_products"), (prering, "FlagPreRing"),
                        (cli, "field_init"),
                        (cli, "gen_wti"), (cli, "a1_product_system"),
                        (cli.ChamberGraph, "apartment"),
                        (cli, "find_antipodal_tuple"), (cli, "bar_step"),
                        (cli, "graph_metrics"), (cli, "slope_at"),
                        (cli, "min_slope_scan")):
        monkeypatch.setattr(owner, name, started)


def _write_slope_inputs(tmp_path, n):
    """A one-edge graph of parameter n (no cycle, so any n passes the girth
    check) and configs with no chamber and with its one edge."""
    graph = ChamberGraph(n)
    graph.add_edge(graph.add_vertex(1), graph.add_vertex(2))
    (tmp_path / "edge.json").write_text(json.dumps(graph.to_json()))
    for name, chambers in (("none", []), ("one", [[0, 1]])):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"chambers": chambers, "weights": [["1", "0"]] * len(chambers)}))


@pytest.mark.parametrize("argv", [
    # KM systems enumerate m = slots - 1 factors: 4 * 17 = 68 > 64
    ["cone", "--system", "km", "--n", "17", "--m", "5"],
    ["cone", "--system", "theta:bk", "--n", "33", "--m", "3"],
    ["audit", "--system", "km", "--n", "22", "--m", "4"],
    ["equal", "--a", "theta:km", "--b", "wti", "--n", "17", "--m", "5"],
    # build: n * (stages + 1) * max(cap, 64) / 32 > 64
    ["build", "--n", "5", "--stages", "6", "--seed", "1"],
    ["build", "--n", "3", "--stages", str(10 ** 9), "--seed", "1"],
    ["build", "--n", "2", "--stages", str(10 ** 400), "--seed", "1"],
    ["build", "--n", "33", "--stages", "0", "--seed", "1"],
    ["build", "--n", "3", "--stages", "2", "--seed", "1",
     "--cap", str(10 ** 9)],
    ["build", "--n", "3", "--stages", "5", "--seed", "1", "--cap", "128"],
    # WTI and the a1 oracle follow the same m*n > 64 rule
    ["cone", "--system", "wti", "--n", "400", "--m", "3"],
    ["audit", "--system", "theta:wti", "--n", "33", "--m", "2"],
    ["equal", "--a", "wti", "--b", "a1", "--n", "2", "--m", "33"],
    # mult-table multiplies two classes: 2n > 64
    ["mult-table", "--n", "33", "--algebra", "at"],
    ["mult-table", "--n", "128", "--algebra", "limit"],
    # slope: n * max(chambers, 1) > 64
    ["slope", "--graph", "{tmp}/edge.json", "--config", "{tmp}/one.json"],
    ["slope", "--graph", "{tmp}/edge.json", "--config", "{tmp}/none.json",
     "--eta", "0"],
    # build's antipodal tuple: m * n > 64
    ["build", "--n", "3", "--stages", "0", "--seed", "1", "--m", "22"],
    ["build", "--n", "2", "--stages", "0", "--seed", "1", "--m", "33"],
    ["build", "--n", "8", "--stages", "3", "--seed", "1", "--m", "9"],
    ["build", "--n", "2", "--stages", "0", "--seed", "1",
     "--m", str(10 ** 400)],
    # the smallest build past the limit: 4 * (8 + 1) * 64 / 32 = 72
    ["build", "--n", "4", "--stages", "8", "--seed", "1"],
    # STI systems follow the m*n > 64 rule too: 10 * 7 = 70
    ["cone", "--system", "sti", "--n", "7", "--m", "10"],
    ["equal", "--a", "theta:sti", "--b", "wti", "--n", "5", "--m", "13"],
])
def test_oversized_requests_exit_3_before_any_work(monkeypatch, capsys,
                                                   tmp_path, argv):
    _write_slope_inputs(tmp_path, 3000)
    _refuse_work(monkeypatch)
    monkeypatch.delenv("DIHEDRALCALC_BUDGET", raising=False)
    dest = tmp_path / "out.json"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv + ["--dest", str(dest)]) == 3
    assert "budget exhausted" in capsys.readouterr().err
    assert not dest.exists()


def test_budget_env_sets_the_build_and_km_limits(monkeypatch, capsys,
                                                 tmp_path):
    dest = tmp_path / "out.json"
    _write_slope_inputs(tmp_path, 12)
    sized_12 = [
        # build: 3 * (1 + 1) * 64 / 32, then m * n = 6 * 2
        ["build", "--n", "3", "--stages", "1", "--seed", "1"],
        ["build", "--n", "2", "--stages", "0", "--seed", "1", "--m", "6"],
        # KM and BK count m - 1 factors: 4 * 3
        ["cone", "--system", "km", "--n", "3", "--m", "5"],
        ["cone", "--system", "bk", "--n", "3", "--m", "5"],
        ["cone", "--system", "sti", "--n", "3", "--m", "4"],
        ["cone", "--system", "wti", "--n", "4", "--m", "3"],
        ["cone", "--system", "a1", "--n", "2", "--m", "6"],
        ["mult-table", "--n", "6", "--algebra", "at"],
        ["slope", "--graph", str(tmp_path / "edge.json"),
         "--config", str(tmp_path / "one.json")]]
    monkeypatch.setenv("DIHEDRALCALC_BUDGET", "11")
    for argv in sized_12:
        run(tmp_path, *argv, "--dest", str(dest), expect=3)
        assert " = 12 exceeds budget 11" in capsys.readouterr().err
    monkeypatch.setenv("DIHEDRALCALC_BUDGET", "12")
    for argv in sized_12:
        run(tmp_path, *argv, "--dest", str(dest))
        if argv[0] == "build":  # every stage ran
            assert len(load(dest)["payload"]["metrics"]) == int(argv[4]) + 1
    capsys.readouterr()


def test_verify_single_suite(tmp_path, capsys):
    dest = tmp_path / "verify.json"
    run(tmp_path, "verify", "classical", "--dest", str(dest))
    out = capsys.readouterr().out
    assert out.startswith("PASS classical")
    results = load(dest)["payload"]
    assert results[0]["suite"] == "classical" and results[0]["passed"]


def test_verify_dest_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        run(tmp_path, "verify", "classical", "--dest", str(dest))
        # the printed line still reports the run time
        assert "s) " in capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()
    assert "seconds" not in load(a)["payload"][0]


def test_parser_built_once_and_handlers_see_patches(tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    real = cli.graph_metrics
    monkeypatch.setattr(cli, "graph_metrics", lambda g: seen.append(g) or real(g))
    run(tmp_path, "build", "--n", "3", "--stages", "1", "--seed", "0",
        "--m", "2", "--dest", str(tmp_path / "b.json"))
    assert len(seen) == 2


# -- fuzzing the exit-code contract ------------------------------------------------

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
# integers that overflow every budget, up to the 4300 digits argparse reads
TAIL = st.sampled_from([2 ** 63, 10 ** 400, int("9" * 4300)])
HUGE = st.integers(65, 10 ** 6) | TAIL
SPECS = [f"{t}{s}" for t in ("", "theta:") for s in SYSTEM_CHOICES]


def _contract(argv, capsys) -> tuple[int, str]:
    """Exit code and stderr of one request; the code is 0, 1, 2 or 3, and 1
    comes only from a failed exact check."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert code != 1 or err.startswith("verification failed:"), (argv, err)
    return code, err


_scalar = (st.none() | st.booleans() | st.integers(-3, 8) | st.integers()
           | st.sampled_from([10 ** 400, -(10 ** 400), int("7" * 4300)])
           | st.floats() | st.text(max_size=6)
           | st.sampled_from(["1e5000", "-1e-999999999", "3/4", "0/0", "nan",
                              "2.5", "1" * 5000]))
_json = st.recursive(
    _scalar, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "seed", "vertices", "edges", "id", "type",
                         "graph", "payload", "chambers", "weights", "log"])
        | st.text(max_size=3), kids, max_size=4),
    max_leaves=12)
_pair = st.lists(_scalar, max_size=3) | _json


def _mutated(doc: dict, key: str, value) -> dict:
    return {**doc, key: value}


_graph_doc = st.builds(
    _mutated, st.sampled_from([ChamberGraph.apartment(n).to_json()
                               for n in (2, 3)]),
    st.sampled_from(["n", "seed", "vertices", "edges", "log"]),
    _json | st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=6)
    | HUGE) | _json
_config_doc = st.fixed_dictionaries({
    "chambers": st.lists(_pair, max_size=3) | _json,
    "weights": st.lists(_pair, max_size=3) | _json}) | _json


@FUZZ
@given(kind=st.sampled_from(["member", "graph", "config"]),
       doc=_json | _graph_doc | _config_doc,
       raw=st.none() | st.binary(max_size=20))
def test_fuzz_malformed_documents_keep_the_exit_contract(tmp_path, capsys,
                                                         kind, doc, raw):
    bad = tmp_path / "bad.json"
    if raw is None:
        bad.write_text(json.dumps(doc))
    else:
        bad.write_bytes(raw)
    if kind == "member":
        argv = ["member", "--system", "wti", "--n", "3", "--m", "2",
                "--point", str(bad)]
    else:
        argv = _bad_json_argv(tmp_path, "slope" if kind == "graph"
                              else "slope-config", bad)
    _contract(argv + ["--dest", str(tmp_path / "out.json")], capsys)


@FUZZ
@given(coords=st.lists(st.integers(0, 8) | st.sampled_from(
    [int("7" * 4300), "1e4300", "-1e-4300", "1e4096", "1e-4096", "1e2000",
     "1e-2000", "1/3", "0.25"]), min_size=4, max_size=4),
       slope=st.booleans())
def test_fuzz_weights_too_long_to_print_exit_2(tmp_path, capsys, coords,
                                               slope):
    # two well-formed weights; exact values past 4300 digits cannot be
    # printed, so weights that could yield them are refused up front
    weights = [coords[:2], coords[2:]]
    doc = tmp_path / "weights.json"
    doc.write_text(json.dumps({"chambers": [[0, 1], [0, 1]],
                               "weights": weights}))
    if slope:
        (tmp_path / "g.json").write_text(
            json.dumps(ChamberGraph.apartment(3).to_json()))
        argv = ["slope", "--graph", str(tmp_path / "g.json"),
                "--config", str(doc)]
    else:
        argv = ["member", "--system", "wti", "--n", "3", "--m", "2",
                "--point", str(doc)]
    code, err = _contract(argv + ["--dest", str(tmp_path / "out.json")],
                          capsys)
    assert code in (0, 2) and (code == 0 or "malformed weights" in err)


def _oversized(draw) -> list[str]:
    """A request with one size far past its budget and the rest small."""
    small = lambda lo, hi: str(draw(st.integers(lo, hi)))
    huge = str(draw(HUGE))
    command = draw(st.sampled_from(
        ["cone", "audit", "member", "equal", "mult-table", "build", "slope"]))
    if command == "mult-table":
        return ["mult-table", "--n", huge, "--algebra", "at"]
    if command == "build":
        sizes = {"--n": small(2, 4), "--stages": small(0, 2),
                 "--cap": small(0, 64), "--m": small(1, 4)}
        flag = draw(st.sampled_from(sorted(sizes)))
        # only a cap past 1024 overflows at n = 2 with no stages
        sizes[flag] = str(draw(st.integers(1025, 10 ** 6) | TAIL)) \
            if flag == "--cap" else huge
        return ["build", "--seed", "1"] + [x for kv in sizes.items() for x in kv]
    if command == "slope":
        return ["slope", "--graph", "{tmp}/wide.json", "--config",
                draw(st.sampled_from(["{tmp}/none.json", "{tmp}/many.json"]))]
    n, m = (huge, small(2, 4)) if draw(st.booleans()) else (small(2, 4), huge)
    if command == "equal":
        specs = ["--a", draw(st.sampled_from(SPECS)),
                 "--b", draw(st.sampled_from(SPECS))]
    else:
        specs = ["--system", draw(st.sampled_from(SPECS))]
        if command == "member":
            specs += ["--point", "{tmp}/point.json"]
    return [command] + specs + ["--n", n, "--m", m]


@FUZZ
@given(data=st.data())
def test_fuzz_extreme_sizes_are_budget_refusals(tmp_path, monkeypatch, capsys,
                                                data):
    _refuse_work(monkeypatch)
    monkeypatch.delenv("DIHEDRALCALC_BUDGET", raising=False)
    graph = ChamberGraph(int("9" * 4300))
    graph.add_edge(graph.add_vertex(1), graph.add_vertex(2))
    (tmp_path / "wide.json").write_text(json.dumps(graph.to_json()))
    _write_slope_inputs(tmp_path, 3)
    (tmp_path / "many.json").write_text(json.dumps(
        {"chambers": [[0, 1]] * 22, "weights": [["1", "0"]] * 22}))
    write_point(tmp_path, [(0, 0)] * 3)
    dest = tmp_path / "out.json"
    argv = [a.format(tmp=tmp_path) for a in _oversized(data.draw)]
    code, err = _contract(argv + ["--dest", str(dest)], capsys)
    assert code == 3 and "budget exhausted" in err, (argv, err)
    assert not dest.exists()


@FUZZ
@given(data=st.data())
def test_fuzz_small_and_negative_integers_keep_the_exit_contract(
        tmp_path, capsys, data):
    # every size at most 1 is refused or cheap, whatever its magnitude
    low = str(data.draw(st.integers(max_value=1) | st.sampled_from(
        [-(10 ** 400), -int("9" * 4300)])))
    argv = data.draw(st.sampled_from([
        ["cone", "--system", "sti", "--n", low, "--m", "3"],
        ["cone", "--system", "theta:km", "--n", "3", "--m", low],
        ["member", "--system", "a1", "--n", "2", "--m", low,
         "--point", "{tmp}/point.json"],
        ["mult-table", "--n", low, "--algebra", "limit"],
        ["build", "--n", low, "--stages", "0", "--seed", "1"],
        ["build", "--n", "2", "--stages", low, "--seed", low],
        ["build", "--n", "2", "--stages", "0", "--seed", "1", "--m", low],
        ["build", "--n", "2", "--stages", "0", "--seed", "1", "--cap", low],
        ["slope", "--graph", "{tmp}/edge.json", "--config", "{tmp}/one.json",
         "--eta", low],
        ["slope", "--graph", "{tmp}/edge.json", "--config", "{tmp}/one.json",
         "--within", low],
    ]))
    _write_slope_inputs(tmp_path, 3)
    write_point(tmp_path, [(1, 0)] * 2)
    argv = [a.format(tmp=tmp_path) for a in argv]
    _contract(argv + ["--dest", str(tmp_path / "out.json")], capsys)


@FUZZ
@given(spec=st.text(max_size=12) | st.sampled_from(
    ["WTI", "theta:theta:wti", "wti ", "", "theta:", "theta", "km:at",
     "gr-b", "θ:km", "-h", "--m"]),
       prefix=st.sampled_from(["", "theta:"]),
       command=st.sampled_from(["cone", "audit", "member", "equal"]))
def test_fuzz_unknown_specs_exit_2_before_any_work(tmp_path, monkeypatch,
                                                   capsys, spec, prefix,
                                                   command):
    spec = prefix + spec
    assume(spec not in SPECS)
    _refuse_work(monkeypatch)
    if command == "equal":
        argv = ["equal", f"--a={spec}", "--b", "wti"]
    else:
        argv = [command, f"--system={spec}"]
        if command == "member":
            argv += ["--point", str(write_point(tmp_path, [(0, 0)] * 3))]
    code, _ = _contract(argv + ["--n", "3", "--m", "3", "--dest",
                                str(tmp_path / "out.json")], capsys)
    assert code == 2
