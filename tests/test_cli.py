from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxbasis.cli import (
    EXIT_CERTIFICATE,
    EXIT_FAIL,
    EXIT_NOT_A_BASIS,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    build_parser,
    main,
)
from coxbasis import certify, cli, coxeter, invariants, report
from coxbasis.coxeter import parse_type
from coxbasis.poly import MAX_DEGREE


MFILE = str(Path(__file__).resolve().parent.parent / "perfbench" / "mfiles" / "per_orbit_01.json")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_text(capsys):
    code, out, _ = run(["info", "B2", "--no-cache"], capsys)
    assert code == EXIT_OK
    assert "group order     8" in out
    assert "hyperplanes     4" in out
    assert "PROBLEM" not in out


def test_info_json(capsys):
    code, out, _ = run(["info", "I2(5)", "--format", "json", "--no-cache"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["order"] == 10
    assert data["field"] == "Q(sqrt(5))"
    assert data["problems"] == []


# sha256 of the standard output of ``info <type> --format <format>`` for
# every type within the default order bound, as written before ``info``
# stopped expanding the Jacobian determinant and before the coset chain
# was built largest parabolic first
INFO_DIGESTS = {
    "A1 text": "f2286e6b2f182e72db05f53c59d5b43aa3371dc3e0abb6afebf9c6e621140a6a",
    "A1 json": "ab3266a009602ac6b16f89cd0e9a0f494d881395280f3ebdc414971dd60f31bd",
    "A2 text": "22f7f3c6f8084567f00c01775159cf1f5b8fa7f08486f6b66515497a1ce91004",
    "A2 json": "1c634f6c4eaa55a31ec6d6fee6a5f38f7625ac5cc5e3dc6b2843f117cd04a30d",
    "A3 text": "e6fe6b83d0f3421bd322df495f254951f530a2dcc374a845f1c3a37c73647c00",
    "A3 json": "9b645bc421edcaf287836d27024f98dc4ecd1d36929d738100e83d299833ddfa",
    "A4 text": "eb9b5c6781c569553b1421a7e1143b556026b469735e3fe25ac45d125aff0929",
    "A4 json": "63b582f984bde53ad06fd81ad7b2304931f44700c0a471a005b6789bdd2cbd73",
    "A5 text": "f74ddd4d8433ae122ec18665bed536d49e29520841a4d9f4ec75364a64a67a3c",
    "A5 json": "437a8c2282523c2542cd53656a6e7f19bc53fc8541d9220435322ccde178043d",
    "A6 text": "7798d131707b1fa21b966e79c6ad189b20cbe2a3ed2a148194ff3b33fdae4dc6",
    "A6 json": "44b6817162c3db95314174c61df971a1e1111777b2d43bda6b0a414566d96360",
    "A7 text": "4b975f98669156bc9bf7744c7241abc16b9956ba592ce15a48eb8902c8fada43",
    "A7 json": "8f82cf65c0adfc7cd3bc1f1cacba6afa7130daacee7d1e1fd41a6d311ebe09e3",
    "B2 text": "1de3d8149a89098e110c580931964adb197d74c0e3dce500c790144e09274970",
    "B2 json": "37a1aa70ff8c4b0635ba9984348578753bcccd5ce626db96fd983605fc897fee",
    "B3 text": "ec20d72883a4491b645482d2ea84318299c8060be073ca9a36b66932f191dc8c",
    "B3 json": "4ec1e265fc8895ada630180b86f8cba5b18f9dae6be17025b5813c46f55f489a",
    "B4 text": "6246b4e72357e067ef73b7dc5997da325ed764c318c9daed95b60fbfa3b6f81c",
    "B4 json": "faf5aa5ad1eb0206de77c82c903caafc02b004de5c08b86e474b57837aed755a",
    "B5 text": "b706ab3154a84e2935f172da36879af39cc8ac2fc1d8cd50ef1908ef81dc45b6",
    "B5 json": "cb244273082824d33d0ff04b3b99ae080a9161c4ca845e06940bbc58ddfd1f78",
    "B6 text": "96e6933eb38fc5e1e620a74a58f7fa23769b1cb84a739553bca66b9e15aa612c",
    "B6 json": "299af68f918896607b49b742bc5a18c23f2efa680173b3c252d691d2631a4be6",
    "D4 text": "707b2b88c55ee4f19a3aaf5c5d130578d691846fb16fb741fba63e73a7c54b9d",
    "D4 json": "89aa9a8ad99ed2edd04c85d1e517a116faaa2271b878da8f917805cffd3a0ed1",
    "D5 text": "7ce4491b724c0484bfae95fa5fde274c6f8020a1cb7767c2dd21e350148ffe54",
    "D5 json": "7597a8b6274ecf7e597b2ddeefc5b825ae0465f2973f6dda86e34279d41a4ed7",
    "D6 text": "684b257fba6ca88a0ad21a2adb0ec364b9c772510b3967926dba15387ff3ec28",
    "D6 json": "f3946c9388566a4d8079487c6960f808bef7b96588f907bf4e719a96abc37435",
    "G2 text": "5c9e0ef0ae2f4ef6fb4fbbc8c978be92b69a6dbd0418b9e2add41e5d6bd07ea8",
    "G2 json": "4b61d32ed092f32ce653180f49c4f330e2c47dd6ff74c33965324f19054f873d",
    "H3 text": "ad7a7984731958e2d50e45a0990ffc8a6e06ed7aa14f8aa318da1b107d0c2a25",
    "H3 json": "0c3748edcea67c460a6ababe4acaeb4ff00662d740114d9026f74eae9e6a5481",
    "I2(3) text": "71e679c9771dd8c93e86a792e648aed9d3b6109d8494c1c4ec1450615236032a",
    "I2(3) json": "14cc82695fb3c4521a174271da9285de9790fd31e4d02f937975d322d08e9093",
    "I2(4) text": "7bd2ef9911831dd568e0f8fad8f821328ae724de2fb2ef94cb42a9b31393a3a3",
    "I2(4) json": "60d47521bd7f08a045a38e7ffa21c0549896e1e4539098cfd2bb41067ca369a7",
    "I2(5) text": "c22c974611a7003580e73f39291b8515eb8e5a33a106c4211f60385905ed8c5c",
    "I2(5) json": "473e49733ad9b8e45659b0a268071c9315ddc44167be387d6cd48b8a5dc18b02",
    "I2(6) text": "7cc063a232ce3249ec0de98cf362ca8bba77283f1911799e091cf616d9929db6",
    "I2(6) json": "041eaad9c806af4333d8a91897f4ab9a441dbaee3fae62959db26c55847746ee",
    "I2(8) text": "50ae4b725fba842b695a899610484e19b96a4b3c52a658f9e7d61a645b5a2ef0",
    "I2(8) json": "0a4f4b07f1ffd2bc716535c21dd6eb2f50e5d22ce4fa1a507c685328d0071354",
}


def test_info_digests_cover_every_type_within_the_default_bound():
    assert len({key.split()[0] for key in INFO_DIGESTS}) == 22 and len(INFO_DIGESTS) == 44


@pytest.mark.parametrize("key", sorted(INFO_DIGESTS))
def test_info_output_is_unchanged(key, capsys):
    label, fmt = key.split()
    code, out, _ = run(["info", label, "--format", fmt], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == INFO_DIGESTS[key]


# sha256 of the standard output of ``verify --type T --suite S ... --seed 1
# --format json`` for the benchmark sweep's 24 verify requests, as written
# before the certificate and Jacobian scalars moved onto the integer point
# stream; keyed by type, suite and the other options
VERIFY_DIGESTS = {
    "A2 euler --samples 6": "828385cf1bbbaef33a52ea7802090de52575deef592acfe09eac9213639a9ba0",
    "A2 jacobian": "b0aa0660986d800693315cea1af0edb7e39df244e039b441b36344e4611076e5",
    "A2 hodge": "737e1b5364c825e4e16d688bcb9dc8e005a09c8008359546e8b0959a26898719",
    "A3 euler --samples 6": "342540bc1fac5c3c0e25b39b9ff0f2f7e68c887c43dab96fee47f4a3d01075e6",
    "A3 jacobian": "52e841967c778c69a3a12e14fd58401eab21203a428b9fba614654a58f96bfe0",
    "A3 hodge": "4fde8f969ad766afb8f01214eaf50d0ea7c31329e5580864fa479568952d1bf9",
    "B2 euler --samples 6": "e045de50da0a202590bf8dc435ff1fa53ca27c1742381c1ec3835e8bcd82420f",
    "B2 jacobian": "278da5179d915a60ef5a31eafbed2617dd5229afdf2c72e98406c7051018d659",
    "B2 hodge": "331602a2c993cd73cc88cdaeb489680fea6c796437ad91551c6855720b745f30",
    "B3 euler --samples 6": "582f4da24f28db4d6fa19becc94dfdb97b735ab69bef177870fe64fe092e4d76",
    "B3 jacobian": "cee3dc5e610e7b6642121d5b568f99d941b32fc2e7a85d35ff6aed7c0cd1ff10",
    "B3 hodge": "9d07c14815ba99af3f57a5a0a98f7e593672f957b04c9d0f887b9c9115510904",
    "G2 euler --samples 6": "540dc8a294402ceb8713552380f284535e587dea1978890d7e369ada632bdb57",
    "G2 jacobian": "72582c1ce414cd38ded2a6ea376839dd1c63be5da6724581d3e9a8014f38e9eb",
    "G2 hodge": "59659d91edc75f9784aff9d8aad9af7fffee37ad10b73139634e59c715872a76",
    "I2(5) euler --samples 6": "0582749e71296eba35039d177aa92600748c249e6bb0a0714c66006f3dcb95d9",
    "I2(5) jacobian": "8dfe145c40b2441dab8d8eae85e038cb89a7002a0f5acdae96923c9da9181c29",
    "I2(5) hodge": "81692e6f9acd0aeae3d4d43ecf368b710ba092386402774ed07343e5b3411f25",
    "I2(8) euler --samples 6": "82175f1c38ade0caf6ad2646c89857f5721b0ef7f2e62dc1e29ac7c68cd81083",
    "I2(8) jacobian": "327fee1f599118c0b8ade95afe81aa98459897436fc0919f9e1999a1d8f636a6",
    "I2(8) hodge": "2d4a6adca53383c244eb3e1e24a7bf0e8a9ac915c2383d151fc9bcf7daddcf22",
    "A2 shift --samples 2": "e6eed37f2e39fa22936ce11cfd7a32ccb40687ce191e47357368f5b3bb4ff1d3",
    "B2 shift --samples 2": "cf0f78882dec4449b397a998e973c06e095ba8024b488f2ff215b1300d6ecafd",
    "G2 shift --samples 2": "ba710abe4f0da62ba87edae28a39a4463885a0d4509e1cf3f7260ace686f2409",
}


def test_verify_digests_cover_the_sweep():
    assert len(VERIFY_DIGESTS) == 24
    assert {key.split()[1] for key in VERIFY_DIGESTS} == {"euler", "jacobian", "hodge", "shift"}


@pytest.mark.parametrize("key", sorted(VERIFY_DIGESTS))
def test_verify_output_is_unchanged(key, capsys):
    label, suite, *extra = key.split()
    code, out, _ = run(["verify", "--type", label, "--suite", suite, *extra,
                        "--seed", "1", "--format", "json"], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGESTS[key]


# sha256 of the standard output of ``basis --type T --m M --k K --format
# text`` for the benchmark sweep's constant-m requests, as written while
# every certification still expanded its determinant witness
TEXT_DIGESTS = {
    "A1 --m 0 --k 1": "f91e63174944b74ea5be490ee6ff9e17ea54aeff12f917d3d62c7b6be7581b67",
    "A1 --m 0 --k 2": "edc10cba01338aba2ef1d112dc00caa8f170534a00845a099416e8a9c4761175",
    "A1 --m 1 --k 1": "d6bbe0285681dc3e616f8c955d6b1dceff14a631535df399a6638f994e98d685",
    "A1 --m 1 --k 2": "79d5ac114fd4fc209a241509405526868ec3852ab313fd50b931f67b5280b9be",
    "A2 --m 0 --k 1": "761775da1a96e7675e2518b1c96c5158438fac99aba6b1173cc70518630669b1",
    "A2 --m 0 --k 2": "9bbf5bc95b4db200314904efc2d039a91104463cbaff38c45b838a42349ba781",
    "A2 --m 1 --k 1": "773b8fcc387ec87f6840137c3eda5e7c96f98f094d4e6d878aea8d47c158237e",
    "A2 --m 1 --k 2": "d92a23f37d1f20457a456e85a83cf878805af2e7c3e64c0d53f3aaf161c20d69",
    "A3 --m 0 --k 1": "254b659b2719278185bad6d91fe9168fdea5c2cd0dcb06c4a5ef282d6207b2eb",
    "A3 --m 0 --k 2": "308f62d04c100d406657ad3af76423d307c8210aa6b4a5274d40e11af7c5d8aa",
    "A3 --m 1 --k 1": "78806a8b5a9337051ea87a877836ec7019d60465c30d21b4353f5a1ba25ec3ab",
    "A3 --m 1 --k 2": "88ee2faf04719267699661356a65997d91baef8ed79db433cb2996ecc94a0e47",
    "B2 --m 0 --k 1": "9c3b2bc8a9e900c0fcb677b3e91c7f377612a3028e070fe1e6c1800d84dce0de",
    "B2 --m 0 --k 2": "29657b2f3f96b5cb6b43708d8ea15017b460295214315998fb34fcaee015eb8c",
    "B2 --m 1 --k 1": "330d49d7b90ff39ff20d823c68d98f71473be005d1641fc772ad5c296d431fc2",
    "B2 --m 1 --k 2": "cca32d3d70ac3f225a8ed9b330b7a5ce460feda50542bd42cc67d8f526ad976c",
    "B3 --m 0 --k 1": "6ab9cfb5c04d98ceca11697a3b6f7f8505ce1408dad295e3cbd0525894653dde",
    "B3 --m 0 --k 2": "ba40fa2b8c9da2289c451d0f01f59e3ca24e7903fa1335ea247d1f24557fcfac",
    "B3 --m 1 --k 1": "64fbaaf8de2bc69937da3352ca7a1556cc7678a05def5ea9c27b6a65e7796e4f",
    "B3 --m 1 --k 2": "5c91b4dc03af36a93893c1339b9007fd17d20ce857d478ffd7e9a85fb8234757",
    "G2 --m 0 --k 1": "7f37ca838b9817f924d96d33272afc6d4ec6e72dbb9ea636163a9266515fa644",
    "G2 --m 0 --k 2": "3d1c2e602b5d3c06376350d6089be0c43de2509320a3be27bd00ecb87f66e155",
    "G2 --m 1 --k 1": "bb8201ad125d98ac7455353e95c0c63d8775f299db9794ebfd7aec064741245f",
    "G2 --m 1 --k 2": "d2aa2db4a3c4e0b7e857a1152aee9a856f7d63311ecc316cac1bce3a955b02da",
    "I2(3) --m 0 --k 1": "de6712f6ba9d08f5c2c6ad90482f4bf417958b8f8fe1489f65c1089903f795c3",
    "I2(3) --m 0 --k 2": "c4669e899fca5d23f2e14bd1387829af4653ca618843b02bed347f570baec6d3",
    "I2(3) --m 1 --k 1": "f2f60dee2139fd19350564101bdc5c9bc788e4a19b3ac14e86e3be3ef3efc65d",
    "I2(3) --m 1 --k 2": "c0b9869daedb511198b633e3dedc264ce3afdf7238888c7d34cb84491e2b94fc",
    "I2(4) --m 0 --k 1": "40736e2c0ec4d3cfaf30aef874df4d5f42b363400055926dd69e8602642a3e3e",
    "I2(4) --m 0 --k 2": "165cc2c75fd3401c1cb8b3f50d3d8953e6ea84e3882f4c1eba20fc267280541f",
    "I2(4) --m 1 --k 1": "25d02d3c139af618e40150c11cd7d10f4d47b2999a0536606934373baf067f3a",
    "I2(4) --m 1 --k 2": "576f21e6f8a73bd47533c8a0453ddfc94a66958928945e52802a918882704ab0",
    "I2(5) --m 0 --k 1": "073cf4a955eb48488738bc7b2138498ce46a8d5b130ea4fbb3006a686e85d146",
    "I2(5) --m 0 --k 2": "1d8505dffc8d24597d42528c614a7a7f150037601db2237d2723f1478353a909",
    "I2(5) --m 1 --k 1": "352f19f5d5ff347c5913cc16d2528de09ad5e4e006278f8e4055fa6c284d8b2c",
    "I2(5) --m 1 --k 2": "bc1e010e9605f90f984a783d80e1ea93e1445823dffaa00cd2a21ee7ccedda68",
    "I2(6) --m 0 --k 1": "a440de3de3c0faa96b4cb5fdb1160207fa9b78ba2cceaaa38751267717d58370",
    "I2(6) --m 0 --k 2": "0849999f41684cd80d401b0e8489d59489ba0e845d40327278fcc35224653f48",
    "I2(6) --m 1 --k 1": "ef8ccbbd620699e11da5b6d187a0b45f1f44726af5e2c0ea4f5eea0fb8d55dd1",
    "I2(6) --m 1 --k 2": "3f9eabbb32cc7f36954b79b3aa7bf8d97f3c279832eb01a936c037da75e882e9",
    "I2(8) --m 0 --k 1": "88c6f493ec0c68deaa910908cf0f3012a3c31e742c53ffcfaa0d4a1029b18b76",
    "I2(8) --m 0 --k 2": "7c0da0e35235242dacddd86b482dda05c84d5af5c1194408b31ef1b2b95cd1b0",
    "I2(8) --m 1 --k 1": "34bab73f33dae1bc8790cdaedf99abbee3ee4b78560416a4ba4574ace0edc339",
    "I2(8) --m 1 --k 2": "2c6e9ee0389216ec0b9a9bd9e544d83b5adf858fb032f7fc606ae5288db131a9",
}


def test_text_digests_cover_the_sweep():
    assert len(TEXT_DIGESTS) == 44
    assert len({key.split()[0] for key in TEXT_DIGESTS}) == 11


@pytest.mark.parametrize("key", sorted(TEXT_DIGESTS))
def test_basis_text_output_is_unchanged(key, capsys):
    label, *options = key.split()
    code, out, _ = run(["basis", "--type", label, *options, "--format", "text"], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TEXT_DIGESTS[key]


@pytest.mark.parametrize("argv, witnesses", [
    (["--m", "0", "--k", "1", "--format", "text"], 0),
    (["--m", "1", "--k", "2", "--format", "text"], 0),
    (["--m", "0", "--k", "1"], 1),
    (["--m", "1", "--k", "2"], 2),
    (["--m", "1", "--k", "0"], 2),
    (["--mfile", MFILE, "--k", "1"], 2),
])
def test_only_a_written_certificate_expands_its_witness(argv, witnesses, capsys, monkeypatch):
    # a JSON report writes the members' certificate and, unless the base is
    # the coordinate fields, the base's; text writes neither
    calls = []

    def counting(multiplicity, original=report._witness):
        calls.append(multiplicity.values)
        return original(multiplicity)

    monkeypatch.setattr(report, "_witness", counting)
    code, _, _ = run(["basis", "--type", "B3", *argv], capsys)
    assert code == EXIT_OK
    assert len(calls) == witnesses


def test_info_never_expands_the_jacobian(capsys, monkeypatch):
    calls = []

    def counting(system, original=invariants.jacobian_factors):
        calls.append(system.label)
        return original(system)

    # every binding of the name in the package, wherever it was imported
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coxbasis" and hasattr(module, "jacobian_factors"):
            monkeypatch.setattr(module, "jacobian_factors", counting)
    for label in ("A2", "B3", "I2(5)"):
        for fmt in ("text", "json"):
            code, _, _ = run(["info", label, "--format", fmt, "--no-cache"], capsys)
            assert code == EXIT_OK
    assert calls == []
    # the counter sees the expanded check where it stays
    code, _, _ = run(["verify", "--type", "A2", "--suite", "jacobian", "--no-cache"], capsys)
    assert code == EXIT_OK
    assert calls == ["A2"]


def test_a_mismatched_group_and_arrangement_keep_no_invariants(capsys):
    # G2's invariants once landed on B2's kept arrangement, and every later
    # request on B2 read them: info printed -45/2 for the Jacobian scalar
    g2, _ = coxeter.build_group(parse_type("G2"))
    _, b2 = coxeter.build_group(parse_type("B2"))
    with pytest.raises(ValueError, match="type G2 but the arrangement of type B2"):
        invariants.compute_invariants(g2, b2)
    assert b2.invariants is None
    code, out, _ = run(["info", "B2"], capsys)
    assert code == EXIT_OK
    assert "jacobian        4 * defining polynomial\n" in out
    assert run(["basis", "--type", "B2", "--m", "1", "--k", "1"], capsys)[0] == EXIT_OK


def test_info_unsupported_type(capsys):
    code, _, err = run(["info", "E6", "--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "unsupported" in err


@pytest.mark.parametrize("label", ["", " "])
def test_info_blank_type_is_unsupported(label, capsys):
    code, _, err = run(["info", label, "--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "empty type label" in err


def test_order_bound_exit_code(capsys):
    code, _, _ = run(["info", "B3", "--order-bound", "10", "--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED


def test_huge_rank_exits_on_the_order_bound(capsys):
    code, out, err = run(["info", "A1600", "--no-cache"], capsys)
    assert (code, out) == (EXIT_UNSUPPORTED, "")
    assert "type A1600: group of order at least 362880 exceeds the bound 100000" in err


def test_order_bound_is_checked_before_the_datum_is_built(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("make_datum%r was called past the order bound" % (args,))

    monkeypatch.setattr(coxeter, "make_datum", refuse)
    for argv in (["info", "A100000"], ["basis", "--type", "B", "--rank", "5000", "--m", "0",
                                       "--k", "0"]):
        code, out, err = run(argv + ["--no-cache"], capsys)
        assert (code, out) == (EXIT_UNSUPPORTED, "")
        assert "exceeds the bound 100000" in err


def test_basis_report_deterministic(tmp_path, capsys):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    base = ["basis", "--type", "A1", "--m", "1", "--k", "1", "--no-cache"]
    assert main(base + ["--out", str(p1)]) == EXIT_OK
    assert main(base + ["--out", str(p2)]) == EXIT_OK
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["schema"] == "coxbasis/basis-report/1"
    assert data["certificate"]["verdict"] == "Free-with-basis"
    assert data["member_degrees"] == [3]


def test_basis_text_format(capsys):
    code, out, _ = run(["basis", "--type", "B2", "--m", "0", "--k", "1",
                        "--format", "text", "--no-cache"], capsys)
    assert code == EXIT_OK
    assert "Free-with-basis" in out
    assert "member degrees  [4, 4]" in out


def test_basis_mfile_per_orbit(tmp_path, capsys):
    mfile = tmp_path / "mult.json"
    mfile.write_text(json.dumps({"per_orbit": [1, 0]}), encoding="utf-8")
    out_path = tmp_path / "report.json"
    code, _, _ = run(["basis", "--type", "B2", "--mfile", str(mfile), "--k", "1",
                      "--no-cache", "--out", str(out_path)], capsys)
    assert code == EXIT_OK
    data = json.loads(out_path.read_text())
    assert data["inputs"]["multiplicity"]["per_hyperplane"] == [1, 0, 1, 0]
    assert data["inputs"]["base_source"] == "oracle"
    assert data["certificate"]["verdict"] == "Free-with-basis"


@pytest.mark.parametrize("content", [
    None,
    {"per_hyperplane": 5},
    {"per_hyperplane": [None, 1, 1]},
    {"per_hyperplane": [0.9, 1, 1]},
    {"per_hyperplane": [True, 1, 1]},
    {"per_orbit": [[1]]},
    {"per_orbit": 3},
    {"per_hyperplane": [1, 1, 1], "per_orbit": [0]},
])
def test_basis_rejects_malformed_mfile(tmp_path, capsys, content):
    mfile = tmp_path / "mult.json"
    mfile.write_text(json.dumps(content), encoding="utf-8")
    code, out, err = run(["basis", "--type", "A2", "--mfile", str(mfile), "--k", "0",
                          "--no-cache"], capsys)
    assert code == EXIT_FAIL
    assert err.startswith("error: multiplicity")
    assert out == ""


def _nested_json_error(flag, tmp_path, capsys):
    # deep enough for the JSON decoder to give up on recursion
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    m = ["--m", "0"] if flag == "--base-file" else []
    code, out, err = run(["basis", "--type", "A2", *m, "--k", "0", flag, str(path),
                          "--no-cache"], capsys)
    assert (code, out) == (EXIT_FAIL, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: %s is not readable JSON" % path)


def test_deeply_nested_mfile_is_an_error_not_a_traceback(tmp_path, capsys):
    _nested_json_error("--mfile", tmp_path, capsys)


def test_deeply_nested_base_file_is_an_error_not_a_traceback(tmp_path, capsys):
    _nested_json_error("--base-file", tmp_path, capsys)


@pytest.mark.parametrize("flag", ["--mfile", "--base-file"])
def test_undecodable_json_file_is_an_error(flag, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff{not json")
    m = ["--m", "0"] if flag == "--base-file" else []
    code, out, err = run(["basis", "--type", "A2", *m, "--k", "0", flag, str(path),
                          "--no-cache"], capsys)
    assert (code, out) == (EXIT_FAIL, "")
    assert err.startswith("error: %s is not readable JSON" % path) and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--mfile", "--base-file", "--out"])
def test_empty_path_is_an_error(flag, capsys):
    # an empty path names no file; it is not the same as leaving the option out
    code, out, err = run(["basis", "--type", "B2", flag, "", "--k", "0"], capsys)
    assert (code, out) == (EXIT_FAIL, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_basis_base_file_round_trip(tmp_path, capsys):
    first = tmp_path / "first.json"
    code, _, _ = run(["basis", "--type", "B2", "--m", "1", "--k", "0",
                      "--no-cache", "--out", str(first)], capsys)
    assert code == EXIT_OK
    direct = tmp_path / "direct.json"
    code, _, _ = run(["basis", "--type", "B2", "--m", "1", "--k", "1",
                      "--no-cache", "--out", str(direct)], capsys)
    assert code == EXIT_OK
    refed = tmp_path / "refed.json"
    code, _, _ = run(["basis", "--type", "B2", "--m", "1", "--k", "1",
                      "--base-file", str(first), "--no-cache",
                      "--out", str(refed)], capsys)
    assert code == EXIT_OK
    direct_data = json.loads(direct.read_text())
    refed_data = json.loads(refed.read_text())
    assert refed_data["inputs"]["base_source"] == "user"
    assert refed_data["members"] == direct_data["members"]
    assert refed_data["certificate"] == direct_data["certificate"]


@pytest.mark.parametrize("source", ["coordinate", "gradient", "oracle"])
def test_base_beside_base_file_is_an_error(source, tmp_path, capsys):
    # the file gives the base, so a --base naming another source gives it twice
    base = tmp_path / "base.json"
    code, _, _ = run(["basis", "--type", "A2", "--m", "1", "--k", "0", "--out", str(base)],
                     capsys)
    assert code == EXIT_OK
    code, out, err = run(["basis", "--type", "A2", "--m", "1", "--k", "1", "--base", source,
                          "--base-file", str(base)], capsys)
    assert (code, out) == (EXIT_FAIL, "")
    assert err.startswith("error: --base %s " % source) and err.count("\n") == 1


def test_base_user_without_base_file_is_an_error(capsys):
    code, out, err = run(["basis", "--type", "G2", "--k", "0", "--base", "user"], capsys)
    assert (code, out, err) == (EXIT_FAIL, "", "error: --base user needs --base-file\n")


def test_basis_rejects_bad_user_base(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # coordinate fields are not tangent to the arrangement
    bad.write_text(json.dumps([
        {"degree": 0, "coefficients": [[[[0, 0], "1"]], []]},
        {"degree": 0, "coefficients": [[], [[[0, 0], "1"]]]},
    ]), encoding="utf-8")
    code, _, err = run(["basis", "--type", "B2", "--m", "1", "--k", "1",
                        "--base-file", str(bad), "--no-cache"], capsys)
    assert code == EXIT_NOT_A_BASIS
    assert "not a basis" in err


@pytest.mark.parametrize("member", [
    {"degree": 0},
    {"degree": 0, "coefficients": [[[[0, 0], 1]], []]},
    {"degree": 0, "coefficients": [[[[0, 0.5], "1"]], []]},
    {"degree": 0, "coefficients": [[[[0, 0], "1", "2"]], []]},
    [[[0, 0], "1"]],
    {"degree": 0, "coefficients": [[[[0, 0], "1/0"]], []]},
    {"degree": 0, "coefficients": [[[[0, 0], "2-sqrt(4)"]], []]},
    # two terms x d/dx: the second must not silently replace the first
    {"degree": 1, "coefficients": [[[[1, 0], "1"], [[1, 0], "2"]], []]},
])
def test_basis_rejects_malformed_base_file(tmp_path, capsys, member):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([member, {"degree": 0, "coefficients": [[], [[[0, 0], "1"]]]}]),
                   encoding="utf-8")
    code, _, err = run(["basis", "--type", "B2", "--m", "0", "--k", "0",
                        "--base", "user", "--base-file", str(bad), "--no-cache"], capsys)
    assert code == EXIT_FAIL
    assert err.startswith("error: base member 0:")


def test_base_member_past_the_exponent_fields_is_unsupported(tmp_path, capsys):
    # a member term of degree MAX_DEGREE + 1 does not fit a key: exit 4, no traceback
    big = tmp_path / "big.json"
    big.write_text(json.dumps([
        {"degree": MAX_DEGREE + 1, "coefficients": [[[[MAX_DEGREE + 1, 0], "1"]], []]},
        {"degree": 0, "coefficients": [[], [[[0, 0], "1"]]]},
    ]), encoding="utf-8")
    code, out, err = run(["basis", "--type", "B2", "--m", "0", "--k", "0",
                          "--base", "user", "--base-file", str(big), "--no-cache"], capsys)
    assert (code, out) == (EXIT_UNSUPPORTED, "")
    assert err == ("unsupported or over budget: monomial of degree %d: degrees above %d do not "
                   "fit a key\n" % (MAX_DEGREE + 1, MAX_DEGREE))


def test_user_base_reads_a_radicand_that_is_not_square_free(tmp_path, capsys):
    # I2(8) lives over Q(sqrt(2)); sqrt(8) is 2*sqrt(2) there
    outputs = []
    for coeff in ("sqrt(8)", "2*sqrt(2)"):
        base = tmp_path / "base.json"
        base.write_text(json.dumps([
            {"degree": 0, "coefficients": [[[[0, 0], "1"]], []]},
            {"degree": 0, "coefficients": [[[[0, 0], coeff]], [[[0, 0], "1"]]]},
        ]), encoding="utf-8")
        code, out, err = run(["basis", "--type", "I2(8)", "--m", "0", "--k", "0",
                              "--base", "user", "--base-file", str(base), "--no-cache"], capsys)
        assert code == EXIT_OK, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_base_member_above_the_multiplicity_sum_computes_no_contact_order(
        tmp_path, capsys, monkeypatch):
    calls = []

    def counting(fields, forms, original=certify.contact_orders):
        calls.append(forms)
        return original(fields, forms)

    monkeypatch.setattr(certify, "contact_orders", counting)
    bad = tmp_path / "bad.json"
    # x^3 d/dx_0 has degree 3, and a basis for m = 0 has degrees summing to 0
    bad.write_text(json.dumps([
        {"degree": 3, "coefficients": [[[[3, 0], "1"]], []]},
        {"degree": 0, "coefficients": [[], [[[0, 0], "1"]]]},
    ]), encoding="utf-8")
    code, _, err = run(["basis", "--type", "B2", "--m", "0", "--k", "0",
                        "--base", "user", "--base-file", str(bad), "--no-cache"], capsys)
    assert code == EXIT_NOT_A_BASIS
    assert "member 0 has degree 3, above the multiplicity sum 0" in err
    assert calls == []


@pytest.mark.parametrize("fmt, expected", [("text", 0), ("json", 1)])
def test_basis_report_is_built_only_for_json(fmt, expected, capsys, monkeypatch):
    calls = []

    def counting(*args, original=cli.basis_report):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "basis_report", counting)
    code, _, _ = run(["basis", "--type", "B2", "--m", "1", "--k", "1", "--format", fmt,
                      "--no-cache"], capsys)
    assert code == EXIT_OK
    assert len(calls) == expected


@pytest.mark.parametrize("first", [[], [[[1, 0], "1"], [[0, 0], "1"]]])
def test_basis_zero_or_mixed_degree_base_member_exits_not_a_basis(tmp_path, capsys, first):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([
        {"degree": None, "coefficients": [first, []]},
        {"degree": 0, "coefficients": [[], [[[0, 0], "1"]]]},
    ]), encoding="utf-8")
    code, _, err = run(["basis", "--type", "B2", "--m", "0", "--k", "0",
                        "--base", "user", "--base-file", str(bad), "--no-cache"], capsys)
    assert code == EXIT_NOT_A_BASIS
    assert "member 0" in err


def test_basis_time_budget(capsys):
    code, _, err = run(["basis", "--type", "B3", "--m", "1", "--k", "1",
                        "--time-budget", "1e-9", "--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "budget" in err


def test_time_budget_message_shows_the_budget_given(capsys):
    code, _, err = run(["basis", "--type", "A2", "--m", "1", "--k", "1",
                        "--time-budget", "1e-9", "--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "time budget of 1e-09s exceeded after group construction" in err


@pytest.mark.parametrize("argv", [
    ["info", "A2", "--format", "json"],
    ["basis", "--type", "A2", "--m", "1", "--k", "1"],
    ["verify", "--type", "A2", "--suite", "jacobian", "--format", "json"],
])
def test_cache_dir_that_is_a_file_is_ignored(argv, tmp_path, capsys):
    # a regular file where a cache directory would be; the option is ignored
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("", encoding="utf-8")
    code, out, err = run(argv + ["--cache-dir", str(blocker)], capsys)
    expected_code, expected_out, _ = run(argv + ["--no-cache"], capsys)
    assert (code, out, err) == (expected_code, expected_out, "")
    assert code == EXIT_OK
    assert blocker.read_text(encoding="utf-8") == ""


def test_basis_writes_no_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    cache = tmp_path / "cache"
    code, _, err = run(["basis", "--type", "A2", "--m", "1", "--k", "1",
                        "--cache-dir", str(cache)], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert list(tmp_path.rglob("*")) == []


def test_verify_all_suites(capsys):
    code, out, _ = run(["verify", "--type", "A2", "--samples", "5",
                        "--no-cache"], capsys)
    assert code == EXIT_OK
    for suite in ("euler", "jacobian", "shift", "hodge"):
        assert suite in out
    assert "FAIL" not in out


def test_verify_json_format(capsys):
    code, out, _ = run(["verify", "--type", "A1", "--suite", "euler",
                        "--samples", "5", "--format", "json", "--no-cache"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] is True
    assert data["suites"][0]["suite"] == "euler"


def test_verify_hodge_degrees_flag(capsys):
    code, out, _ = run(["verify", "--type", "A2", "--suite", "hodge",
                        "--degrees", "1,2", "--k", "1", "--no-cache"], capsys)
    assert code == EXIT_OK
    assert "hodge" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("attr", ["group_order", "num_hyperplanes"])
def test_group_construction_alarm_exits_three(attr, capsys, monkeypatch):
    from coxbasis.coxeter import CoxeterDatum

    wrong = CoxeterDatum.group_order(parse_type("B2")) + 1 if attr == "group_order" else 5
    replacement = (lambda self: wrong) if attr == "group_order" else property(lambda self: wrong)
    monkeypatch.setattr(CoxeterDatum, attr, replacement)
    code, _, err = run(["basis", "--type", "B2", "--m", "1", "--k", "0", "--no-cache"], capsys)
    assert code == EXIT_CERTIFICATE
    assert "group construction failure" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    [],
    ["basis", "--type", "A2", "--m", "2"],
    # --m and --mfile name one multiplicity twice, whichever value --m has
    ["basis", "--type", "B2", "--m", "1", "--mfile", MFILE, "--k", "0"],
    ["basis", "--type", "B2", "--m", "0", "--mfile", MFILE, "--k", "0"],
    ["basis", "--type", "A2", "--k", "x"],
    ["basis", "--type", "A2", "--k", "-1"],
    ["basis", "--type", "A2", "--time-budget", "nan"],
    ["basis", "--type", "A2", "--time-budget", "inf"],
    ["basis", "--type", "A2", "--time-budget", "0"],
    ["basis", "--type", "A2", "--time-budget", "-1"],
    ["basis", "--type", "A2", "--time-budget", "x"],
    ["verify", "--type", "A2", "--suite", "hodge", "--k", "-1"],
    ["verify", "--type", "A2", "--suite", "euler", "--samples", "-2"],
    ["verify", "--type", "A2", "--suite", "hodge", "--degrees", "-5"],
    ["verify", "--type", "A2", "--suite", "hodge", "--degrees", "x"],
    ["verify", "--type", "A2", "--suite", "hodge", "--degrees", "1,-2"],
])
def test_usage_errors_exit_one(argv, capsys):
    # argparse would exit 2, the code reserved for "not a basis"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--no-cache"] if argv else argv)
    assert info.value.code == EXIT_FAIL
    assert "usage:" in capsys.readouterr().err


def test_usage_error_exit_status_of_the_process():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "coxbasis.cli", "verify", "--type", "A2",
                           "--samples", "-2"], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_FAIL
    assert "expected a nonnegative integer" in proc.stderr


@pytest.mark.parametrize("argv, label, rank", [
    (["basis", "--type", "A2", "--rank", "3", "--m", "0", "--k", "0"], "A2", "3"),
    (["info", "A3", "5"], "A3", "5"),
    (["info", "I2(5)", "7"], "I2(5)", "7"),
    (["info", "G2", "5"], "G2", "5"),
])
def test_conflicting_rank_is_unsupported(argv, label, rank, capsys):
    code, _, err = run(argv + ["--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "type '%s' does not have rank %s" % (label, rank) in err


@pytest.mark.parametrize("argv, label", [
    (["info", "A3", "3"], "A3"),
    (["info", "I2", "5"], "I2(5)"),
    (["info", "I2(5)", "5"], "I2(5)"),
    (["basis", "--type", "A", "--rank", "3", "--m", "0", "--k", "0", "--format", "text"], "A3"),
])
def test_agreeing_rank_is_accepted(argv, label, capsys):
    code, out, _ = run(argv + ["--no-cache"], capsys)
    assert code == EXIT_OK
    assert out.split()[1] == label


@pytest.mark.parametrize("label", ["Ax", "B3.5", "Z3", "I2(7)", "I2(5"])
def test_malformed_label_is_unsupported(label, capsys):
    code, _, err = run(["info", label, "--no-cache"], capsys)
    assert code == EXIT_UNSUPPORTED
    assert "unsupported" in err and label in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("label", ["A" + "1" * 5000, "I2(" + "7" * 5000 + ")"], ids=["A", "I2"])
def test_label_with_more_digits_than_int_reads_is_unsupported(label, capsys):
    code, out, err = run(["info", label], capsys)
    assert (code, out) == (EXIT_UNSUPPORTED, "")
    assert "cannot read the type label" in err and label in err


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    import coxbasis.cli as cli

    built = []

    def counting():
        built.append(True)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    assert run(["info", "A1", "--no-cache"], capsys)[0] == EXIT_OK
    assert run(["info", "A2", "--no-cache"], capsys)[0] == EXIT_OK
    assert len(built) == 1
