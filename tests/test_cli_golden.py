"""Exact-mode CLI reports pinned by the sha256 of stdout and the exit code.

Any change to an exact-mode report, byte for byte, fails here. Float mode
is left out because its last digits depend on the numpy/LAPACK build.
Reports echo the command line and input paths, so the inputs are written to
a temporary directory that becomes the working directory, and are passed by
relative path.
"""
import hashlib

import pytest

import schemelab as sl
from schemelab.cli import main

from conftest import PAIR_CELLS

FAMILIES = ("petersen", "hamming,3,2", "johnson,5,2", "cycle,4")


def _stem(family):
    return family.replace(",", "-")


def _commands():
    out = []
    for family in FAMILIES:
        stem = _stem(family)
        base = [
            ["spectra", "--family", family],
            ["partition", "--family", family, "--partition", f"{stem}.dist.cells",
             "--feasibility", "--multiplicities"],
            ["partition", "--family", family, "--partition", f"{stem}.pairs.cells",
             "--feasibility", "--multiplicities"],
            ["automorphism", "--family", family, "--permutation", f"{stem}.ident.perm"],
            ["automorphism", "--family", family, "--permutation", f"{stem}.swap.perm"],
            ["search", "--family", family, "--sizes", "1..2", "--feasibility"],
        ]
        for argv in base:
            out += [argv, argv + ["--json"]]
    return out


def _write_inputs(directory, family):
    name, *params = family.split(",")
    s = sl.named_scheme(name, *(int(x) for x in params))
    labels = s.labels
    stem = _stem(family)
    distance = [[labels[y] for y in range(s.v) if s.relation_of[0][y] == i]
                for i in range(s.d + 1)]
    pairs = PAIR_CELLS if name == "petersen" else \
        [labels[x:x + 2] for x in range(0, s.v, 2)]
    swapped = [labels[1], labels[0], *labels[2:]]
    for suffix, lines in (("dist.cells", distance), ("pairs.cells", pairs),
                          ("ident.perm", [labels]), ("swap.perm", [swapped])):
        (directory / f"{stem}.{suffix}").write_text(
            "".join(" ".join(line) + "\n" for line in lines))


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    for family in FAMILIES:
        _write_inputs(directory, family)
    return directory


# " ".join(argv) -> (sha256 of stdout, exit code)
DIGESTS = {
    "spectra --family petersen":
        ("f6d36109fc1f01d503e293510a57c829c8ce94999ab873e16e29fdec2402075e", 0),
    "spectra --family petersen --json":
        ("a98626ac3b6d0bb4b376bc85041b0887025276089c1849a280ed7e6e69b50342", 0),
    "partition --family petersen --partition petersen.dist.cells --feasibility --multiplicities":
        ("bdf7ab9d9599c45d3c82fc237959711a4d7544415b0d06f215082169daffefae", 0),
    "partition --family petersen --partition petersen.dist.cells --feasibility --multiplicities --json":
        ("ac1c6c97027099d66e768fde150fa4f14cba9bd0e59866350ea71b1d5b994fe2", 0),
    "partition --family petersen --partition petersen.pairs.cells --feasibility --multiplicities":
        ("b676d6930316406637ee1d897071b1247dfc5ee520d85ef154f8ff3f9a4c3813", 1),
    "partition --family petersen --partition petersen.pairs.cells --feasibility --multiplicities --json":
        ("7acfc049b2f72df34c597f00165b0415894eb1eefb8180bb860e18dfb224ff25", 1),
    "automorphism --family petersen --permutation petersen.ident.perm":
        ("22a4b94b8065c7413ba72b580b53a88ab19a525868fc015b8baa87250b72fde8", 0),
    "automorphism --family petersen --permutation petersen.ident.perm --json":
        ("2e79bb0b67627e71a1d8b479eb46110bc960e0bcfdc69ed2b488af9be0ee87c1", 0),
    "automorphism --family petersen --permutation petersen.swap.perm":
        ("37f3ee9f4fa3e48dddc07318b903213bfffff8892b7de4417057585bd161f05a", 1),
    "automorphism --family petersen --permutation petersen.swap.perm --json":
        ("a572936349c42d66d00731fc5c1d2eea37dd5b327ee2f8c1e9a04fb8c569dfe3", 1),
    "search --family petersen --sizes 1..2 --feasibility":
        ("79e0924c9812f610d10ff37b9934df486742d56ea63f42f085db7654b4545309", 0),
    "search --family petersen --sizes 1..2 --feasibility --json":
        ("c268c830285f3a5b6737e0e3cdd9172ac271ccf508cb18a7373a94a2a0abc8f4", 0),
    "spectra --family hamming,3,2":
        ("820154b6e5663addd3e6506468b745cc428d7ebdc0cd8c2e14c0d216bbe325ff", 0),
    "spectra --family hamming,3,2 --json":
        ("ea05fc4a3745051b206fa397178867231f92770c996c20c22e3efd9c8b1d0fc0", 0),
    "partition --family hamming,3,2 --partition hamming-3-2.dist.cells --feasibility --multiplicities":
        ("95143aeca938578a73bec2c4304fcfb44c112c06c18c0356b724fac6622d4e58", 0),
    "partition --family hamming,3,2 --partition hamming-3-2.dist.cells --feasibility --multiplicities --json":
        ("dbca3f5ccec23fb63fc55a48658343e33f8e4e09d2f92d3dd297b96c38f93b8a", 0),
    "partition --family hamming,3,2 --partition hamming-3-2.pairs.cells --feasibility --multiplicities":
        ("c7cb0869972e75300971ce724ce9e495b3988aa1b90134196333b1fa48200181", 0),
    "partition --family hamming,3,2 --partition hamming-3-2.pairs.cells --feasibility --multiplicities --json":
        ("36dd680d9f0522712c1e978d867d078bfad3c596aecf53a6a62b0ecc2a8039bc", 0),
    "automorphism --family hamming,3,2 --permutation hamming-3-2.ident.perm":
        ("81044af9864c98bf52df4add5dff38f0578c0408627031345803f27497fd10b1", 0),
    "automorphism --family hamming,3,2 --permutation hamming-3-2.ident.perm --json":
        ("cb8a96b5abd26c258302f9a384e2b7bec4cf15512a49d53d9b6da879a1f3d558", 0),
    "automorphism --family hamming,3,2 --permutation hamming-3-2.swap.perm":
        ("8f00e5f4abd25dc41e4a2c152a2938be16ffb02aa0e507663d68f192241cc191", 1),
    "automorphism --family hamming,3,2 --permutation hamming-3-2.swap.perm --json":
        ("8a571e5cd76b78358ff29b952680ff4f222aa08536dab0f849c4d7fe239d36b7", 1),
    "search --family hamming,3,2 --sizes 1..2 --feasibility":
        ("bb1a6461f24f743f7e8ae5523ed5c43e51e0101b1855d24fc895d2d7bd9132f3", 0),
    "search --family hamming,3,2 --sizes 1..2 --feasibility --json":
        ("1ac161b6ddf380dc8221fbc225193bb2c9cce9a2246dd9b43e23efb899b54874", 0),
    "spectra --family johnson,5,2":
        ("4b5029b909574327a7e5129c913e5b95d8c915f1c32f1fe927c319ab2114e12e", 0),
    "spectra --family johnson,5,2 --json":
        ("493e52ca6e2e082e978d151974de5ed733f6609ed05a5eecc841b7042b5d7f24", 0),
    "partition --family johnson,5,2 --partition johnson-5-2.dist.cells --feasibility --multiplicities":
        ("541cb162c6eabd2c954f962847f57d431828e99383b67cbf2ea7a819272c627b", 0),
    "partition --family johnson,5,2 --partition johnson-5-2.dist.cells --feasibility --multiplicities --json":
        ("56ce721b491a411b2000d7a12cc86ffff8da88719f9803c535e399fafd1cfdbb", 0),
    "partition --family johnson,5,2 --partition johnson-5-2.pairs.cells --feasibility --multiplicities":
        ("13c329903078d2b2212ccf7b50517c04a22760ad65399e75f776c40262b01bb3", 1),
    "partition --family johnson,5,2 --partition johnson-5-2.pairs.cells --feasibility --multiplicities --json":
        ("1816f5ce21e3538990d5a52ed23d721f60b6063f3eeda4d1555abd5af2513039", 1),
    "automorphism --family johnson,5,2 --permutation johnson-5-2.ident.perm":
        ("ba53347e2b8a70b577c1287aa4065020cb4107a515adcba222d0f89956ef0954", 0),
    "automorphism --family johnson,5,2 --permutation johnson-5-2.ident.perm --json":
        ("72722bf4c2be95a63ff6ee61877c79f2c62483dfdec3bba4e372fe24820a11a2", 0),
    "automorphism --family johnson,5,2 --permutation johnson-5-2.swap.perm":
        ("afe8b6efc3d4e812dfd5adcf91b7ece73a9945498c4c1b081e0e1fac3b94b82f", 1),
    "automorphism --family johnson,5,2 --permutation johnson-5-2.swap.perm --json":
        ("992dc76d6bb8da7fe9218b8c36f345a18ef16f737c7181c813fc3cca3160445b", 1),
    "search --family johnson,5,2 --sizes 1..2 --feasibility":
        ("0b7ccdbd3d6df98a222ef4e92df028202e8e3c74fbb24c75088e65129d374ca2", 0),
    "search --family johnson,5,2 --sizes 1..2 --feasibility --json":
        ("59588fe4a8b55458b24eb949c9dcbab7c33023123e4a54d117d416c1a2eb28d9", 0),
    "spectra --family cycle,4":
        ("1209d69329e47afa7fdaf773ec5d6ae0f21fdf5724aaa3738c547d31e9442011", 0),
    "spectra --family cycle,4 --json":
        ("58b90dd72a0e381a0105d4d0eb3e0626990f656dbda975ee3c389fb82800b3d4", 0),
    "partition --family cycle,4 --partition cycle-4.dist.cells --feasibility --multiplicities":
        ("04e5a93acc5095a91fe688c8f6d1576978344ceac7105cad175a0182b02c610b", 0),
    "partition --family cycle,4 --partition cycle-4.dist.cells --feasibility --multiplicities --json":
        ("3cb21713eaddef368fe53fce72221145fe6338f4227075e86cb3ebb06950903a", 0),
    "partition --family cycle,4 --partition cycle-4.pairs.cells --feasibility --multiplicities":
        ("aded9d08e76815f6f9b58ab4e615546256a4dd7c00eab525af5705e1a5232911", 0),
    "partition --family cycle,4 --partition cycle-4.pairs.cells --feasibility --multiplicities --json":
        ("abe9dc08de2d96e6bfde555ac7a460529b5565371c65b4582b7346ab166dc5d8", 0),
    "automorphism --family cycle,4 --permutation cycle-4.ident.perm":
        ("0dcff3241320f9c1e91d389d8586a51e67cf5c47a18fee704e6a478d4d7e2d97", 0),
    "automorphism --family cycle,4 --permutation cycle-4.ident.perm --json":
        ("207787fe920665b191a9e1c270d5a432451c7109429c94634b406de2d6644fba", 0),
    "automorphism --family cycle,4 --permutation cycle-4.swap.perm":
        ("07de2366f42c18f814e7171a78b0733f25990fc2548261927952ec501e1a9952", 1),
    "automorphism --family cycle,4 --permutation cycle-4.swap.perm --json":
        ("907e99fdf6daf2f244a74ff9fbaeb49fe5ca2dd22092fa042c3cd690adfaf6ed", 1),
    "search --family cycle,4 --sizes 1..2 --feasibility":
        ("e35a79ca8b2ec65262c188d8851b96552f8706791c23eb4bc84c043459ca1f4b", 0),
    "search --family cycle,4 --sizes 1..2 --feasibility --json":
        ("86b51e1b95f6b7ccf0a8b7af93f71ea5a477bcbb6d2fdc73d166408c07b206e7", 0),
}


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_exact_report_is_pinned(argv, golden_dir, monkeypatch, capsys):
    monkeypatch.chdir(golden_dir)
    code = main(argv)
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == \
        DIGESTS[" ".join(argv)]
