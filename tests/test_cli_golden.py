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
from schemelab import fileio
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


# -- verify reports ----------------------------------------------------------

def _relation_text(blocks):
    """Relation file for 0/1 blocks given as lists of rows."""
    v = len(blocks[0])
    return f"{v} {len(blocks) - 1}\n" + "\n".join(
        "".join("".join(map(str, row)) + "\n" for row in block)
        for block in blocks)


def _table_blocks(v, relation):
    """0/1 blocks A_0..A_d of a relation table given as relation(x, y)."""
    d = max(relation(x, y) for x in range(v) for y in range(v))
    return [[[int(relation(x, y) == i) for y in range(v)] for x in range(v)]
            for i in range(d + 1)]


def _split_hamming32(x, y):
    """H(3,2) distances with distance 2 split by the middle coordinate:
    2 if the words agree there, 3 if not; distance 3 becomes 4. The first
    axiom-4 witness is (1, 2, 1, 0, 2)."""
    a, b = format(x, "03b"), format(y, "03b")
    dist = sum(p != q for p, q in zip(a, b))
    if dist == 2:
        return 2 if a[1] == b[1] else 3
    return 4 if dist == 3 else dist


IDENT3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
OFF3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
VERIFY_INPUTS = {
    "axiom1.rel": _relation_text([[[0, 1], [1, 0]], [[1, 0], [0, 1]]]),
    "nonbinary.rel": _relation_text([IDENT3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]]]),
    "empty.rel": _relation_text([IDENT3, [[0] * 3] * 3, OFF3]),
    "overlap.rel": _relation_text(
        [IDENT3, OFF3, [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]),
    "directed.rel": _relation_text(
        [IDENT3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
         [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]),
    "path.rel": _relation_text(_table_blocks(4, lambda x, y: abs(x - y))),
    "split-hamming-3-2.rel": _relation_text(_table_blocks(8, _split_hamming32)),
    "path.edges": "a b\nb c\nc d\n",
    "prism.edges": "a b\nb c\na c\nx y\ny z\nx z\na x\nb y\nc z\n",
}


def _verify_commands():
    base = [["verify", "--family", family] for family in FAMILIES]
    base += [["verify", "--relations", name] for name in VERIFY_INPUTS
             if name.endswith(".rel")]
    base += [["verify", "--edges", name, "--drg"] for name in VERIFY_INPUTS
             if name.endswith(".edges")]
    return [argv for b in base for argv in (b, b + ["--json"])]


@pytest.fixture(scope="module")
def verify_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("verify")
    for name, text in VERIFY_INPUTS.items():
        (directory / name).write_text(text)
    return directory


# " ".join(argv) -> (sha256 of stdout, exit code)
VERIFY_DIGESTS = {
    "verify --family petersen":
        ("0c857f499a491ed05fc380ead6bd5f0b401ce27ab1b0ec5e3191bd1bb565fc01", 0),
    "verify --family petersen --json":
        ("9f7c619df169b095ffdea28aad083cb61fda4d9e24b7329eb4099583a9822f91", 0),
    "verify --family hamming,3,2":
        ("76799f2a246088abc89139b6b4b949f8ed052aa21185103e27c222ee0e24ba92", 0),
    "verify --family hamming,3,2 --json":
        ("5ecd37d05f3e3a817b94ebc7b947eede3f4f9477359310c0a82c27e000217f95", 0),
    "verify --family johnson,5,2":
        ("ebb0e881e251ea7f21a54ca6884a5d1bd3731e540f9767d9d45ce920552835b4", 0),
    "verify --family johnson,5,2 --json":
        ("473ca4a5a0420d183c828654eeb1b63dd2b1db8be26e14749e27944fb310516b", 0),
    "verify --family cycle,4":
        ("a1644ded53dd24f09c4efdb878320986b81a8423222fba900ebf482b2780a8a6", 0),
    "verify --family cycle,4 --json":
        ("53de78cb6b7d76907b751e912efbed6fbddcefa389aaae42ff2c9a2d07915d0e", 0),
    "verify --relations axiom1.rel":
        ("7f4d59c8827b88d925f8c5392688d963d9b58f83ad7d868987196c1d85e2cc8a", 1),
    "verify --relations axiom1.rel --json":
        ("885131c360b7f6afb60d5eeb4ad977c524e128973b65445a4fbae96107e5d8df", 1),
    "verify --relations nonbinary.rel":
        ("84292db169c8ba407370019ae71a3c72d9afeffc55acaeac138d5e3c1882b1ce", 1),
    "verify --relations nonbinary.rel --json":
        ("0f9e42f203f5505a761866a14b62555a1f26d4e97927e5835dd0b870818ca16a", 1),
    "verify --relations empty.rel":
        ("01dca163fa97fb6282b64c3d1dc29bde830fe6cee9312f8e80b624aa8183c7fd", 1),
    "verify --relations empty.rel --json":
        ("1ed2a9a06fb21eb1dd2425ef0c21d74419c31926a254a2f1b1100096a4c16d45", 1),
    "verify --relations overlap.rel":
        ("fb59ba724e2c8067bac82eba5255fb469d8341134862e43a61622960f42e8a5e", 1),
    "verify --relations overlap.rel --json":
        ("582bbb749237ce2b8007861e1919c27d859f490ab935c3872476e93b3cd57149", 1),
    "verify --relations directed.rel":
        ("cb5d8ad6c219ea5dda8c929749ff0815fc07b766036598d83e75a0a553db7ba5", 1),
    "verify --relations directed.rel --json":
        ("5d7356efa3171ecfb447d268af6c469cdd75854c4ddee1d4cbf1c0a5ad91a150", 1),
    "verify --relations path.rel":
        ("fdfa45b46a9bfffc845710fbe96d2439bdb725645d04b40b8473a91ee496d372", 1),
    "verify --relations path.rel --json":
        ("7b9e604696a6df6fe166cd7719a474efcac44e5f15b96a8c74d6d42fa9e36790", 1),
    "verify --relations split-hamming-3-2.rel":
        ("b75009d477660c92e5d0890cf0fc6728b7fbdc5f139e0a40d9cf15c4d58c93cd", 1),
    "verify --relations split-hamming-3-2.rel --json":
        ("08b09b85789c5ad53193420fd8bb2481218ab10d6784991ae798c3980c5c6262", 1),
    "verify --edges path.edges --drg":
        ("436c58e99a2e80bd97724a8583817dd68855daf6687dacd33d0d62561ba6cfe4", 1),
    "verify --edges path.edges --drg --json":
        ("77adfe2b229b1f268e86b8f54e7470f8c74f5221fd6d803a9b25fb68a2ee8841", 1),
    "verify --edges prism.edges --drg":
        ("9d48eac86e449a196be549e81afba0a7842c389f6ba1b9a8880a05a28f3e2774", 1),
    "verify --edges prism.edges --drg --json":
        ("b7989e6427be762238d5242d3b79d28bde3dd88d071eaf48dfd892921c0460ec", 1),
}


@pytest.mark.parametrize("argv", _verify_commands(), ids=" ".join)
def test_verify_report_is_pinned(argv, verify_dir, monkeypatch, capsys):
    monkeypatch.chdir(verify_dir)
    code = main(argv)
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == \
        VERIFY_DIGESTS[" ".join(argv)]


# -- no v x v RationalMatrix on a CLI path -----------------------------------

def _vertex_count(argv):
    """v of the scheme a command reads: from the family, the relation-file
    header, or the edge list."""
    source, value = argv[1], argv[2]
    if source == "--family":
        name, *params = value.split(",")
        return sl.named_scheme(name, *(int(x) for x in params)).v
    if source == "--relations":
        with open(value) as f:
            return int(f.readline().split()[0])
    return fileio.read_edge_list(value).v


@pytest.fixture
def matrix_rows(monkeypatch):
    """The row count of every RationalMatrix built while the test runs."""
    rows = []
    original = sl.RationalMatrix.__init__

    def recording(self, data):
        original(self, data)
        rows.append(self.nrows)

    monkeypatch.setattr(sl.RationalMatrix, "__init__", recording)
    return rows


@pytest.mark.parametrize("argv", _commands() + _verify_commands(),
                         ids=" ".join)
def test_no_vertex_sized_rational_matrix(argv, golden_dir, verify_dir,
                                         monkeypatch, capsys, matrix_rows):
    verify = argv[0] == "verify"
    monkeypatch.chdir(verify_dir if verify else golden_dir)
    v = _vertex_count(argv)
    matrix_rows.clear()
    code = main(argv)
    out = capsys.readouterr().out
    assert v not in matrix_rows
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == \
        (VERIFY_DIGESTS if verify else DIGESTS)[" ".join(argv)]


def test_library_routes_build_no_vertex_sized_matrix(
        exact_catalog, cycle5, cycle7, verify_dir, matrix_rows):
    for name in VERIFY_INPUTS:
        if name.endswith(".rel"):
            labels, mats = fileio.read_relation_file(verify_dir / name)
            sl.verify_axioms(mats, labels)
            assert len(labels) not in matrix_rows
    for s in exact_catalog + [cycle5, cycle7]:
        relations = s.relations
        matrix_rows.clear()
        assert sl.verify_axioms(relations).ok
        spec = sl.common_eigenspaces(s)
        for part in (sl.distance_partition(s, 1, [0])[0],
                     sl.one_cell_partition(s), sl.singleton_partition(s)):
            sl.godsil_condition(s, spec, part)
        assert s.v not in matrix_rows
