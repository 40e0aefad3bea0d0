"""Byte-identity pins for the command line.

Every subcommand runs in json and tsv, on the fan side and with --dual, on
the golden P(1,1,2,2,2) vertex file, cross4, cube4 and P(1,1,1,6,9), and on
one --wps input; the wps command runs in its three formats, and
sectors-toric --dual on P(1,1,12,28,42) and P(1^6) and sectors-cy on the
fan side of P(1,1,12,28,42) in json and tsv. info, faces, dual and
reflexive run on cube5 and cross6 in both formats and on both sides, and
info on the 6-cube and on all 81 lattice points of the 4-cube. Each run pins
its exit code and the sha256 of its stdout, and runs exactly one convex
hull. The error paths pin the exit code and the single stderr line. A
change that alters one byte of output fails here, so output changes are
made on purpose, with new digests.
"""

import hashlib
from itertools import product

import pytest

from reflexorb import polytope
from reflexorb.cli import main
from reflexorb.polytope import format_vertex_matrix

from test_polytope import CROSS4, CROSS6, CUBE4, P11169, PAIR_INPUTS, SIMPLEX_POLAR

COMMANDS = (
    "info",
    "reflexive",
    "dual",
    "faces",
    "points",
    "sectors-toric",
    "sectors-cy",
    "hodge",
    "mirror",
    "oracle-jacobian",
)
FORMATS = ("json", "tsv")
WPS = "1,1,1,1,2"
INPUTS = {
    "golden": format_vertex_matrix(SIMPLEX_POLAR),
    "cross4": format_vertex_matrix(CROSS4),
    "cube4": format_vertex_matrix(CUBE4),
    "p11169": format_vertex_matrix(P11169),
    "p1122842": format_vertex_matrix(PAIR_INPUTS["p1,1,12,28,42"]),
    "p1six": format_vertex_matrix([*(tuple(int(i == j) for j in range(5)) for i in range(5)), (-1,) * 5]),
    "cube5": format_vertex_matrix(list(product((-1, 1), repeat=5))),
    "cross6": format_vertex_matrix(CROSS6),
    "cube6": format_vertex_matrix(list(product((-1, 1), repeat=6))),
    # every lattice point of [-1, 1]^4, so the hull must drop 65 non-vertices
    "cube4points": format_vertex_matrix(list(product((-1, 0, 1), repeat=4))),
    "doubled": format_vertex_matrix([tuple(2 * x for x in v) for v in SIMPLEX_POLAR]),
    "square": format_vertex_matrix([(-1, -1), (1, -1), (1, 1), (-1, 1)]),
    "flat": format_vertex_matrix([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]),
    "short": "5 4\n1 0 0 0\n0 1 0\n",
}


def cases():
    """(case id, argv) for every stdout pin; `@name` stands for the path of
    the input file `name`."""
    for name in ("golden", "cross4", "cube4", "p11169"):
        for cmd in COMMANDS:
            for side in ("fan", "dual"):
                for fmt in FORMATS:
                    dual = ["--dual"] if side == "dual" else []
                    yield f"{cmd} {name} {side} {fmt}", [cmd, f"@{name}", *dual, "--format", fmt]
    for cmd in COMMANDS:
        for fmt in FORMATS:
            yield f"{cmd} wps {fmt}", [cmd, "--wps", WPS, "--format", fmt]
    for fmt in FORMATS:
        # 2,543 sectors with the largest coefficient denominators here
        yield f"sectors-toric p1122842 dual {fmt}", ["sectors-toric", "@p1122842", "--dual", "--format", fmt]
        # 5,170 sectors over 944 cones of a five-dimensional fan
        yield f"sectors-toric p1six dual {fmt}", ["sectors-toric", "@p1six", "--dual", "--format", fmt]
        # fan side: 19 sectors on edges and 2-faces, denominators up to 14
        yield f"sectors-cy p1122842 fan {fmt}", ["sectors-cy", "@p1122842", "--format", fmt]
    # hulls that are not simplicial or have many facets: 10, 64 and 12
    # facets, and a cube given by all of its 81 lattice points
    for name in ("cube5", "cross6"):
        for cmd in ("info", "faces", "dual", "reflexive"):
            for side in ("fan", "dual"):
                for fmt in FORMATS:
                    dual = ["--dual"] if side == "dual" else []
                    yield f"{cmd} {name} {side} {fmt}", [cmd, f"@{name}", *dual, "--format", fmt]
    yield "info cube6 fan json", ["info", "@cube6", "--format", "json"]
    for fmt in FORMATS:
        yield f"info cube4points fan {fmt}", ["info", "@cube4points", "--format", fmt]
    for fmt in ("json", "tsv", "vertices"):
        yield f"wps {fmt}", ["wps", "1", "1", "2", "2", "2", "--format", fmt]


# case id -> (exit code, sha256 of stdout)
DIGESTS = {
    "info golden fan json": (0, "3d3b1a52777fb26c6633ed1e4aefc1188498ea8278499934f97feaa41a3e5386"),
    "info golden fan tsv": (0, "5503bb3b1103f400c394cb5ed1c58f3a391d7b57f8440930f8431238e5bdb42e"),
    "info golden dual json": (0, "102f8837284221315e3c2f1dcb3e70eb6c6b863df07dd36cd0e3ba8e175839b9"),
    "info golden dual tsv": (0, "8853206338d1204c0d1ae5765a93d7953276a5b582c26605874441d23215ffab"),
    "reflexive golden fan json": (0, "7ebe40de2260b51ef2ebd35a5356329a06c6129dd0eadfb7e85acfebc64e7c19"),
    "reflexive golden fan tsv": (0, "a92d8a7ff1d49a48f6e5a66b4f4c6978ad799f1057ead8644aae2e63313e5118"),
    "reflexive golden dual json": (0, "7ebe40de2260b51ef2ebd35a5356329a06c6129dd0eadfb7e85acfebc64e7c19"),
    "reflexive golden dual tsv": (0, "a92d8a7ff1d49a48f6e5a66b4f4c6978ad799f1057ead8644aae2e63313e5118"),
    "dual golden fan json": (0, "229a3ebdf408debd569a9a3540c48143fc99ed8d562c89ae12790a698e44fbb9"),
    "dual golden fan tsv": (0, "39697f7e9fa69e3ec191ba06e10700601eeb52f9fd8069b455a5c634e0c029e4"),
    "dual golden dual json": (0, "229a3ebdf408debd569a9a3540c48143fc99ed8d562c89ae12790a698e44fbb9"),
    "dual golden dual tsv": (0, "39697f7e9fa69e3ec191ba06e10700601eeb52f9fd8069b455a5c634e0c029e4"),
    "faces golden fan json": (0, "0518a48d027359260c7c5371305deb311975131e81c0d6bfa406bfeae6ff2934"),
    "faces golden fan tsv": (0, "4d79a86aae8d3b931ed766a805c1d4fa98b559d2be015b524a3c6f941a63b36e"),
    "faces golden dual json": (0, "0518a48d027359260c7c5371305deb311975131e81c0d6bfa406bfeae6ff2934"),
    "faces golden dual tsv": (0, "4d79a86aae8d3b931ed766a805c1d4fa98b559d2be015b524a3c6f941a63b36e"),
    "points golden fan json": (0, "707e83d981f9812b732105ecf15971a28276c89152480323dc56f72204cede45"),
    "points golden fan tsv": (0, "b2580ca53b1ed75768b916db0d7b3023b8800c567fba933463055455408fffa4"),
    "points golden dual json": (0, "707e83d981f9812b732105ecf15971a28276c89152480323dc56f72204cede45"),
    "points golden dual tsv": (0, "b2580ca53b1ed75768b916db0d7b3023b8800c567fba933463055455408fffa4"),
    "sectors-toric golden fan json": (0, "78a4faa15e4d7836b7153f8faf70268160fcab1fd3ed4841c9e50661a813ffec"),
    "sectors-toric golden fan tsv": (0, "2820c3ea4c93b1a7a51f824a39e81ec568f4b7dfacab1182ac4867f2fb50947a"),
    "sectors-toric golden dual json": (0, "bd1151dbb30c5a7959b1f16b51e43d8fa70c2fbebe35eddf70af06954e29616b"),
    "sectors-toric golden dual tsv": (0, "4d3a0d781d89765bfe94ac85ea2c64da469784fbf2873354915a814b3a13d549"),
    "sectors-cy golden fan json": (0, "7e8476ab6688ac51aeb18f58968b787ad29ea35b6a993e6a2da54264fb9178ce"),
    "sectors-cy golden fan tsv": (0, "6d0bc40556e0c9514f114f9ce278740dad2413114373150e4129d20be2c74138"),
    "sectors-cy golden dual json": (0, "31f418f1840c1b46712761f1f3d5ea31c6de022815dc5e951b9d03da6fd3134a"),
    "sectors-cy golden dual tsv": (0, "541e1696d97fcc13db24759f4a9331f8b062bc0e7e9fd07ec4c5878ee1b0638b"),
    "hodge golden fan json": (0, "5fec85494b6408f7348f4e08127428d7c53296e38f97bd5588d5c90324180f44"),
    "hodge golden fan tsv": (0, "e985b918b3494ec24acfb121e815fc82287ea061d8c8d58b0566359b00cfb1fd"),
    "hodge golden dual json": (0, "aed370195aa1a2dcab06d6b1c4a50a37fb769f8580fc136f995b480b27cc991e"),
    "hodge golden dual tsv": (0, "d5625669e3f0382161d1aef2524a3ba454825478ee53b25f79ff5f95f647eede"),
    "mirror golden fan json": (0, "3a2471f1428e94c4b4b591a2f1e270100341ec50ce8a7d98f4c216bcdc0da478"),
    "mirror golden fan tsv": (0, "c7dac1f4bb8690dcafac914a568d4b7aa957460c04e07ffe6b742def4a6fed89"),
    "mirror golden dual json": (0, "34ece32edc4a6b022ebf92f0ed05e8ee36928ed1aa094cea3e5fa606ee2990bd"),
    "mirror golden dual tsv": (0, "235b106cbb0791b38aaf036845bec253f6f2fceaa8a5090eb8b7f52cb4b25bf1"),
    "oracle-jacobian golden fan json": (0, "f107e85ea5eaee4b72cef24bca561bf8a6681b70495d1f081b655320a9f7611b"),
    "oracle-jacobian golden fan tsv": (0, "63c2d47c32ae59b002d9d11acac600dee7644b7eca90fabc09e0b5bc61c82e0a"),
    "oracle-jacobian golden dual json": (0, "eeb84f2e206e007fd969719cbbff667d6f2597d60310a65a1479ec292494ebb2"),
    "oracle-jacobian golden dual tsv": (0, "f1c6c00252b52924b992989f79b895ff86f854898ff733a669a6c340124f71f7"),
    "info cross4 fan json": (0, "f1db98b7ecc74cd6898f6804a34b49144b85667c43f8d0e3747638df869e720d"),
    "info cross4 fan tsv": (0, "390d974a624e8a8f9ece91535e5f4879e089b7299d6d60032865feb066e4af40"),
    "info cross4 dual json": (0, "8761ea839ef9e9d1663bc18c3af67544ba120ce7164eec10e8fdab3541d89d57"),
    "info cross4 dual tsv": (0, "9be25529263a9b38b41aaf13ebad28c65d28b2cea5ba14ac10d3a05bf336a6b7"),
    "reflexive cross4 fan json": (0, "ed05f61a18e40c3740473380bf01804db35c50b41aa30be6e2817e19fcd71ac4"),
    "reflexive cross4 fan tsv": (0, "11ed05f819c0ef6c3e2f75f5fcf08ca69e78c84fdc16b201021558fd79273ec9"),
    "reflexive cross4 dual json": (0, "387705bacef785ccfac8f31d36b0b1eaa5b467fb3dde6dcd8e15e4c43810bed1"),
    "reflexive cross4 dual tsv": (0, "7c1634ffbd32eb3c120ccfe17519e340513d3955a5bdba1e484852fd66fe2c53"),
    "dual cross4 fan json": (0, "1758c65794533b84bdc2febecf93b9bdc4d9fe19a9aea02fc5f353bca3fb418d"),
    "dual cross4 fan tsv": (0, "5ea526438d0eb3589a5b483c9a74ce5ff6613052c7d4afe3514129ac8f3cc8ef"),
    "dual cross4 dual json": (0, "7c4562eff4946694f65ba7b1e8fa830226457cc17fc1c5040997b8f2a6cf469e"),
    "dual cross4 dual tsv": (0, "5ea526438d0eb3589a5b483c9a74ce5ff6613052c7d4afe3514129ac8f3cc8ef"),
    "faces cross4 fan json": (0, "9b5a7d9b6fbbe916bfb3de4eba6d880fb0710f59872f39c57df0ba5448f9a6ea"),
    "faces cross4 fan tsv": (0, "9d89eed790d49c078d28046b6098d2a20552ccc6eb043277c6b96006a0e4b14b"),
    "faces cross4 dual json": (0, "35872a27291d0f18abbdc7bad92a607027cc2f1102a7ac4dfebd87642b301c3a"),
    "faces cross4 dual tsv": (0, "4b7480a14965df6efbc8a61482460d0dc9d64a5306865b06b2bff2a5d979888c"),
    "points cross4 fan json": (0, "3ffa07a5d3113ec512133e264fb968b761b16601094fdeeda54af406b0d57a75"),
    "points cross4 fan tsv": (0, "79f3685b736248f6d9a4cdf11c9b42e7efe35c379782c0e7ff16d23bd8198e42"),
    "points cross4 dual json": (0, "008bcc4d0a45e9517992a7205b28b41065a655061693d4a1acfeb1a3a13ecaed"),
    "points cross4 dual tsv": (0, "d0e7aac4638438c7350abda0271e6ff80c078aa927faf1027f9cb4cc61f995bc"),
    "sectors-toric cross4 fan json": (0, "cb385dca8874c145c691b334b95c244f71595f2efa48651b8084534ff46ebeb8"),
    "sectors-toric cross4 fan tsv": (0, "2d039536a841a6c035e7e5fae6a35c1b44fff2e14d277c7fce684143c0d70465"),
    "sectors-toric cross4 dual json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sectors-toric cross4 dual tsv": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sectors-cy cross4 fan json": (0, "cb385dca8874c145c691b334b95c244f71595f2efa48651b8084534ff46ebeb8"),
    "sectors-cy cross4 fan tsv": (0, "2d039536a841a6c035e7e5fae6a35c1b44fff2e14d277c7fce684143c0d70465"),
    "sectors-cy cross4 dual json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sectors-cy cross4 dual tsv": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hodge cross4 fan json": (0, "9e077dc62bc391f34213c23445f380ced4ad30a58449ab28844f04f063e7e1af"),
    "hodge cross4 fan tsv": (0, "b2a513ea2fea8ad15419cefb0c26b386e446b3acb0edde57e81e5added000943"),
    "hodge cross4 dual json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hodge cross4 dual tsv": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mirror cross4 fan json": (0, "352eb85a8f8dc02c2a1450df9f3b4ecb5db6d983d2729d38779a18a59803f304"),
    "mirror cross4 fan tsv": (0, "2d041a681b30d68bcb1042af5729589c0589518e40d3eb95dbe3fafcf2a3741d"),
    "mirror cross4 dual json": (0, "0a5a8805f0780731f4b3a7602403f65513714646541c5c506d5c98110797d70d"),
    "mirror cross4 dual tsv": (0, "44be7257d09ada8c03a4b1aeeecf56a32930172dd69143bb2016a2e592b28a89"),
    "oracle-jacobian cross4 fan json": (0, "5edbcb3b0f28445474eb816f9d5bdd9563b2810c020eb6bbc301072b9c64f550"),
    "oracle-jacobian cross4 fan tsv": (0, "9234e728dac3555f1c9339a001887b35955b92499fbb04634ff925ac0bc28dda"),
    "oracle-jacobian cross4 dual json": (0, "cb1bb311bd81654c8713cd583af55044d6d2c2048333998f1f60bc01c44e9ddd"),
    "oracle-jacobian cross4 dual tsv": (0, "be27d0d8e7e21c1b7c75cd799bb4ec6157d036f8160f3c2c26a33ccdd1df8eaa"),
    "info cube4 fan json": (0, "5792ea13a7c3e73de45ef7e9418c89635b62ba94809779ada86d88ba22e89aa5"),
    "info cube4 fan tsv": (0, "c7de60612b1412df8fc3c096e1d695aa96f1957794c119293c6d39feff57d4c9"),
    "info cube4 dual json": (0, "58c9ee58e49cb84ec29a2f29d33ce0f81ac0add98101d63fe68d097a09776bc1"),
    "info cube4 dual tsv": (0, "0292b21491ef742870ba7b2b5a24313ca6dcccdb3bb18842aebf10b127001251"),
    "reflexive cube4 fan json": (0, "534b968fd57086e580f07dd85e25444c92efc2cbbc4510089327516a76f468a1"),
    "reflexive cube4 fan tsv": (0, "c9453de8710aa252264ad00e1a4b75307ea68c24c892c0863065dfaa26902c50"),
    "reflexive cube4 dual json": (0, "ffe6b8744df7b081319feb0969e1e2d64579a4ad6a5590b53ecd8d2656500cf1"),
    "reflexive cube4 dual tsv": (0, "38d0145e1cb827312ed80b27a4a3794e88bd6fb0542b3a26f29feec89d3c92a7"),
    "dual cube4 fan json": (0, "39e44fc45d1b43b60eb936cbb30d3ddc162078c8cc0835133b4d6896d26bb438"),
    "dual cube4 fan tsv": (0, "9e62842ff44cd75b6c6e9574de2010432f83cbb32e64f1a696ea8f4678762444"),
    "dual cube4 dual json": (0, "d7b24d4ce85fb306944ebfabaf00159b34ae2b30b82b89f9c8a4dcebaa6ae450"),
    "dual cube4 dual tsv": (0, "9e62842ff44cd75b6c6e9574de2010432f83cbb32e64f1a696ea8f4678762444"),
    "faces cube4 fan json": (0, "0f4b01bd8641934d3fc4bdfbb5c87b96bc8800275b43348b1431e9be410a8e49"),
    "faces cube4 fan tsv": (0, "078b32e57af245492bdefaf9e8a947a35e5b7c3b88b8797243b642dfc64b4587"),
    "faces cube4 dual json": (0, "18644deec9e64064e45b04a24efb5069870dd4ebfbda01ed6ebe2cd60b3b5094"),
    "faces cube4 dual tsv": (0, "6a602f1934587cadd4c2d19093012995fde465561cd3739e43978e5526c60099"),
    "points cube4 fan json": (0, "979f9eb23dd70bae84ffe4d29f9d011558a7c12f08d6f85e9c3371b1a1ed06e3"),
    "points cube4 fan tsv": (0, "1f34f8c8d3c14b56e73f72803d8d75d8c5b694dd36a566dbc25f8ff525a61d46"),
    "points cube4 dual json": (0, "5aea83a4931be2b7b08fec3099ff423f60335a81c6eab27dffeee3259370d811"),
    "points cube4 dual tsv": (0, "0051dbb547e1ede943e518089a86274ad50219d8d095ac53a03584220f80254e"),
    "sectors-toric cube4 fan json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sectors-toric cube4 fan tsv": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sectors-toric cube4 dual json": (0, "874ed55bd7632d1efd77d6cc7d37c22cce6c7d76d31899ee6a0adc69d5323229"),
    "sectors-toric cube4 dual tsv": (0, "1ac15bdcfcdba5b3f311334e9161c80206fc56fc5de2342f5a871c5ec4b88631"),
    "sectors-cy cube4 fan json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sectors-cy cube4 fan tsv": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sectors-cy cube4 dual json": (0, "874ed55bd7632d1efd77d6cc7d37c22cce6c7d76d31899ee6a0adc69d5323229"),
    "sectors-cy cube4 dual tsv": (0, "1ac15bdcfcdba5b3f311334e9161c80206fc56fc5de2342f5a871c5ec4b88631"),
    "hodge cube4 fan json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hodge cube4 fan tsv": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hodge cube4 dual json": (0, "74de74db97222c6f9e0b0bb11d08ba7a19a61214d78434ef2fecf84b64876b72"),
    "hodge cube4 dual tsv": (0, "12b8513e6dda56aac9573b401551a20ba91dc83ddb01a5208a52961dc645b60d"),
    "mirror cube4 fan json": (0, "d6bc5857ecf09ca8cc88e52a9b0c2ec9d936cc7855afb8ff4fbdfde8c5a3c153"),
    "mirror cube4 fan tsv": (0, "ef95d4adfa63d7ce721f414a65fdf42866975aa8d1911d31795d4d53a1aad417"),
    "mirror cube4 dual json": (0, "d3af3f370042bca1197c653a7a5f6724e81998d63ca95c788a61f890fe730029"),
    "mirror cube4 dual tsv": (0, "b4fddd5e3468c8886e7dbbd0cb55b026868f3c807e4d2447bea9f581847c9926"),
    "oracle-jacobian cube4 fan json": (0, "d16bc775f5d7c7009694ad1a7a9321e445a89cd522f9ea6c1bde796c58567455"),
    "oracle-jacobian cube4 fan tsv": (0, "b1ef63828b41524f8379a40f1eae9e67efca4e2098053624093ee99fb48eae05"),
    "oracle-jacobian cube4 dual json": (0, "7d69c5e2c7f023e3c1c5194580ba42c87a1e507fea5a00a277e450a32130b648"),
    "oracle-jacobian cube4 dual tsv": (0, "bec8eb03e48058705260d96d12b61c1e9f26b75295ab00de12690d875a2be183"),
    "info p11169 fan json": (0, "2b47247fd3f9ceca78c24cc3130c56714721ff66d5bd6f1756153feeb4eb03e5"),
    "info p11169 fan tsv": (0, "ebb992507c4fa896a2411d36d4dff1e3522c9f3dc315b17a0d89332a42373d41"),
    "info p11169 dual json": (0, "2bac0c8756ff78c64f4a7e2b6e9bf9233c0428c528c09fc3cf5b139c9c0de2d7"),
    "info p11169 dual tsv": (0, "9f3e90d1979e22247764def835b0240f0b79e1cd62ad35007abcf133ceb8ef37"),
    "reflexive p11169 fan json": (0, "f64c1e26f204ceb3c5f800b18f5f70efc03b04288b3f1875669f3a79f8a430a4"),
    "reflexive p11169 fan tsv": (0, "58b8469ecf1c632d605900c1a62b131ec22dd2880b519822f1a96d39917f9133"),
    "reflexive p11169 dual json": (0, "f64c1e26f204ceb3c5f800b18f5f70efc03b04288b3f1875669f3a79f8a430a4"),
    "reflexive p11169 dual tsv": (0, "58b8469ecf1c632d605900c1a62b131ec22dd2880b519822f1a96d39917f9133"),
    "dual p11169 fan json": (0, "b0f153353231bad68c97a8dd1c911af31dc0babf960ee04760740c1bcaa745a9"),
    "dual p11169 fan tsv": (0, "7536b00708cefcd7e380815a28abb301b739c0305f2b106ed5f4ff161bd99bef"),
    "dual p11169 dual json": (0, "b0f153353231bad68c97a8dd1c911af31dc0babf960ee04760740c1bcaa745a9"),
    "dual p11169 dual tsv": (0, "7536b00708cefcd7e380815a28abb301b739c0305f2b106ed5f4ff161bd99bef"),
    "faces p11169 fan json": (0, "da0e951eaa352b6dfbc1cc9b3775d020f7543fad7b726171b53cbb9b72b7566f"),
    "faces p11169 fan tsv": (0, "32abf3d22ce068b0085ad81e9c373e732ee9739eabcea0e32e7d0fe6221a87a7"),
    "faces p11169 dual json": (0, "da0e951eaa352b6dfbc1cc9b3775d020f7543fad7b726171b53cbb9b72b7566f"),
    "faces p11169 dual tsv": (0, "32abf3d22ce068b0085ad81e9c373e732ee9739eabcea0e32e7d0fe6221a87a7"),
    "points p11169 fan json": (0, "a51e0c05451a88b05d2561254066d8b152f91721c5f494823f035d134d0ca18e"),
    "points p11169 fan tsv": (0, "67def956dffc83bc81347fd81f02308c976d453d9fd6b371fc38e76d49611af2"),
    "points p11169 dual json": (0, "a51e0c05451a88b05d2561254066d8b152f91721c5f494823f035d134d0ca18e"),
    "points p11169 dual tsv": (0, "67def956dffc83bc81347fd81f02308c976d453d9fd6b371fc38e76d49611af2"),
    "sectors-toric p11169 fan json": (0, "f314e4684a5b1c35964fe7de27c782cdec959f637471b76032e3cfa93fc9098f"),
    "sectors-toric p11169 fan tsv": (0, "6c3c4092e1be384514279ad041c43d8a24084dc5fb99711744244382f109e277"),
    "sectors-toric p11169 dual json": (0, "950960d173af08458dc6373d005f13a5e840e951daa5801c9532edab627e7230"),
    "sectors-toric p11169 dual tsv": (0, "bc529040e1c905c77a1470514a02388f138689cab68e205cfe2ad9417b3fa8f1"),
    "sectors-cy p11169 fan json": (0, "a07f036614e2c4b538e71b8d8c0c0be2fcbe6b6011e68d06fb3f9e7bfd9e5927"),
    "sectors-cy p11169 fan tsv": (0, "3ea3b648911ffbcbaafc228f82cccdf419c876a36c106b9d2598611fafcd7495"),
    "sectors-cy p11169 dual json": (0, "1148acfe5982ada34d440a49404b0da3bfce69d5330e1f8b95b287912d4c95f3"),
    "sectors-cy p11169 dual tsv": (0, "006263ced070b81c3b423ffce9f56cafcdf0ad2a9bad2e40a89c493e0295a3b8"),
    "hodge p11169 fan json": (0, "2e0aa84f710808ebb11d167f6ba73bc70f5de95f1e326e0a37fc05155c2fc496"),
    "hodge p11169 fan tsv": (0, "53de8dfbdeab0cac0ceab83075db328a9dab31bc849d8a42240071252302769d"),
    "hodge p11169 dual json": (0, "e8206fb759e58166af382159c52e37435ce3de9195fc32b451267069cf00141f"),
    "hodge p11169 dual tsv": (0, "704b099fd8d1834ff2ebe07ac87828ecba6d6af66dd9258217a8dc9e4cb0e466"),
    "mirror p11169 fan json": (0, "b00d973e17789f71b31d0a77427f0bfad88956b7fdda2c2449a037e6028955c0"),
    "mirror p11169 fan tsv": (0, "270579d5a74a66c0223d5aff3a036544c65e35298d6c777ee28225a73e4576c4"),
    "mirror p11169 dual json": (0, "0c3fb93de28b342eb15cfc32525f718697536b50377593606f67ec10f0022bac"),
    "mirror p11169 dual tsv": (0, "8e9e3cb197f956a61f7997728eb82772c9b48050775cbf4ae71f97e807045302"),
    "oracle-jacobian p11169 fan json": (0, "12bb34392a62d504f81d2bf2912446b7885ece248b6c48904baf486766ef704b"),
    "oracle-jacobian p11169 fan tsv": (0, "6a935a23f5db956f8f1ede1a3bb19bdb3ef9942f5e876fa07f9dd5df5dbe4047"),
    "oracle-jacobian p11169 dual json": (0, "ef4b63ae06a2e68bea856b075189fc55f4ebbc02748f7d84b5c1d2ef9c5bee84"),
    "oracle-jacobian p11169 dual tsv": (0, "15933d081214220ffffa2ffb96a2c171e006d5237d4ea255b560f157c0670307"),
    "info wps json": (0, "34a3fdb3990242690198c6245a17be1d81ce37a77d9b63aec50bbe080450dbac"),
    "info wps tsv": (0, "e43533e5219d2b790a629b93fb4d65702a89304ef3ef68a434f8d39081a4b007"),
    "reflexive wps json": (0, "3caf541aff1f8a9bfa18d14a6db5b912817e940d7b154fc734c88d1bdaa181cb"),
    "reflexive wps tsv": (0, "53b8efdbc3e7f83281f0c5434a558d46b2dd1040079d6b1a40cb7c5f7470e995"),
    "dual wps json": (0, "c1af7d5d0b4025df91a6edd25ef75e17ca906775358cb23c44e0ae5ee66b6838"),
    "dual wps tsv": (0, "cf868c5c31423194dd72786b13db8f83e1f5af847206b9f2211ddc8795bde782"),
    "faces wps json": (0, "d3c55a1d80db3236900ae0184bcb89b0bd2955491e0a2b5a7eb45d5e21e048ec"),
    "faces wps tsv": (0, "0f1c8b58e9ed2f04d634ec699dc63c0cce975682968b66894eb6ab80354113f6"),
    "points wps json": (0, "275874a7e3e700ed4dcd04b56b7b048037ff2f6ed288a499ef3c2bf0fc56a554"),
    "points wps tsv": (0, "29b8bd41f0bd9818f02fea178c97d5a49da304cbde59ee02f2098a378e8460e8"),
    "sectors-toric wps json": (0, "4f134fe3c80ce5e813eb785258502a4b51c96c5945e171001804a28a8ff4f355"),
    "sectors-toric wps tsv": (0, "e06ff27dd5554b28efaefcb654e0c2c70e343bfa9bc48a6db93b094c2c1371a4"),
    "sectors-cy wps json": (0, "aa010540ace8691b7293fce279f645b8093c73f1a6f1b10e77a020eff8e5be98"),
    "sectors-cy wps tsv": (0, "300bee73cc5a24307fce54df45875fa370379abe4ea29d58270548376037256b"),
    "hodge wps json": (0, "1aa0f0013f8ae8e93ba6b4fb65b359c771e10a2d5b31bf95571bbebb7e56eb62"),
    "hodge wps tsv": (0, "30e9021bd91746d301637e02b67690039ecd5eee3fb2d3c392098b62f4a628b0"),
    "mirror wps json": (0, "1738a55e4eea05bc8a97b5a3b7ac2e9e9f1f6ff5c39c213e0a1c9a1d23dcd884"),
    "mirror wps tsv": (0, "087aca118d556f4a2a89f4043cad5baa1327de2fd617ae73fbdeea1fd37feaca"),
    "oracle-jacobian wps json": (0, "1d6d6d37c18949d0df05646b6a080ec17f0d60db71f657104ec05c8b40da4a58"),
    "oracle-jacobian wps tsv": (0, "d2c60ccd569edd73c743ed72ee61b43eb014fe86f491b3c0b6471affb0c54f82"),
    "sectors-toric p1122842 dual json": (0, "26cc451744e2e5748bf53276633b7b2d17412a9da7aef1455087e657d185981d"),
    "sectors-toric p1122842 dual tsv": (0, "fe06a1d03854800efe56bffd8e74596565e6f52b281df6b6fa4d2d0fdfa6d105"),
    "sectors-toric p1six dual json": (0, "d55bad9846376241169f0f0b8f38d2418bc6c7d5ba7f8998a042eccf35260e7e"),
    "sectors-toric p1six dual tsv": (0, "361ab6d123243bcec1f47985f57b3df25a2c114bfecdde40622b085451fe8724"),
    "sectors-cy p1122842 fan json": (0, "5cb491bad37eecadb2e4da585ace11d7c35a040a563a2dc5f0b8993de5349804"),
    "sectors-cy p1122842 fan tsv": (0, "40acbf7656c11a94854085bb8e7cbf561b63d7c61bc722034dd909d4ea9e02a6"),
    "wps json": (0, "01d8776c7b62197a32f44a9877b7c5de952b7ce64be745c350060c07168c76fb"),
    "wps tsv": (0, "3dd94db5ed1d43f87ce4e97be9bfd13dc31cd6044efdc49924428dac1d4aa3a7"),
    "wps vertices": (0, "3dd94db5ed1d43f87ce4e97be9bfd13dc31cd6044efdc49924428dac1d4aa3a7"),
    "info cube5 fan json": (0, "0db25894c23e94cabfe38e622c4839c9a7615cbd5575135e11ef63f078b227db"),
    "info cube5 fan tsv": (0, "3e177d8259b81848e649970dd2f86e463f1492f975d3683836a5cd0e29e65195"),
    "info cube5 dual json": (0, "18ad11f810574ca0d7fbfd68c554a29df380b6df2dd9095d24b203c09f45540f"),
    "info cube5 dual tsv": (0, "847af5ca088cb71723e1eecdc783162c7c09c008420b2771a5e556c52c949072"),
    "faces cube5 fan json": (0, "edaf5accd694201fd75cb964b5360d6327a86131085d5fd4f94eed932eb48d70"),
    "faces cube5 fan tsv": (0, "8008829353db482ef579c95e5c68c8f4d565e1fdadf8d77492df23f880e9080a"),
    "faces cube5 dual json": (0, "d631d41d092bc720adc36b8aa21e1c80f90643735d60a907675785a9a0370369"),
    "faces cube5 dual tsv": (0, "7b212aafbdcba7f3278dea1533ed3817430f3c1d0f0a6e33e29a9d4c3421ca32"),
    "dual cube5 fan json": (0, "aa52abf42ec109f8108e1ee7804b284b380e0e8a2606523beecb167204ef0c6e"),
    "dual cube5 fan tsv": (0, "139793029de13a7c3a1e240925bcb7fbad28cea67d4ec763415cfa6e31d8bbb4"),
    "dual cube5 dual json": (0, "5677be5c415d7f5608cabe10dfabffa631d8fd9abefe3180168a2711ea861489"),
    "dual cube5 dual tsv": (0, "139793029de13a7c3a1e240925bcb7fbad28cea67d4ec763415cfa6e31d8bbb4"),
    "reflexive cube5 fan json": (0, "6b6f05d58fdb9f55a40ad16c213cae705c3d0854cc7e0ca4d891d88f119c230f"),
    "reflexive cube5 fan tsv": (0, "7c9732f1b2817e8b969b8421e55a1955d2bd0de61464488e76d31da7b9d0f7ce"),
    "reflexive cube5 dual json": (0, "9bb8ae99796677b412ba87e9a93f6d5e0149d100277af38dccf3734bcc0680ea"),
    "reflexive cube5 dual tsv": (0, "25b7714e63bb9ce6a33f1f446907fc49fdaaa8d48dd58acc26ed6a7844d2809b"),
    "info cross6 fan json": (0, "f83c6eee07b68239edf3bc400fff0dd063abcd4c77d0f4c42b5d90d7bcb76886"),
    "info cross6 fan tsv": (0, "66ebb07c6579d6c900b9fe394685c027d8389881d55ac8b0fb18dcb05372cc65"),
    "info cross6 dual json": (0, "6f2a644666ea0327dc4f7bff95f0590f9d4ac6e9348524ff297f31dc42ae9cff"),
    "info cross6 dual tsv": (0, "4238e6f7ce50c80730b91553a2ec2dc3d82c335f7ff96a33df1a021dc60c6e96"),
    "faces cross6 fan json": (0, "08c2cc1bc5d0d1ebef6e306aeb6baf3c621515669feb2e417860245690bf7d03"),
    "faces cross6 fan tsv": (0, "4a007079719b6daa564a3a6811da87107d916629a5756c00c47cd663c8a35e4b"),
    "faces cross6 dual json": (0, "2005e63ad6571542533a4c4b8c9130ca76ef6955283fd52208c3715a63056311"),
    "faces cross6 dual tsv": (0, "dea7ea4a35718b00ade0399b8190e65d5e00fbeeff15d3946a9129c24a854ea9"),
    "dual cross6 fan json": (0, "c40fdf7654f79de7334ac5943f9c7e28c784a7d4050e3b1a8c44f957b1d80c7a"),
    "dual cross6 fan tsv": (0, "82db234c79844cad2f27415ad71f13517d6c281c804e471109433824f61521f4"),
    "dual cross6 dual json": (0, "71d0dbd81e4a94c08968a869d6d921ec85538c509d564a957cb430cb8ce9597b"),
    "dual cross6 dual tsv": (0, "82db234c79844cad2f27415ad71f13517d6c281c804e471109433824f61521f4"),
    "reflexive cross6 fan json": (0, "ac38af444384ff01238bc10ebc18d0440c33f8f6240532178a0d4d229ae89c26"),
    "reflexive cross6 fan tsv": (0, "ade79a8fe1cd79c3e5acb8351cec1e8f17c03f3015294e5fe1f44d8e6d9de6bf"),
    "reflexive cross6 dual json": (0, "d46b04f69d5ea4a36b79060dd0f5882d549c2d967771df7b6b8037e454adba6e"),
    "reflexive cross6 dual tsv": (0, "f9644bd6c0dca395e2c711822a83a5d071cfec44efc0cfdde3c16a77065d1c4f"),
    "info cube6 fan json": (0, "676602c6c5ad30e4b892996199b9458adf47cef1436a736a097c93a411e6af1b"),
    "info cube4points fan json": (0, "5792ea13a7c3e73de45ef7e9418c89635b62ba94809779ada86d88ba22e89aa5"),
    "info cube4points fan tsv": (0, "c7de60612b1412df8fc3c096e1d695aa96f1957794c119293c6d39feff57d4c9"),
}

# case id -> (argv, exit code, stderr)
ERRORS = {
    "parse error": (
        ["hodge", "@short"],
        4,
        "reflexorb: line 3: expected 4 coordinates, got 3\n",
    ),
    "not full dimensional": (
        ["info", "@flat"],
        4,
        "reflexorb: points span an affine subspace of dimension 2 < 3\n",
    ),
    "not reflexive": (
        ["hodge", "@doubled"],
        2,
        "reflexorb: pair requires a reflexive polytope\n",
    ),
    "not simplicial": (
        ["sectors-toric", "@cube4"],
        3,
        "reflexorb: twisted sectors require a simplicial fan\n",
    ),
    "hypothesis": (
        ["hodge", "@square"],
        5,
        "reflexorb: formulas assume ambient dimension >= 4, got 2; pass force to evaluate anyway\n",
    ),
    "two input sources": (
        ["hodge", "@golden", "--wps", "1,1,2,2,2"],
        4,
        "reflexorb: exactly one input source: a vertex file or --wps\n",
    ),
    "wps with dual": (
        ["hodge", "--wps", "1,1,2,2,2", "--dual"],
        4,
        "reflexorb: --wps already builds the fan side; drop --dual\n",
    ),
    "dilate zero": (
        ["points", "@golden", "--dilate", "0"],
        4,
        "reflexorb: --dilate must be a positive integer\n",
    ),
    "unsupported weights": (
        ["wps", "2", "3", "5"],
        2,
        "reflexorb: unsupported weights: no weight equals 1\n",
    ),
    "not well formed": (
        ["wps", "2", "2", "1", "2", "2"],
        4,
        "reflexorb: weights are not well-formed: dropping one leaves a common factor\n",
    ),
}


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-inputs")
    for name, text in INPUTS.items():
        (directory / f"{name}.txt").write_text(text)
    return directory


def resolve(argv, directory):
    return [str(directory / f"{a[1:]}.txt") if a.startswith("@") else a for a in argv]


def run(argv, directory, capsys):
    code = main(resolve(argv, directory))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_every_stdout_case_is_pinned():
    assert sorted(DIGESTS) == sorted(case for case, _ in cases())


@pytest.mark.parametrize("case,argv", list(cases()), ids=[case for case, _ in cases()])
def test_stdout_bytes(case, argv, input_dir, capsys, monkeypatch):
    hulls = []
    real = polytope._convex_hull
    monkeypatch.setattr(polytope, "_convex_hull", lambda pts, n: hulls.append(n) or real(pts, n))
    code, out, _ = run(argv, input_dir, capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[case]
    assert len(hulls) == 1  # the input's; the dual and the pairing come from its facets


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_error_path(case, input_dir, capsys):
    argv, want_code, want_err = ERRORS[case]
    code, out, err = run(argv, input_dir, capsys)
    assert (code, out, err) == (want_code, "", want_err)
