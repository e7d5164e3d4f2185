"""Frozen sha256 digests of simulator output and `euler verify` payloads.

The digests pin, byte for byte, what the index layer writes: the
canonical `to_dict()` JSON, the insertion order of the string-keyed
dicts, the per-index states, and the verify payload with its exit
code. They were computed before the layer moved to integer id tuples
internally, so any drift in key text, dict order, the nongeneric seed
derivation (which hashes the string key) or a verdict shows up here.

Regenerate only for a deliberate change of output:

    PYTHONPATH=src python3 tests/test_euler_golden.py
"""

import contextlib
import hashlib
import io
import json

import pytest

from iwafitt.cli import main
from iwafitt.euler import (
    AdmissiblePrimeLabel,
    SelmerShape,
    reciprocity_check,
    simulate_system,
    verify_artkappa,
    verify_artsel,
)

# (shape, k, pool as (id, k_ell, generic), seed, nu_max). Pools mix
# nongeneric labels, k_ell below k (so the I_n cap binds and some
# verdicts fail) and ids of different digit counts, whose string order
# differs from their numeric order.
G = True
N = False
LIBRARY_CASES = [
    ("0:", 1, [(2, 1, G), (3, 1, G), (5, 2, G), (7, 1, G)], 1, None),
    ("0:1", 3, [(2, 6, G), (3, 6, G), (5, 6, G), (7, 6, G)], 11, None),
    ("0:1", 3, [(2, 6, G), (3, 6, G), (5, 6, G), (7, 6, G), (11, 4, N)], 5, 2),
    ("0:2,1", 5, [(i, 10, G) for i in (2, 3, 5, 7, 11, 13, 17, 19)], 7, 4),
    ("0:2,1", 5, [(i, 6, G) for i in (2, 3, 5, 7, 11, 13, 17, 19)]
     + [(23, 6, N), (29, 6, N)], 9001, 4),
    ("0:3,2", 4, [(i, 4 + i % 3, G) for i in (2, 3, 5, 7, 11, 13, 101, 1009)]
     + [(17, 5, N)], 1, 4),
    ("0:2", 6, [(2, 3, G), (3, 9, G), (5, 2, G), (7, 8, G), (19, 4, N)], 3, 2),
    ("0:1,1", 8, [(i, 9, G) for i in (2, 3, 5, 7, 11, 13, 17)]
     + [(41, 9, N), (43, 9, N), (47, 9, N)], 42, 3),
    ("1:", 4, [(i, 9, G) for i in (2, 3, 5, 7, 11, 13)], 5, None),
    ("1:", 2, [(2, 1, G), (3, 2, G), (5, 3, G), (10, 1, N)], 8, 1),
    ("1:1", 3, [(i, 7, G) for i in (2, 3, 5, 7, 11, 13)], 8, 3),
    ("1:1", 3, [(i, 4, G) for i in (3, 5, 7, 11, 13, 29)] + [(2, 4, N)], 77, 3),
    ("1:2,1", 5, [(i, 6, G) for i in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)]
     + [(31, 6, N), (37, 6, N)], 11, 5),
    ("1:2,2", 4, [(i, 5 + i % 2, G) for i in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)]
     + [(97, 5, N)], 3, 5),
    ("1:3,1", 6, [(i, 7, G) for i in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)], 29, 4),
    ("1:1", 1, [(i, 1, G) for i in (12, 2, 3, 30, 4, 100)] + [(7, 2, N)], 2, 3),
]

# CLI calls; CLI_GOLDEN holds [exit code, sha256 of stdout] for each.
CLI_CASES = [
    ["euler", "simulate", "--shape", "0:2,1", "--k", "5", "--seed", "7"],
    ["euler", "verify", "--shape", "0:2,1", "--k", "5", "--seed", "7"],
    ["euler", "simulate", "--shape", "1:2,1", "--k", "5", "--seed", "11",
     "--pool", "2:6,3:6,5:7,7:8,11:6,13:9,17:6,19:7,23:6,29:8,31:6:n,37:6:n"],
    ["euler", "verify", "--shape", "1:2,1", "--k", "5", "--seed", "11",
     "--pool", "2:6,3:6,5:7,7:8,11:6,13:9,17:6,19:7,23:6,29:8,31:6:n,37:6:n"],
    ["euler", "verify", "--shape", "0:1", "--k", "4", "--seed", "3",
     "--pool", "2:2,3:5,5:3,101:8,1009:4:n"],
    ["euler", "verify", "--shape", "1:", "--k", "3", "--seed", "9001",
     "--pool", "13,2,7:1,5,3:2:n,11"],
]


def _sha(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(
        obj, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()


def library_digests(case) -> dict:
    shape_text, k, pool, seed, nu_max = case
    shape = SelmerShape.from_string(shape_text)
    labels = [AdmissiblePrimeLabel(i, k_ell, g) for i, k_ell, g in pool]
    data, states = simulate_system(shape, k, labels, seed=seed, nu_max=nu_max)
    order = [
        list(data.ind_lambda.items()),
        list(data.ind_kappa.items()),
        list(data.i_n_val.items()),
        [[key, ident, v] for (key, ident), v in data.loc_ord.items()],
        [[key, ident, v] for (key, ident), v in data.loc_unr.items()],
    ]
    ra = verify_artsel(data, shape, k)
    rk = verify_artkappa(data, shape, k)
    recip = reciprocity_check(data)
    payload = {
        "artsel": ra,
        "artkappa": rk,
        "reciprocity": recip,
        "all_match": ra["all_match"] and rk["all_match"] and recip,
    }
    return {
        "dict": _sha(data.to_dict()),
        "order": _sha(json.dumps(order)),
        "states": _sha(
            json.dumps([[key, s.e, list(s.d)] for key, s in states.items()])
        ),
        "verify": _sha(payload),
    }


def cli_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, _sha(out.getvalue())]


LIBRARY_GOLDEN = {
    0: {
        "dict": "5ec1ba559eea08022ef823d1a7f26578249bc11e6f9e593c53402fd053e473a9",
        "order": "6e9d5babdabad671d1ba4f862fe4786f528ae148f0e3e0ee5802697e1ca97c9a",
        "states": "c04a7726d090514b72caca244e744c1b458d8a212b3839cf557fab07944dcb10",
        "verify": "b8b80cec9f0fcd6ee90f70f00c61af02cfc1254515d676cdedae55ca95d1ca8b",
    },
    1: {
        "dict": "01dc4482b191e495256ba05c711715a3b47f8c549c078b623894b0ebf1dbd633",
        "order": "0d251d7c1051a1600458e73a25425ffe4f07649fb1c767baf052f3e6f75de75f",
        "states": "8ae3393598b64045618c7608847222e1c4ad935fa591073efebbc8c311d75bdb",
        "verify": "09f9d4102d55de732e4bcfebabbe1642f711e4811241c3474484e05b719c1c9f",
    },
    2: {
        "dict": "ea2d00247a55eb6100d3393fcb312759487bc2bc86242ee429ce7a92898ad928",
        "order": "e31820ace383162fe594520e1d0c16905e4b7eb8c2efaff6ac2b4944489706a0",
        "states": "54e1c3425408759d0efdb6392f5ab7c5f06d16d1f91c4fc6a52429f7f8da39e1",
        "verify": "7743fd395daf58c32ca9e4e6e11da30b05834ddaddcf4081bc2819aefbec3a62",
    },
    3: {
        "dict": "10d0157144b0ad33745906bf90c4a5e4a4ae51a216a26705fa546e4dc8467227",
        "order": "0ad736f9006958960b18d2cbf9dacbd3a57f7e98f51fa9ab0b4af4e55ba5e46c",
        "states": "1c7acd6f9b6a1fdede282badf798f1e7cf6c37aea470c930365dcf77b9d758f7",
        "verify": "9cb4b2e94a0fa1f272a1881e86c6a22478de520c57190f5add1a569e3c0a068a",
    },
    4: {
        "dict": "77483f0e792934c2dda48fa0e5a2e1a05a001aa69191dc39fc764f551dc37d28",
        "order": "f655fd3fa8103d1cab86c0336b8a87538f310ec4b056c25be633b2f004c87c68",
        "states": "1480496597357d368cdbc8effeb922d1c2ba3333e036bd68ed9c42e66c85b30a",
        "verify": "cbf319aac1f12b05df1232d084b1a33b01886eeaecd90bc001d5104a1ea307ea",
    },
    5: {
        "dict": "b1d9222b0d06e3e35ef7ff2e7ddf9bd86cbc4c1a961b5d4bb04ae7458a6be6ab",
        "order": "4f58e60e5eaa70d7bcecb87ac009478f2db15a96feb3fbb5647b5f344485c238",
        "states": "39ab2cdb569a1bf8d4787ab87e4937159444b7c4e8d9a5d5368aad22d4bf9063",
        "verify": "ef88a5494630e6954675b8ace7bef79b8b83474b58dd7a6d5ff31196e7ffb7f4",
    },
    6: {
        "dict": "aa3f698747d86d5b6e3a467bd3927cc2c2336be91bf2ac4a3285e09f51ee4150",
        "order": "df7b1f354500697fb0f2203acdd6210d903bd3413d9e7b60fc6f4058712d79fb",
        "states": "b58407e4a87f31e1caf3843406ec9fb3c0b819867743bfe9896011d38d58f02e",
        "verify": "8ccdfc0038a4399b5fec880e66686ab751719f4b7586550744a076b5d7789bfa",
    },
    7: {
        "dict": "8a908b81b8b7f50a15016c4f57a2f7ba36b5fb6a36e36f60ab2ee71175c30b74",
        "order": "e57b8366046961891017a94af525a9c894b483d08e88e0ab8ce71d6c1b78e28c",
        "states": "27b3a4d79301492fb22dfcdd19348fcdf6517b92aa4a94c6f4d54b5f6b961568",
        "verify": "e69a564d5a6f0e800fb48854fbbb838dd7960d1797b3853952078d20169df882",
    },
    8: {
        "dict": "bf74dfa4bec6b2816ecfd82029490b0c89b67a887eaf7c19238a9931f4ef558e",
        "order": "a45b3d1d3e18799c16ec69bb559482ec2408f75be1ff1bd6d71ae8902b8d3e4d",
        "states": "463a6af9f168905b122ef9cc0b6d2c3e7a70c430ca906ddd56ff4ed1d30810d1",
        "verify": "87a1d2b639f2f164096092c3b37d5d56ca82dfcd1e898bacdb54c84fa9489217",
    },
    9: {
        "dict": "1edc1aa63f25de4576a9ed46c73c604f8e3c3c3762195a6ce065c3edc3f1f8e6",
        "order": "97485700f59c270f857cf117cafd3a4bdf711a3fb24a66e07f53769dd50414a5",
        "states": "25e24fede5de5ec82373b3ac45a5a4e1ee92b4d259d339c926988eaece3f8406",
        "verify": "7fdfff8d38379bd5f921b0de6f0d5d445770ac4cbbdb1d080b2942acd0a98022",
    },
    10: {
        "dict": "e03787acf835bdc2bd7a2ed48ef0a1e2f2f0006de7e37eadf44c19f5d43bd0f8",
        "order": "f8055e34f030bbb88cbc2fa9c17530151823ae6bd59bcbb2517fc645eeb047fa",
        "states": "cea8b2114faefdce1f54205fa7b85033c602cb756d085c1d8ef54c7a7e14de37",
        "verify": "db3650cdaa809f0e8cb3f40e4244519385e5118e8a6f7ab465a5136704783fc4",
    },
    11: {
        "dict": "915af4625c17ccc3cbc3cfcb138f69bb828a3d04c86201f443e24fd2db696bfc",
        "order": "d2dd2dcc510ec4d61bc765708c23b55bd3ffc3484d486f422453984bdbd08911",
        "states": "85dab436c052472383ddf4dc8fc51185238a0f7a5155da8df3d0cec98d450c35",
        "verify": "4cc5ef813fb8f90c23a6ad1843b73a2f333a77df3f54297ea4bead29826b6c2a",
    },
    12: {
        "dict": "1165732de2662293c35bb1e45dbb1bcaea451b912f56d2322a3801e39425dfa7",
        "order": "9aa8a5c9e983b77ee6c25de734140b96d095824008056fd28d32228b7e369a75",
        "states": "487b6fecc069f84f9e4106f6167c93a1831a359f082c616d9c8fa2ede32f2027",
        "verify": "50c443f407fe230279893bb46857cc022af88a1da158a2eb900e96b491c3f140",
    },
    13: {
        "dict": "7f0822de2cd559ab2a2457385873f7fd4f822fdbf00877b925dde9e4155384ab",
        "order": "d74199d330d4ebb5a38f48ff992a9ddf8d81fbe8da996d6ce81941efabd69788",
        "states": "98b7354bfbb0e7efc83757f56d28d7032b2ce2d45195a3705906c652b2a1e01d",
        "verify": "30b5647fa0c045b7b62821d21be3801c2d30e03beb0844f463a251aed76ebf44",
    },
    14: {
        "dict": "63aea4948856c42e7dd5767a0b7621d9becb16ff2919cfdd1cf937e153be7e49",
        "order": "2e959fd8c3a76d1cb5761f49c4f3ac06388cf4f5e215f3cfac2493d0a33dbddf",
        "states": "d5b39d7a91d37b8f91c75fc33ef9fd77cf28a18b71cccf04169a89b41d3232e2",
        "verify": "538db3d47993055adb4bab3d6ea50c00af637465247bcecfdc130121b11a3414",
    },
    15: {
        "dict": "ce6861f0d612cc760d411d9b779602c847f80a31d20e65c97fd0970fc79b30cc",
        "order": "fd3348191c2a7a8bd03d431d6b25274315fbe45a3cb0f7fca9c69627a2531401",
        "states": "8e971efd6504c4929bbbae2adbbacda76a05a0b494acd0efd6d81fbbf8d72712",
        "verify": "b4f72054954c071126469f37a59fb6bedd5fa41d8e2678de3568da798adcd100",
    },
}

CLI_GOLDEN = {
    0: [0, "58300ea53cd5ca5e79c252b7a88c4f6d2fbc20bbd61094c0068b088e19473b7a"],
    1: [0, "3c9dfb6fb1130ee5b8692a46b8150ba7d1f55be74c092498092166390d88fbd5"],
    2: [0, "7d7d13bec07cb0d8787a732ce962a2eaf6b411fecb312a7d696c7c18691a8eb7"],
    3: [0, "58352eafb16f504666e394840276d4ae549be466b706de1da86f1b2175039249"],
    4: [0, "77ba93b78a6349a7bec858f6180e586427ee99f15bd63ee4f695d3ca15435256"],
    5: [1, "42c0bba395c8a44d0eceff396a6de0cc68e3b381f07620a0641c9c09c4adf9d8"],
}


@pytest.mark.parametrize("index", range(len(LIBRARY_CASES)))
def test_library_output_is_frozen(index):
    assert library_digests(LIBRARY_CASES[index]) == LIBRARY_GOLDEN[index]


@pytest.mark.parametrize("index", range(len(CLI_CASES)))
def test_cli_output_is_frozen(index):
    assert cli_digest(CLI_CASES[index]) == CLI_GOLDEN[index]


if __name__ == "__main__":
    print("LIBRARY_GOLDEN = {")
    for i, case in enumerate(LIBRARY_CASES):
        print(f"    {i}: {{")
        for name, digest in library_digests(case).items():
            print(f'        "{name}": "{digest}",')
        print("    },")
    print("}\n\nCLI_GOLDEN = {")
    for i, argv in enumerate(CLI_CASES):
        code, digest = cli_digest(argv)
        print(f'    {i}: [{code}, "{digest}"],')
    print("}")
