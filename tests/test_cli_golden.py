"""Golden digests of the CLI's counting and table output.

The sha256 of the concatenated stdout of each (subcommand, format) over a
fixed list of weights.  The counting digests were recorded when every count
and character was still read off the listed points of S(lambda); the tables
now come from the counting walk.  The oracle and tensor digests were recorded
when the module and the tensor component were still closed by two separate
loops with tracked bases; both now share one untracked closure.  A match
shows each switch left the output byte-identical, and it keeps later changes
to these paths honest.  The verify digests, taken with the benchmark's
arguments and the default seed, were recorded while the ideal side still
kept a second, unit-coefficient derivation beside the Chevalley one.  The
roots, paths, points and straighten digests were recorded while the variable
order was still re-sorted by its key in several modules and the polytope and
the ideal side each packed a (weight, degree) cell in a format of their own.
"""

from __future__ import annotations

import hashlib

import pytest

from sympbw import cli

WEIGHTS = ((3,), (2, 1), (1, 0, 1), (0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0))
# ideal-dims is the costly one; the counting subcommands also run at a weight
# whose point list alone takes about a second to build
LARGE = ((1, 1, 1, 1),)
ORACLE_WEIGHTS = ((1, 1), (0, 1, 1), (1, 1, 1))
# every pair of fundamental weights at rank 2, then larger and rank-3 pairs
TENSOR_PAIRS = (
    ((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 1)),
    ((1, 1), (1, 0)), ((1, 0, 0), (1, 0, 0)), ((0, 1, 0), (1, 0, 0)),
)
# (weight, exponent): inside the polytope, then outside it, at each rank
STRAIGHTEN_CASES = (
    ((3,), (2,)), ((3,), (4,)),
    ((1, 0), (1, 0, 0, 0)), ((1, 0), (2, 0, 0, 0)),
    ((1, 1), (0, 2, 1, 0)), ((0, 1), (0, 1, 1, 0)),
    ((1, 0, 1), (0, 0, 0, 0, 2, 0, 0, 0, 1)),
    ((0, 1, 0), (0, 1, 0, 1, 0, 0, 0, 0, 0)),
    ((1, 1, 0), (1, 1, 1, 0, 0, 0, 0, 0, 0)),
)


def _csv(weight) -> str:
    return ",".join(map(str, weight))


def _runs(argv, weights):
    return [argv + ["--n", str(len(lam)), "--lambda", _csv(lam)] for lam in weights]


COMMANDS = {
    "roots": [["roots", "--n", str(n)] for n in range(1, 5)],
    "paths": [["paths", "--n", str(n)] for n in range(1, 5)],
    "points": _runs(["points"], WEIGHTS),
    "straighten": [
        _runs(["straighten", "--exponent", _csv(s)], [lam])[0]
        for lam, s in STRAIGHTEN_CASES
    ],
    "char": _runs(["char"], WEIGHTS + LARGE),
    "graded-char": _runs(["graded-char"], WEIGHTS + LARGE),
    "dim": _runs(["dim"], WEIGHTS + LARGE),
    "points-count": _runs(["points", "--count-only"], WEIGHTS + LARGE),
    "ideal-dims": _runs(["ideal-dims"], WEIGHTS),
    "oracle": _runs(["oracle"], ORACLE_WEIGHTS),
    "oracle-filtration": _runs(["oracle", "--filtration"], ORACLE_WEIGHTS),
    "tensor": [
        _runs(["tensor", "--mu", _csv(mu)], [lam])[0] for lam, mu in TENSOR_PAIRS
    ],
    **{
        f"verify-{suite}": [
            ["verify", "--suite", suite, "--max-n", "3", "--max-weight", "2"]
        ]
        for suite in ("graded", "straightening", "partial")
    },
}

DIGESTS = {
    ("char", "json"):
        "e4efc0a86372d059091159ca8224678c04faea494e8eccd28d98f547338d778d",
    ("char", "csv"):
        "c7cd39e73945b54209642eb02f6958f019579ccde0564d3ef23f3b38b5d865c9",
    ("char", "text"):
        "c78abd16ed527d9c53479a8be0c04c1f69549445e6b43f355362da97d05fbae8",
    ("dim", "json"):
        "a969416f030217a4d01653fbbd4fe3970c4c27d82fe68ef77b5fc69be4ba1bfa",
    ("dim", "csv"):
        "8e15db2945ac938802e68d3452d4137eb419252a597a2ebfd7669c411c03875a",
    ("dim", "text"):
        "6f7bbbd502fdc255e6deb9940f3b2d0e66540a7c91b4982868aee5a9cdf14eac",
    ("graded-char", "json"):
        "841c8bf5a25f4d9649518e64ef997c4895c125ce9b36b47fc7d6481df7643aca",
    ("graded-char", "csv"):
        "ca0309a49fe6d2886d6dd61e041b441764577f722ee63e8c1725f0ec0002f50e",
    ("graded-char", "text"):
        "9bfbc477969246e4daabe4e8c3ec57d2c961b59272b5901ea9e4ec7a06df742b",
    ("ideal-dims", "json"):
        "b806e53d78c6448935dde335d055f463388db5eb9cb7247707d4b1f0d614eb96",
    ("ideal-dims", "csv"):
        "32eb51c257818699c200259c2df8735d5d3246dac6ec70bd607720977747e6d6",
    ("ideal-dims", "text"):
        "8c3ce75518743b9b073bfe2c411d843ab4d9f3bb2fdd4ca5fb39d849756a057e",
    ("oracle", "json"):
        "f68ffabd63f2b3754a431f0e93b57475889d34683aad14b414693cb2f001f9ce",
    ("oracle", "csv"):
        "b2e06f6678f08ded62d607fa588c124d1ebd6a6ed088ec30e79befc6a42089ec",
    ("oracle", "text"):
        "3e701b0b9552bfae97653c7a08e4fe5d9a09e73ca9fbc840a9abddbc593966d1",
    ("oracle-filtration", "json"):
        "eb6085c383c65b636ae096393fb329037aaa83ddc1bbf422fda05eb2fdddf669",
    ("oracle-filtration", "csv"):
        "fcfe1cc3175caaeafc49d3ba753fc6513c30e38304c4fe9b364fa7e44568683b",
    ("oracle-filtration", "text"):
        "d54c8fbffb55f03c6d162fe9559d753a974b3352a493c65a4f92e34a677029af",
    ("paths", "json"):
        "4045134f451e0a8c90bf620a83eb0baa3ae90db4bb10663cf4d6c983d628db77",
    ("paths", "csv"):
        "94f399f7b859088c29dfe049b3a123fc92e25f63af1b4f4a368ecabe4b9a6fa6",
    ("paths", "text"):
        "6f18a07aa8f57153205e08faac204e27f246852edc5bc1ed1593fa78de1b3da6",
    ("points", "json"):
        "caec1eb533c55f36aab0b206c554ac7832f6877521985efa37cb4a41699b6884",
    ("points", "csv"):
        "d627cdbfa8a1511a333b68b8a244ed6052cdd925888b5391b5a0bb238f950ebc",
    ("points", "text"):
        "150c45d898d995cddf9d233b48f93674874fa1a11bc0709ca0474c58d70d8eee",
    ("points-count", "json"):
        "41307212229ae06b00d0bcda2f4f489160ea8f64001d2635b811ef5603567c56",
    ("points-count", "csv"):
        "6af4faf9379ac9acc3c2ff1ec9342a68cf6c6680eac2f14ad9457467a86007e9",
    ("points-count", "text"):
        "f9f4d89d241428f00c64a1115c44ea382f899a55fb32c23abefa8363ed69cf9b",
    ("roots", "json"):
        "434ce751b2bd8cbdd6bbdca07782f919799b6b8853fd73138613df938c7502eb",
    ("roots", "csv"):
        "ff526c301daf18243f0019aac0b2e37dba8174884ecf226ba7524c64340e5150",
    ("roots", "text"):
        "c7c4d971f5be9ed5e2c97a4be415bc0a790e52a6d06e29f29fd4bf790005b6ce",
    ("straighten", "json"):
        "f18f2d7a13d354c42ff68ddc683f9555558acfe458671e8ebef91fcba7058ba5",
    ("straighten", "csv"):
        "65e787c57310e2041f840db00a082cbcb63aa4715c100664558b37089ec0e539",
    ("straighten", "text"):
        "b17f74abf097da96db7c3706be4611b980dd6ffdea85cf37235193a412a2f69e",
    ("tensor", "json"):
        "f45344f72145603fffea1e2e54f0778463b6fe356578dab2291ede2c833cade7",
    ("tensor", "csv"):
        "c1194e530b0ca67b310206f0d1752ed1c4667598d38b85671c3456e62d5004cb",
    ("tensor", "text"):
        "fa51ecca4a1d20e89e65376e4dfb35cd6feab4ff2c384a07ba00b4936913f772",
    ("verify-graded", "json"):
        "f7983abebb01a498cb32ca001ba9f84f6c9a7a9dfd3d1fb420b87f6ec75c5a7e",
    ("verify-graded", "csv"):
        "ef9ae27b311a7aac20aac01064fbbf96cb5dddc10e37bbd10aa3236285c2a2a7",
    ("verify-graded", "text"):
        "6f703e7ce998e168591bc9d9dc416d255a2d08fc2280ab32e821e889dabf9d13",
    ("verify-partial", "json"):
        "8bccab2cc0817d1abbbc93fbce7272fa55ca7868a4eb58bd1ccc7ba0c57ced48",
    ("verify-partial", "csv"):
        "f83e5dea491e519080ab1fb97ea7cd817d7e2fc8fd2b9867a337f23762bb2d6b",
    ("verify-partial", "text"):
        "ffb95c26eac8c9644822ea55c4d69d87d5eeedce7336efaaec25d05702eed4b9",
    ("verify-straightening", "json"):
        "1d3025ec78a2baa9ec9e82c0164fe6b274850cd7e602130a3589cc884e18679f",
    ("verify-straightening", "csv"):
        "a4905c81b4fa4a452d4c04cf4cb578e719111939a757271e4189249df2ad0ef7",
    ("verify-straightening", "text"):
        "90a16e98b1eba409b4fd90921da1eea8c4d2c4a7d57e82e73718815b326921ed",
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_stdout_digest(capsys, command, fmt):
    digest = hashlib.sha256()
    for argv in COMMANDS[command]:
        code = cli.main(argv + ["--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        digest.update(captured.out.encode())
    assert digest.hexdigest() == DIGESTS[command, fmt]
