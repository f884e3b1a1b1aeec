"""Frozen CLI output of sbd, scd and census on small prime and extension
fields, text and --json: byte count and sha256 of stdout.  Any change to a
decomposition member, its order or its formatting shows up here.  The
identity verifiers, the path ceiling and psi, classify and cover on fixed
matrix files over every supported field (golden_lattice.json) are frozen as
exact exit code, stdout and stderr."""

import hashlib
import json
from pathlib import Path

import pytest

from qlattice.cli import main

GOLDEN = {
    ("sbd", 2, 5, False): (4967,
        "639e5c6a9c2f8712cab0107ca5aa02ab333838b630af96ce2322c0e2085170cc"),
    ("sbd", 2, 5, True): (8814,
        "8c6667f4d5b18ed2c2c361b2931b931e5b9c99ed8735a79b938afd5b81e4e87c"),
    ("sbd", 3, 3, False): (420,
        "508f5235c619bfdd8951715701572138f1caebbc0bd1f3232526716e8d5e903b"),
    ("sbd", 3, 3, True): (790,
        "5e0dd7b7fe0ad973493a8e5cd625c31559dde685f2ad1a6cb104d272a14deb16"),
    ("sbd", 4, 3, False): (724,
        "a4f0752cbd834062d0c520d6573ba150117cd92237a19b04ff1a068128723e7d"),
    ("sbd", 4, 3, True): (1366,
        "4338bdbd4e134fe5bea5496886b970a8fd47b2b25eb71ec84507209e7284ead8"),
    ("sbd", 5, 2, False): (172,
        "8b734cfa842bbc749dec435eb39b59fe55664a2e83741abf44707672ff3af76a"),
    ("sbd", 5, 2, True): (334,
        "900b1ee694063403702928b3deeb8da83bef05dda461fec3f002f259c5dde72a"),
    ("sbd", 9, 2, False): (308,
        "991a7708ae8fbf64b4cb6a9a0c243afc2960d726272fd0a269a7c4bf6323957c"),
    ("sbd", 9, 2, True): (602,
        "419d1138f1f9fb26d8658443005c331ec9cc03bbd3272d7d13d824920452b4a3"),
    ("scd", 2, 5, False): (14305,
        "fec193d652775aa0f5f9f5344cda1fba905339fbbfe93d20563e51e462da0f28"),
    ("scd", 2, 5, True): (16984,
        "a4eaf8bfab45753c9d5d740a4ec18d5e65d49152568ba1f3e279c6acc6bb4f86"),
    ("scd", 3, 3, False): (643,
        "e7a90c34a4af140a088b66a49c7f99169f586b1b5fa8e131db6426115d37a272"),
    ("scd", 3, 3, True): (575,
        "d8a07d9f3b06db6e19fce17b22186d20e646be20555c66f66cc1796491edd6d4"),
    ("scd", 4, 3, False): (1027,
        "9d61a5127d2aa3f9bafe965db7e4cdea34fe2583a1fecd602c2f342c6ae1ffc3"),
    ("scd", 4, 3, True): (887,
        "6fd07181b6daa938fdf8de4b9716d69e6951e420a37e7c677566029479c37735"),
    ("scd", 5, 2, False): (192,
        "4efb85376fbc13849d1a64c46d7cc7833e4cd9154f588ee178ee228a51e7f957"),
    ("scd", 5, 2, True): (123,
        "fe93967fe64dc3b0d73a29a953c0fcaabdcdb2d7835da8b8ae75f1dc22a8263c"),
    ("scd", 9, 2, False): (309,
        "dac584682a6a43f95ce08ff2096ab79dd7368a4e3c5dc0b3595766806197942b"),
    ("scd", 9, 2, True): (171,
        "19a5cc3321ec41899eabdc6d5eab2b8b68ea343dd94eac5187ec75e699cf77c9"),
    ("census", 2, 5, False): (1515,
        "9c3301d84544e539796f4ded42a5fa29f13c622a35b16709aef2582ba91bd96f"),
    ("census", 2, 5, True): (2478,
        "ebb7ca32ce8bed3da83cf24f6dd598ee8d5f6e4c41ac260f4f7b9ddc0bb78768"),
    ("census", 3, 3, False): (259,
        "27e9893c70f892a6879ae903aef5b0dca1fdc1fc74a3fa1d2b2c60b764a9e2c9"),
    ("census", 3, 3, True): (441,
        "d89cf99cbfc91db409d102f8eb23815d0c8f36b5912885fb9b3c63f89e99eaef"),
    ("census", 4, 3, False): (260,
        "2a42974d7bc1f461048977dfc9b8b585a02893e13b3fc42dbd1cfe3508702b91"),
    ("census", 4, 3, True): (442,
        "57051f499fb49176028b0e0e656d35fa5ac8f5209454580596fb310153f0f53c"),
    ("census", 5, 2, False): (126,
        "dcb7274042eacfe1d250e5e45ff23a1d7c16b7f453de9ad340eb004a6e65edf4"),
    ("census", 5, 2, True): (215,
        "8f28a66ed75b3795899d7c31f50ecc59a4dc0edb62f57487e6aefb63e838f7de"),
    ("census", 9, 2, False): (126,
        "126cda2287af5f79ccedff10ba3ad4cc011f36cf2c32060aa4daca408c1561c5"),
    ("census", 9, 2, True): (215,
        "94001e5ab658a27a17df4f120c9672f72350acd4de3cb07923369c2877e4cd92"),
}


@pytest.mark.parametrize("cmd,q,n,as_json", sorted(GOLDEN))
def test_golden_output(capsys, cmd, q, n, as_json):
    argv = [cmd, "--q", str(q), "--n", str(n)] + (["--json"] if as_json
                                                   else [])
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == \
        GOLDEN[cmd, q, n, as_json]


CEILING_16 = "error: 853467 paths of length 16, above the ceiling 500000\n"
REPORT = '{{"identity": "{}", "n": {}, "ok": true, "counterexample": null}}\n'

EXACT = {
    ("identity", "fs", "--n", "13"): (0, "fs n=13: ok\n", ""),
    ("identity", "fs", "--n", "13", "--json"): (0, REPORT.format("fs", 13),
                                                ""),
    ("identity", "ds", "--n", "11"): (0, "ds n=11: ok\n", ""),
    ("identity", "ds", "--n", "11", "--json"): (0, REPORT.format("ds", 11),
                                                ""),
    ("identity", "fs", "--n", "6", "--k", "3"): (0, "fs n=6 k=3: ok\n", ""),
    ("identity", "fs", "--n", "16"): (2, "", CEILING_16),
    ("paths", "--n", "16"): (2, "", CEILING_16),
}


@pytest.mark.parametrize("argv", sorted(EXACT), ids=" ".join)
def test_exact_output(capsys, monkeypatch, argv):
    monkeypatch.delenv("QLATTICE_MAX_SIZE", raising=False)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == EXACT[argv]


LATTICE = json.loads((Path(__file__).parent / "golden_lattice.json")
                     .read_text())


@pytest.mark.parametrize("run", LATTICE["runs"],
                         ids=[" ".join(r["argv"]) for r in LATTICE["runs"]])
def test_lattice_output(capsys, tmp_path, run):
    """psi, classify and cover on the matrix files named in the argv; the
    names are replaced by paths of files holding the matrix text."""
    argv = []
    for arg in run["argv"]:
        if arg in LATTICE["matrices"]:
            path = tmp_path / arg
            path.write_text(LATTICE["matrices"][arg])
            arg = str(path)
        argv.append(arg)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == \
        (run["code"], run["out"], run["err"])
