"""Pinned seeded output: sha256 of the stdout of CLI runs, and the README's Claims.

The hashes were taken with numpy 2.4.6 built with scipy-openblas 0.3.31.  A
changed hash means the seeded bits changed (a different stream layout, draw
order or float summation order), and such a change is recorded in CHANGES.md
together with the new hash; it is never absorbed by re-pinning silently.

Every row of the README's Claims table is a command, the values it prints and
a claim of the paper.  `CLAIMS` holds, per command, the check of that claim
and the hash of its stdout, which joins `RUNS`.
"""

import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from mdhv.cli import main

RUNS = {
    "verify-brans": (
        ["verify", "brans", "--shots", "2000", "--trials", "2", "--seed", "7"],
        "35e08001104e29cae71c6f5f1880de3c0c6491a2e1ac96b9118e386599c5a800",
    ),
    "verify-gbrans": (
        ["verify", "gbrans", "--shots", "2000", "--trials", "2", "--seed", "7"],
        "f5cbe05ae83b2b3f77b3a31694faee840dd618735ce4ac4f505a814b4231b21c",
    ),
    "verify-interval": (
        ["verify", "interval", "--shots", "2000", "--trials", "2", "--seed", "7"],
        "bd792c04c06c1e6af3ac4e6b98a6bb7c40aab0981ffa8eb971f9ae3da2a57ba9",
    ),
    # several outcomes over four chunks of shots, split over two threads
    "verify-gbrans-dim5": (
        ["verify", "gbrans", "--dim", "5", "--shots", "200000", "--trials", "3", "--threads", "2", "--seed", "7"],
        "40d188775138230d0ad3ea80d55889f7384c9b8d33dc2ce8ec220fb26d94898a",
    ),
    "verify-interval-dim4": (
        ["verify", "interval", "--dim", "4", "--shots", "200000", "--trials", "3", "--threads", "2", "--seed", "7"],
        "4b4a0ee6b02d4a026fd1b46595b76ecb92303a59da0decbcd83ce91dc5f07874",
    ),
    "verify-ks1": (
        ["verify", "ks1", "--shots", "2000", "--trials", "2", "--seed", "7"],
        "cb8f1798555eda50bcf594ef426b5804e4eb71f6408cf2292f37f53767bcb627",
    ),
    "verify-ks2": (
        ["verify", "ks2", "--shots", "2000", "--trials", "2", "--seed", "7"],
        "48374c43733d7a221f0982ea2c14576992086a02773d53b5ec67473367d5124d",
    ),
    "verify-hall": (
        ["verify", "hall", "--shots", "2000", "--trials", "2", "--seed", "7"],
        "b096c6b57c0d7372b77aaa8ce570a650d698c7163442366636cb087152ce12d4",
    ),
    "verify-bellmermin": (
        ["verify", "bellmermin", "--shots", "2000", "--trials", "2", "--seed", "7"],
        "6a83fcb07102e1a5e82cd2a95532b15f6c6428ab1f7fd137516b67c1ffc86e2e",
    ),
    # three chunks of shots over two threads: each chunk's labels come first in its stream
    "verify-bellmermin-chunks": (
        ["verify", "bellmermin", "--shots", "140000", "--trials", "2", "--seed", "7", "--threads", "2"],
        "4d0e717b6afd8697cab8b6b2936fed7f370ca2d3e4858e771f6782f4d7ebb4d2",
    ),
    # three chunks of shots over two threads, each of many capped rejection rounds
    "verify-ks2-chunks": (
        ["verify", "ks2", "--shots", "140000", "--trials", "1", "--seed", "7", "--threads", "2"],
        "89fca6d1a238740b93a9f507da61cfedf8c9506a9593b2b714ae63456bba918c",
    ),
    "verify-hall-chunks": (
        ["verify", "hall", "--shots", "140000", "--trials", "1", "--seed", "7", "--threads", "2"],
        "20e5883b8017d560c3b559e427d7299b5603c9fa6347f4f3f689c3f1c70917f2",
    ),
    "scan-brans": (
        ["scan", "brans", "--shots", "2000", "--seed", "7"],
        "0c0ba686cf6f5f2b98b482d16f67753d6fe126c6a0ae2156aceb31225fc22072",
    ),
    "scan-hall": (
        ["scan", "hall", "--shots", "2000", "--seed", "7"],
        "d816e3df8a5420f5e0ea925c28f6044a073ddacc01f27261ba6be26c08f54a35",
    ),
    "audit-marginal-hall": (
        ["audit", "marginal", "hall", "--bob", "60,0", "--samples", "20000", "--seed", "7"],
        "64e48fc762c77a5c469f3477325cc2e351db8eafe5917c1b97cde32da72cc3eb",
    ),
    # the JSON form of every report type, in table and json output
    "info": (
        ["info", "--seed", "7"],
        "24e15be473b705b149c8e7a467a9e56cf54e3f7e77b0a0bd36741b5cf3ecaf7b",
    ),
    "audit-epistemicity-gbrans": (
        ["audit", "epistemicity", "gbrans", "--seed", "7"],
        "477da0c236f22376ea86ddead87a272546150cb1e0c72c418ff346bc192391b5",
    ),
    "audit-epistemicity-ks1": (
        ["audit", "epistemicity", "ks1", "--seed", "7"],
        "3081e0ae308a4e971bfa847a60f544ec2da9eea0be1dc30c79406306a95e8db6",
    ),
    "audit-randomness-gbrans": (
        ["audit", "randomness", "gbrans", "--seed", "7"],
        "9aea5711af1501bed0bd5730236ec7468bc78cc2d217e6a972f2db5603a3c243",
    ),
    "audit-randomness-ks1": (
        ["audit", "randomness", "ks1", "--seed", "7"],
        "0e51e041ec2608805642dc2782e9ef26d011e14e80df160a7715429855958df4",
    ),
    "audit-reciprocity-gbrans": (
        ["audit", "reciprocity", "gbrans", "--seed", "7"],
        "ae62e1acaf3d63681c9eba2e49bbeb2fcf6931699c831b0a2f46a43771e32dcf",
    ),
    "audit-reciprocity-ks1": (
        ["audit", "reciprocity", "ks1", "--seed", "7"],
        "3707aaf610fb2ad013549e0e1da0f28097b301d81002d49d9f2503ca0924c9c6",
    ),
    "audit-pi": (
        ["audit", "pi", "gbrans", "--seed", "7"],
        "f473065c30950cf578c87a38c1f068f6a35b569325fa7af4fdeabe21f657ffa3",
    ),
    "audit-compat": (
        ["audit", "compat", "gbrans", "--seed", "7"],
        "059ca71d74e1f59637a98d0d237d567078989688ddbe35ea5162611a92e62f18",
    ),
    "audit-marginal-brans": (
        ["audit", "marginal", "brans", "--bob", "60,0", "--seed", "7"],
        "f0a6ca3c82b6b874365d80200f83a4530677716179880d27c0443fc3d14311fe",
    ),
    "verify-ks1-json": (
        ["verify", "ks1", "--shots", "2000", "--trials", "2", "--seed", "7", "--format", "json"],
        "5351286036f01bbfd4fc225092214403e260ec84f007d88c276b17097037b8f7",
    ),
    "channel-json": (
        ["channel", "--bob", "60,0", "--accepted", "500", "--seed", "7", "--format", "json"],
        "c55485546bb39b09a33dd9f62311a558eb51996f377fc173cdff9f25ca28fc00",
    ),
}



def _channel(doc) -> bool:
    t = doc["transcript"]
    p_plus = (1.0 + sum(a * b for a, b in zip(t["alice_axis"], t["bob_axis"]))) / 2.0
    return (
        abs(doc["acceptance_rate"] - 0.5) <= 5.0 * math.sqrt(0.25 / t["sent"])
        and abs(doc["outcome_frequencies"]["+b"] - p_plus)
        <= 5.0 * math.sqrt(p_plus * (1.0 - p_plus) / t["accepted"])
        and doc["nominal_cost_bits"] == 2.0
        and doc["empirical_cost_bits"] == pytest.approx(t["sent"] / t["accepted"], rel=1e-12)
    )


def _gbrans_omega(doc) -> bool:
    return doc["epistemicity"]["omega"] == 1.0 and doc["epistemicity"]["method"] == "analytic"


def _omega_analytic(doc) -> bool:
    # the mass is an exact cell sum; 1e-12 covers its rounding and that of |<psi|phi>|^2 against the Bloch axes
    e = doc["epistemicity"]
    return e["method"] == "analytic" and abs(e["omega"] - 1.0) <= 1e-12


def _hall_tv(doc) -> bool:
    return abs(doc["marginal"]["tv_distance"] - 1.0 / 12.0) <= 1e-3


def _gate(doc) -> bool:
    return doc["all_within_5_stderr"] is True


# README Claims command (without `mdhv`) -> (check of the printed report, stdout sha256)
CLAIMS = {
    "scan brans --shots 100000 --seed 1": (
        _gate,
        "3e55622568f47021234fc4f7d262c889b15fc755eddd37b900fadc32835a6e97",
    ),
    "scan hall --shots 100000 --seed 1": (
        _gate,
        "825a7288d1fb116429db4636fbe54495e22ac8f26c548e10d0c889d8af970c22",
    ),
    "channel --bob 60,0 --accepted 100000 --seed 3 --format json": (
        _channel,
        "41a5b632d4ac6f93dbbccd8a678f1ec6bcda39f1c4095ac070803a2aec26d27d",
    ),
    "info --seed 1 --format json": (
        lambda doc: abs(doc["info"]["mutual_information"] - math.log(2.0)) <= 2e-15,
        "16b358fe1dd16eae1472f44d2249484dc0ea44f0d67cda482796fa08175ea075",
    ),
    "audit epistemicity gbrans --dim 2 --seed 2 --format json": (
        _gbrans_omega,
        "932fcbd02c4f270e1573149e247bd16775f4c893e58eb439aae2938574798faa",
    ),
    "audit epistemicity gbrans --dim 3 --seed 2 --format json": (
        _gbrans_omega,
        "5282d9a8095acd0d9c1cabee5d7bd451e8e00e22a0d7f86ca222a4ac445ee62e",
    ),
    "audit epistemicity gbrans --dim 4 --seed 2 --format json": (
        _gbrans_omega,
        "e43af9e4bbb10b8dce9c8ef94a856099127a614ae08b914bbdfbf9a591371892",
    ),
    "audit epistemicity gbrans --dim 5 --seed 2 --format json": (
        _gbrans_omega,
        "1e7ab9e44d3c677c4db41a5c75309de19e48bfd5c796daff81decf4fa71b3b4b",
    ),
    "audit epistemicity ks1 --seed 11": (
        _omega_analytic,
        "7742183983f8a98f04c8148f8816903e7749b18365ff1fbd2680138fa7b57b2f",
    ),
    "audit epistemicity ks2 --seed 11": (
        _omega_analytic,
        "3eb39e1102f0f799dd3677b2ec3052952866a609d9bc3e6bcef34e740d945818",
    ),
    "audit epistemicity bellmermin --seed 11": (
        _omega_analytic,
        "e0b9fa0638e831902aa4fc33f50f5f1c27612926ce1fbe33e087800e80dfd9cc",
    ),
    "audit marginal hall --alice 0,0 --bob 60,0 --bob2 90,0 --seed 1": (
        _hall_tv,
        "2f5abe03bed954b7548b35d036cd4cb9459f55fc4fbb55af8edae6f184202dfe",
    ),
    "audit marginal hall --alice 0,0 --bob 60,0 --bob2 90,0 --particle 2 --seed 1": (
        _hall_tv,
        "2f8f819a62b888f7c62c57b6e31fa0ef9c3d47c668cbca1f65e9f2755ec5084d",
    ),
    "audit marginal brans --alice 0,0 --bob 60,0 --bob2 90,0 --seed 1": (
        lambda doc: doc["marginal"]["tv_distance"] == 0.0,
        "2109090935d2e41b628fe682708523caf49ea6898f1cddf08cf447ac416e9b1d",
    ),
    "audit pi gbrans --state +,0 --basis mixed-psi-plus --seed 4 --format json": (
        lambda doc: abs(doc["pi"]["max_residual"] - 0.125) < 1e-12,
        "c8ff257338ddbdd7db7099636ca45982f17c8e00e1162d2c0baf960a8f35a6ed",
    ),
    "audit compat gbrans --states 0,+ --basis pbr --seed 4 --format json": (
        lambda doc: doc["compat"]["common_support"] == []
        and all(doc["compat"]["product_supports"].values()),
        "d1291f269228120f7e88e3be57a9d06ff4ebd08595791137ca5bcb05ba6b03df",
    ),
    "audit randomness gbrans --dim 3 --seed 1": (
        lambda doc: list(doc["randomness"].values()) == [0.0, 0.0, 0.0],
        "30b9fc009620c9ac887bac53165ae69fd816f8ca60746b07e2664c5494398eed",
    ),
    "audit reciprocity gbrans --dim 3 --seed 1": (
        lambda doc: doc["reciprocity"]["violation_mass"] == 0.0,
        "5b747d68f88a80f3941f5fa6d1a952246d0b1fc3594071f979f60c3158a3d0a5",
    ),
    "verify gbrans --shots 100000 --trials 100 --seed 7": (
        _gate,
        "deb794f2e56c45b75aee860610bfa935ca377cff2895626f76252ac7688f51bc",
    ),
    "verify brans --shots 100000 --seed 7": (
        _gate,
        "f1f0719953998c673b741d38566ba6968b63ad2e49b7ee1c84e0c7008d6ef44c",
    ),
    "verify interval --shots 100000 --seed 7": (
        _gate,
        "879566da4b69ff8001a8756d2e37a632322b21dd04619b36f396da3c736facd0",
    ),
    "verify ks1 --shots 100000 --seed 7": (
        _gate,
        "b9527bd7258cd0487bc0c823e8c8806fcd27b5573fb60951713ed0b974aea9b9",
    ),
    "verify ks2 --shots 100000 --seed 7": (
        _gate,
        "fda04ac73d24567e361687c61ff0e25d3e611909b80e60b1cda894f04d52e8cd",
    ),
    "verify hall --shots 100000 --seed 7": (
        _gate,
        "014462933696426f7d2404f3a67ca22f19e8edb1358515556ec70fe5a95c324e",
    ),
    "verify bellmermin --shots 100000 --seed 7": (
        _gate,
        "ae9921d34c45f114ee53da31e03341b7f5ec7d4f16fb9112192d394e08778532",
    ),
}

RUNS.update({command: (shlex.split(command), digest) for command, (_, digest) in CLAIMS.items()})


def readme_claims() -> dict[str, list[str]]:
    """The README's Claims table: command (without `mdhv`) -> the values it prints."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## Claims\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in table.splitlines():
        cells = line.split(" | ")
        if len(cells) == 3 and cells[1].startswith("`mdhv "):
            rows[cells[1].strip("`").removeprefix("mdhv ")] = re.findall(r"`([^`]+)`", cells[2])
    return rows


README_CLAIMS = readme_claims()


def printed_report(out: str) -> dict:
    """The printed report: the JSON document, or a table's `key: value` lines."""
    if out.startswith("{"):
        return json.loads(out)
    lines = (line.partition(": ") for line in out.splitlines())
    return {key: json.loads(value) for key, sep, value in lines if sep}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(README_CLAIMS.keys() | CLAIMS.keys()))
def test_claim(command, capsys):
    assert command in README_CLAIMS, "checked here but not a row of the README's Claims table"
    assert command in CLAIMS, "a row of the README's Claims table without a check here"
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    for value in README_CLAIMS[command]:
        # a whole token: a digit dropped from the README's value does not match
        assert re.search(rf"(?<![\w.]){re.escape(value)}(?![\w.])", out), value
    check, _ = CLAIMS[command]
    assert check(printed_report(out))


@pytest.mark.parametrize("key", sorted(RUNS))
def test_stdout_hash(key, capsys):
    argv, expected = RUNS[key]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == expected


def traced_channel_hashes(argv, tmp_path, monkeypatch, capsys) -> tuple[str, str]:
    """sha256 of the stdout and of the trace of `channel <argv> --trace t.csv`."""
    # the trace path is echoed in the config, so it is relative and fixed
    monkeypatch.chdir(tmp_path)
    assert main(["channel", *argv, "--trace", "t.csv"]) == 0
    return sha256(capsys.readouterr().out.encode()), sha256((tmp_path / "t.csv").read_bytes())


def test_channel_stdout_and_trace_hash(tmp_path, monkeypatch, capsys):
    argv = ["--bob", "60,0", "--accepted", "500", "--seed", "7"]
    assert traced_channel_hashes(argv, tmp_path, monkeypatch, capsys) == (
        "be084875e5d1f8952719f94a6ef0294679cb809424a97226e501215ade49ecf2",
        "bb010eae532346117701583e71913a9dbdc6db9e3549bbe5f8558ddc96714463",
    )


def test_generic_axis_channel_stdout_and_trace_hash(tmp_path, monkeypatch, capsys):
    # Alice on z embeds with one nonzero term per column, so no sum rounds;
    # here two of the three columns sum three nonzero terms, so a change of
    # the embedding's float order shows in the trace
    argv = ["--alice=0.3,-0.5,0.8", "--bob=-0.6,0.2,0.7", "--accepted", "500", "--seed", "7"]
    assert traced_channel_hashes(argv, tmp_path, monkeypatch, capsys) == (
        "460e9a6a853ebc3f11ee40a647621ecd75e2a790af9ea2ef1e8fd227d6b2afaf",
        "b6249014a3f574919fd3f351a6c08ef179b000588a6d1f99687087e6ec50b1bc",
    )
