"""Pinned seeded output: sha256 of the stdout of short CLI runs.

The hashes were taken with numpy 2.4.6.  A changed hash means the seeded bits
changed (a different stream layout, draw order or float summation order), and
such a change is recorded in CHANGES.md together with the new hash; it is
never absorbed by re-pinning silently.
"""

import hashlib

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
    "verify-ks1": (
        ["verify", "ks1", "--shots", "2000", "--trials", "2", "--seed", "7"],
        "688735ba04ff223b2faea1c325b11b5fd7ab66fabb35fcb6b592716069de8360",
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
        "ed5357584109b9369f381294b5efae485d16abf945676011b43726c32b45bd40",
    ),
    # the JSON form of every report type, in table and json output
    "info": (
        ["info", "--seed", "7"],
        "681a67587deadfa6372b95781ed010d1cab360b3a82559238bcbee31ac2566af",
    ),
    "audit-epistemicity-gbrans": (
        ["audit", "epistemicity", "gbrans", "--samples", "20000", "--seed", "7"],
        "b70fd2592f71b4c61a0bdbe23025465ee696a0da1ad4638a5070bdb1a57e71c8",
    ),
    "audit-epistemicity-ks1": (
        ["audit", "epistemicity", "ks1", "--samples", "20000", "--seed", "7"],
        "29d801085cf6ff2479dd3a071c8b58fe93c4968064853b331fdc441f2224abae",
    ),
    "audit-randomness-gbrans": (
        ["audit", "randomness", "gbrans", "--samples", "20000", "--seed", "7"],
        "187550d8b1293c196d261127b8eb78f79c25f0191596a4674eafe4c4e03c7e23",
    ),
    "audit-randomness-ks1": (
        ["audit", "randomness", "ks1", "--samples", "20000", "--seed", "7"],
        "fc60f523aa20f634395b2efdeb4669b1bfd0cdafc680ba6bcfe3824390454ce1",
    ),
    "audit-reciprocity-gbrans": (
        ["audit", "reciprocity", "gbrans", "--samples", "20000", "--seed", "7"],
        "8320ce789541996a19f0f2ccd9893844c08512ed2a7370ed36377d4331ff47f6",
    ),
    "audit-reciprocity-ks1": (
        ["audit", "reciprocity", "ks1", "--samples", "20000", "--seed", "7"],
        "f256d4da9faa8cb3e47028cd5448b794927b831861b7f1fc7833c9067f41db3b",
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
        "233c4abd4260cae34b63b3f6859f3e5536b5d9262b4a97af3e742eee8ad5939d",
    ),
    "channel-json": (
        ["channel", "--bob", "60,0", "--accepted", "500", "--seed", "7", "--format", "json"],
        "bb10225c9d4075b476ef670e10e20f9ad2749f368fbf20c1eaeac6045a19ec42",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("key", sorted(RUNS))
def test_stdout_hash(key, capsys):
    argv, expected = RUNS[key]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == expected


def test_channel_stdout_and_trace_hash(tmp_path, monkeypatch, capsys):
    # the trace path is echoed in the config, so it is relative and fixed
    monkeypatch.chdir(tmp_path)
    argv = ["channel", "--bob", "60,0", "--accepted", "500", "--seed", "7", "--trace", "t.csv"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert sha256(out.encode()) == "f1ded55edd1c9ebf04aeeb7ebbed1ee21ce8c73b656ffed6d3ff5dc07762255a"
    trace = (tmp_path / "t.csv").read_bytes()
    assert sha256(trace) == "bb010eae532346117701583e71913a9dbdc6db9e3549bbe5f8558ddc96714463"
