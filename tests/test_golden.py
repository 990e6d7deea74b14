"""Byte-level pins of CLI output: the sha256 of stdout and the exit code of a
fixed set of commands.  A change that keeps these hashes keeps every byte of
these outputs.  Update a hash only for an intended output change, and record
which and why in CHANGES.md."""

import hashlib

import pytest

from qflag.cli import main

GOLDEN = [
    (("table", "--type", "A3", "--parabolic", "2", "--json"),
     "5492d88cd7bda37346797f9f0747be8eb4fc80d44854dd10f3b93a7f8a661cba"),
    (("table", "--type", "A3", "--parabolic", "2"),
     "8d772e9e70098df9a7c02c937818dc1978acab1e07bc9a9bdfd276aef7cf8e53"),
    (("table", "--type", "B2", "--parabolic", "", "--json"),
     "b662e150d62e64618bfbf66422f5f363ea5aede67c63059d29fab181f7ee9851"),
    (("table", "--type", "B2", "--parabolic", ""),
     "ed31159dc513ce36d6efa1df630787207a61c1a6a1b2bd62e505e8c57075d29f"),
    (("table", "--type", "G2", "--parabolic", "1", "--json"),
     "125744596a1008fadb1720003ad3c0f89e140146def467e49128411819f48580"),
    (("table", "--type", "G2", "--parabolic", "1"),
     "69aa6b6b44d43a0fc7455383e01f4f92d830a7472e4716f267942a5413ae5a98"),
    (("table", "--type", "A3", "--parabolic", "1,3", "--json"),
     "045445a6d58a01bd61c6bb476e4563dcf5a44aee64724009f14e9bb7c7998fe5"),
    (("table", "--type", "A3", "--parabolic", "1,3"),
     "b8a3b794632056ef4fa368a96acc9060d6211ca39045c63ee925191ec581c9b7"),
    (("table", "--type", "C3", "--parabolic", "1", "--json"),
     "731b1a9227e392879ae8f0ef369006d42bd41e02fdb49dfad4922e5d3dc0b7d6"),
    (("table", "--type", "C3", "--parabolic", "1"),
     "df1e31cd5d874b38f990391fc36561fde6ed20604c5aaaf047d91498c1fd982f"),
    (("check", "--suite", "comparison", "--type", "A2", "--parabolic", "2",
      "--max-degree", "3"),
     "31d15f13fe9a9a6d86f9f7162c8681484d7f4f616073f21d65b89577082e385e"),
    (("check", "--suite", "comparison", "--type", "B2", "--parabolic", "1",
      "--max-degree", "2"),
     "25abd9a2566dae5c00f54880f1fd5ec32f7d5612997a2b863a230f5c6b6d076f"),
    (("check", "--suite", "comparison", "--type", "A3", "--parabolic", "2",
      "--max-degree", "1"),
     "5740df469fcc7fa141f7e3e6f03f445ee9bdfd56275e97dcf64b14afac731620"),
    (("check", "--suite", "associativity", "--type", "B2"),
     "dc08208a90f66a2dee87e522e8dcb8b6c010b0dea67246886668fd525b050e12"),
    # every suite in JSON, and the lift-oracle suite in text; hashes taken
    # at commit 983df7dd92e42d00b9cfcadf66d710909aaaff03
    (("check", "--suite", "comparison", "--type", "A2", "--parabolic", "2",
      "--max-degree", "2", "--json"),
     "a246294467998b52025c89c6e365feca5da730375d31a890e3e6541193729b82"),
    (("check", "--suite", "lift-oracle", "--type", "B2", "--parabolic", "1",
      "--max-degree", "3", "--json"),
     "2fb411fa93e74a287b0551f4d4d62470c53d8776e0e58f684bab3472c95f45f2"),
    (("check", "--suite", "lift-oracle", "--type", "B2", "--parabolic", "1",
      "--max-degree", "3"),
     "72dc2b1bf611664ae103135a3556e96e6b947956304cce4de9b49559f5691a8b"),
    (("check", "--suite", "associativity", "--type", "A2", "--parabolic", "2",
      "--json"),
     "1a9af6b487c205407563e5e372aa0cfc66ee96386791c919b0d7b4f9d07b690f"),
    (("lift", "--type", "A2", "--parabolic", "2", "--degree", "2"),
     "419e026daf0640e6653d6653335e8ae99c382c8c26bbccc59bec55465b78763b"),
    (("gw", "--type", "A2", "--parabolic", "2", "--classes", "s1,s2s1,s2s1",
      "--degree", "1", "--json"),
     "4ae5f52ef4338742f7cdb4d54e96b127f1deb78b751181b5d5626d822bb95373"),
    (("mul", "--type", "A2", "--parabolic", "", "--u", "s1", "--v", "s1"),
     "2ec940ceff7d0ca788dd0f48a1d151e7bd957a61ace161b6c3a1c68f29a70d18"),
    (("gw", "--type", "A2", "--parabolic", "", "--classes", "s1,s1,s2,s2s1",
      "--degree", "1,0"),
     "e488acd288bd0b066b8785dfebee1d4b4a86d5dbc94bd0ede409f81830bb29d0"),
    # Levels whose exact left inverse has a denominator above 1 (B3: 4,
    # D4: 2); hashes taken at commit d5da30e05a1aca345e487266d21094aad6cbae03.
    (("table", "--type", "B3", "--parabolic", "", "--json"),
     "807c58c36cc67f6cc93ef391ab770439ca6efc50dafc03f016d549510e4c250d"),
    (("mul", "--type", "D4", "--parabolic", "", "--u", "s4s2s3s1s2s4s1s2s3s1s2s1",
      "--v", "s4s2s3s1s2s4s1s2s3s1s2s1", "--json"),
     "09acff506990d444b5ec0cc2bb3490037127790b77bca7828cca7282e2495ad6"),
    # the rest of the table-cold benchmark's tables, beside B3: most of
    # their entries are derived products, mapped through one or two orbit
    # maps; hashes taken at commit d23a6d77f3680a88a4ab6cb86a04b0292257f5ef
    (("table", "--type", "C3", "--parabolic", "", "--json"),
     "f56c99a7de0e1630206104a86a07bdc4da1bfb113c3f333b7292bc0ad290e339"),
    (("table", "--type", "A4", "--parabolic", "2,3", "--json"),
     "bad3474953db612d5bae4f07ce6d2c5f6902868c00cc90d1c997674b8f98b974"),
    (("table", "--type", "A4", "--parabolic", "1,4", "--json"),
     "171400604d4fb0bc140328f0198e2981d0b404f5e77d83057342c83196807eba"),
    # a G/P product with a non-minimal class, read off the context's rows;
    # hash taken at commit 2a4604edd2a878c6bb51e186beada7c96b3bcf24
    (("mul", "--type", "C3", "--parabolic", "2", "--u", "s2s1s3s2", "--v", "s2s3s2s1",
      "--json"),
     "476a415f754772b84b775888a307755067a420f1e5b039e99c6acb0cf0e4dc2b"),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN]
)
def test_stdout_is_pinned(argv, digest, tmp_path, capsys):
    argv = list(argv)
    if argv[0] == "table":
        argv += ["--cache-dir", str(tmp_path)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
