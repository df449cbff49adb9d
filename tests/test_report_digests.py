"""Byte-level pins of the law reports.

Each of the 23 (suite, instance) pairs is run at 200 samples for seeds 0
and 1, the three nf and the three stlc pairs also at 1000, and the
SHA-256 of each formatted report is compared with a pinned digest.  A
digest that moves means a report changed: other samples were drawn,
checked or skipped, or a report prints differently.  Skips caused by
running out of stack depend on stack depth, so a refactoring that moves
one must shed frames, not re-record the digest.

The stock suites print only one counterexample (pt linearity), so five
deliberately broken instances are pinned too, at 200 samples for seeds 0
and 1.  Together they fail every law of every checker, which pins how
each law renders its inputs and both of its sides.
"""

import hashlib

import pytest

from modlam import catalog
from modlam.harness import (
    MonadMorphism,
    algebra_check,
    check_module_laws,
    check_monad_laws,
    check_monad_morphism,
    tautological_module,
)
from modlam.lam import LC, Abs, fvar

from faulty_instances import broken_list_monad, int_sub_algebra, naive_prime_monad

PAIRS = (
    [("monad", i) for i in ("lc", "nf", "list", "pt", "stlc", "tlist")]
    + [("module", i) for i in catalog.INSTANCES]
    + [("linearity", i) for i in catalog.INSTANCES]
    + [("algebra", "list")]
)
SEEDS = (0, 1)

DIGESTS = {
    ("monad", "lc", 0): "aa5cd54089787f581c9af2e411aa24308336e25fa9dfd57b832d59fefa3e3fed",
    ("monad", "nf", 0): "21e5dfe2dfe6069888978e8ae0421484ccee3b6ee8d408915287ff867b82f882",
    ("monad", "list", 0): "8c6fd873536a03e00879d12f2ab0a6fa8ebc0084e8d93dd00d7428308166d4be",
    ("monad", "pt", 0): "e18a575fb81bea305001c505a4437fa1bbfbf1ff192aa39ac1402dcc27c88198",
    ("monad", "stlc", 0): "8a37cda957bbbbca518f178a6ba960820e1e753d032d099a36759c11ae1b85ca",
    ("monad", "tlist", 0): "9884bafe674de5793f80b0c5c77418674ea6d44fd53b0f1e8e34caae1904af7c",
    ("module", "lc", 0): "06c347fd115e3af4de88f0e28b9f5a2c547e175eb04ed8c5a7159d66570c7eb1",
    ("module", "nf", 0): "957a9e8860af5b481c42670e391b45284ce8ebe86993b42f44573e2ee1fb1fc1",
    ("module", "list", 0): "e52237b93623d31f350d3aaae1c0315e4e6d2206b55d79d1b8edca43e1b9c682",
    ("module", "pt", 0): "0ef51f4c5e3ef99953c1178284a34cfb0c93c65d7d82b8ab4d5f0e5167ba8ab2",
    ("module", "stlc", 0): "504f0fc9265893248b76ee068d7562a7223d7e69b594d8bbfd98cce6d597a8aa",
    ("module", "tlist", 0): "1884895dbca340af17170be3597355fc99c61d72161c0abd85b7645149334f68",
    ("module", "derived-lc", 0): "194b85df0352d25254228ff85c6a929da31ca276aad3cdfeb0592bac90f9dd96",
    ("module", "product-lc", 0): "d0cf0f0ab140e4996808f540b7577f07bcc1b29d87b63d31a17d3c97750b4c29",
    ("linearity", "lc", 0): "0266537a8c3fcd0e673700f73c85d969cb0e01845ed43d095f4923b1e25c2af4",
    ("linearity", "nf", 0): "0bf47cd79f4cc0a872cc2beb1889b4c4c6c1892b4daec4b4b7f206ae826eb4af",
    ("linearity", "list", 0): "cc474ed8fc12f8fa90889fb4924011c66b5024ec2815cd710745fd6e6241b499",
    ("linearity", "pt", 0): "eda70a18c238c0b7b2d9b016c2669056641fe2d1bdab9c60f488136070718ff3",
    ("linearity", "stlc", 0): "375a68392e3b2b1f8a0ca83f28ad2f5c22bcff4171a06b47ee5b600f5a8344bf",
    ("linearity", "tlist", 0): "48a775825f1fee3ebb3746149b23d2ad70c2fbba6069f2cf68c6bb53d3bfffd7",
    ("linearity", "derived-lc", 0): "3ac02220559fbc153820a388a00d9b5123174aa32223fb00faa48d91b633ffc4",
    ("linearity", "product-lc", 0): "e30796f53664c8476a07f930c94d64642b03e1504bedb0388e466ec6e4b27187",
    ("algebra", "list", 0): "7a4bb9e572406ac37127b662a6d045160125cb47d1f6490f7db7da565014bd1a",
    ("monad", "lc", 1): "0150fc366b0e8e6515797bf8889a721f57e4d8f22484b8fdfd7c3661c7c3965f",
    ("monad", "nf", 1): "4894cc6f3094d001b46a4fcdd27e1e234cd532942b80ec5649deb7ba552307c3",
    ("monad", "list", 1): "2a360cfbbda002782429b635eda196e72c27f5e6a8324be5258e6fa38c030d95",
    ("monad", "pt", 1): "617dfc9badd4d692440140a75725918ec372e17a2e6bd4a2c2e525444f1c5ca9",
    ("monad", "stlc", 1): "d0c34c82f549c6969b6df6fbbb06292936d3ea94b9ef526c8f6bb460a51363c3",
    ("monad", "tlist", 1): "2cdde375a7e990af8f5f489abc08daf2989aceae29bc03d91805a8a43b4130e5",
    ("module", "lc", 1): "1e97c8f09dfec32c9edcb418a388824c55d5809658b033357218c5c11aff23ef",
    ("module", "nf", 1): "20f93f8c9011a6a022545f5164393cc6e85d7c2e4bf5af99fd422ee8e47c15d0",
    ("module", "list", 1): "8957bdf3d9f9672823d35c093157b7f99f4288dc8045b723ff7e72855a6afb35",
    ("module", "pt", 1): "eccec677098ef9aa128f5f283fdfcdfc77b19fb2498f428ee3b1118016cad541",
    ("module", "stlc", 1): "ec8317e5b34823be93bcab83fefc597689e85b2c0032d1891abe605ef30ad1c8",
    ("module", "tlist", 1): "d926ad5146361772970a273172226e4b027997f5668126fa7e735fe964a0c06a",
    ("module", "derived-lc", 1): "069135995fcde0b647b112bac193cb5e596a46edbac6cb0ca07019f9e1b757ac",
    ("module", "product-lc", 1): "b5bda90c0f3d114a1af09af4d3be8d9831428ac82ebb113baac0b5a19545d48d",
    ("linearity", "lc", 1): "ff222f90041ab5c9816f3e407d1519fbace752f24fd633f61409069dfba65c38",
    ("linearity", "nf", 1): "3e8775cd2d81f8421aae50f84b7570397c56b879ba4cbb336d05de0fa36fae33",
    ("linearity", "list", 1): "f4a83739bd810d040e2c594affa60a526155c756ae9e3adbfafd28981fcf5ec2",
    ("linearity", "pt", 1): "84e672703eadad0c9eb2db594549e1d1604ed46150060a45d88a8bd797ef4680",
    ("linearity", "stlc", 1): "15161f74f5237db1ffead08b15576f6f26b466844611ad557280a6a833f7f59a",
    ("linearity", "tlist", 1): "23d8648fa234047a87c6fb085ca27feedb822785b44179655bf3bd88687951a8",
    ("linearity", "derived-lc", 1): "58c492bd108b15e25a0e49e71f87b042e1e46db627b494f223c694d1c8830156",
    ("linearity", "product-lc", 1): "9597330c553721b35b2b22dcdfa887d0652a0712f5208b7733186026c51b1682",
    ("algebra", "list", 1): "cc5692e0cb9e5935414432f292d12ad29ee956ad7b6d4ed094d2c535e0414462",
}
ALL = "807731c6925b58ff204c61bf00d449b637a12bef3e662da89014ce89b7f108fb"

# At 1000 samples the nf pairs skip 20 samples over both seeds, against 1 at
# 200: the samples whose fuel accounting a normalizer change can move.
DIGESTS_1000 = {
    ("monad", "nf", 0): "986d4cd57535b56c8f7ae0bf76677f16ae523b6440c8b1651e49f8c2e9c306c1",
    ("module", "nf", 0): "cd8d71a48b7238e987ccdac9492a0b7f41e222d34d21b0970d14d439e06c38d6",
    ("linearity", "nf", 0): "cd2aac1a6a2b5db13dd1e51540394ce9e0c65e0fe559bf0954ee76ee3ed3322b",
    ("monad", "nf", 1): "ae8096f13b8cbfc65b63b908d7bd6b2a864391cbcc781377a55754671ce18367",
    ("module", "nf", 1): "f3544e149997b78ea3ceee461cd14aa0c216a3f30d27abc84e6007ad38709119",
    ("linearity", "nf", 1): "dc4c41c41380a48b9190e623b13aa03225385992757ae91acc4872457a46aad3",
    # The stlc pairs at 1000 samples pin the typed substitution that every
    # sample of them runs, recorded before it became a single walk.
    ("monad", "stlc", 0): "e96e23d1591bc77a52b7a5d7a0b95889b2e145606eb38e7ee38d9d7a90a60ce3",
    ("module", "stlc", 0): "c8e81c6d2a5bca37ba04922818e91bd274927b82563107039d98f5f0cd0cd4cb",
    ("linearity", "stlc", 0): "93f26c56357eb59ac7b4ce7c475fc720db06d2b6276b59b34a5ce3e6770244e0",
    ("monad", "stlc", 1): "d603fea9d1e3e88e7b81fad4c3a376d8b2aad90c45a0b04e2bd6d4498df842eb",
    ("module", "stlc", 1): "5c3eef33c04c938f5d552e95f830a2fa67fd9e199083055c612bf10c22191bbd",
    ("linearity", "stlc", 1): "396b7766b9deab837acaa00974b34d2fba94fb5c4caf2a0a46100ae4598273fe",
}

RUNS = {(s, i, seed, 200): DIGESTS[s, i, seed] for seed in SEEDS for s, i in PAIRS}
RUNS.update({(s, i, seed, 1000): digest for (s, i, seed), digest in DIGESTS_1000.items()})


def run_id(suite, instance, seed, samples):
    return f"{suite}-{instance}-{seed}" + ("" if samples == 200 else f"-{samples}")


@pytest.fixture(scope="module")
def reports():
    return {
        (suite, instance, seed, samples): catalog.run_suite(suite, instance, samples, seed).format()
        for suite, instance, seed, samples in RUNS
    }


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", [pytest.param(key, id=run_id(*key)) for key in RUNS])
def test_report_digest(reports, key):
    assert sha(reports[key]) == RUNS[key]


def test_concatenated_digest(reports):
    assert len(reports) == len(DIGESTS) + len(DIGESTS_1000) == 58
    assert sha("".join(reports[s, i, seed, 200] for seed in SEEDS for s, i in PAIRS)) == ALL


FAILING = {
    "monad-broken-list": lambda seed: check_monad_laws(broken_list_monad(), 200, seed),
    "module-broken-list": lambda seed: check_module_laws(
        tautological_module(broken_list_monad()), 200, seed
    ),
    "morphism-collapse": lambda seed: check_monad_morphism(
        MonadMorphism("collapse", LC, LC, lambda t: fvar("x")), 200, seed
    ),
    "morphism-abs": lambda seed: check_monad_morphism(
        MonadMorphism("abs", naive_prime_monad(), LC, Abs), 200, seed
    ),
    "algebra-int-sub": lambda seed: algebra_check(int_sub_algebra(), 200, seed),
}

FAILING_DIGESTS = {
    ("monad-broken-list", 0): "3c269c19bee0eeaedf14f3cf379860e4f576fca2dc4ff1914c64783fde7641d0",
    ("monad-broken-list", 1): "f1cc711eae7b3eab640b097d65fd85eb0429ce9bc700303e1c25d1169afd69d5",
    ("module-broken-list", 0): "11a5c6aafa7419efbe4edd76535bf22f1fefc56f2d6700e9a1426b95b6843a30",
    ("module-broken-list", 1): "38f389629e65ad517e3b279a5731d1db086eeebb822d5ee0793ab4408166a7e7",
    ("morphism-collapse", 0): "d1d251ab237fa4f13723b924bdde6299131e6f22778f10b72263fdc3ad3fab1b",
    ("morphism-collapse", 1): "8fcdf46c4b80ec9935f3edce83b9c969138c906d707aa88651ec6c43f5a455cc",
    ("morphism-abs", 0): "a3f9ca408326c8a7a10582c96461eefce770137fc816e59b534d011f3902b223",
    ("morphism-abs", 1): "0e4f50482358c23df5d7c3063e97b9aacc71ac5cac94ec45f0854d1b22a80b3b",
    ("algebra-int-sub", 0): "4bbdecf2bf11b6e73f1f20756267d86a3773a919523640db6c2b4d238c0f2c16",
    ("algebra-int-sub", 1): "bdec4a61a56f7b495f001be39b28cb5451945665f690583ee203fd8b5cfe4884",
}


@pytest.fixture(scope="module")
def failing_reports():
    return {(name, seed): FAILING[name](seed) for name, seed in FAILING_DIGESTS}


@pytest.mark.parametrize(
    "key", [pytest.param(key, id=f"{key[0]}-{key[1]}") for key in FAILING_DIGESTS]
)
def test_failing_report_digest(failing_reports, key):
    assert not failing_reports[key].passed
    assert sha(failing_reports[key].format()) == FAILING_DIGESTS[key]


def test_failing_reports_fail_every_law(failing_reports):
    failed = {
        (report.suite, c.name)
        for report in failing_reports.values()
        for c in report.checks
        if c.counterexample is not None
    }
    assert failed == {
        ("monad", "bind-bind"),
        ("monad", "bind-unit"),
        ("monad", "unit-bind"),
        ("module", "mbind-mbind"),
        ("module", "unit-mbind"),
        ("morphism", "morphism-unit"),
        ("morphism", "morphism-bind"),
        ("algebra", "algebra-unit"),
        ("algebra", "algebra-square"),
    }
