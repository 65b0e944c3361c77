"""Golden CLI outputs: stdout and exit code of fixed invocations, byte for byte.

Each case runs ``cli.main`` in process and compares the sha256 of its stdout
(UTF-8) and its exit code with a digest recorded before the character-table
rows were written in closed form; the digests of the uncertified refusals
were recorded before the Sylvester discriminant was retired, and those of
their text format anew when refusals got a text rendering.  A digest
changes only with a deliberate change of the report, which must then be
recorded here anew.
"""

import contextlib
import hashlib
import io

import pytest

import galrep.cli as cli

ODD_PRIMES_TO_23 = (3, 5, 7, 11, 13, 17, 19, 23)


def _invocations():
    for p in ODD_PRIMES_TO_23:
        for group in ("inertia", "full"):
            for fmt in ("json", "text"):
                yield ("chartab", "--p", str(p), "--group", group, "--format", fmt, "--group-bound", str(p))
    for p in (61, 101):
        yield ("chartab", "--p", str(p), "--group", "full", "--group-bound", str(p))
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 6):
            for fmt in ("json", "text"):
                yield ("classify", "--p", str(p), "--f", f"x^{p}-{p}", "--n", str(n), "--format", fmt)
    for fmt in ("json", "text"):
        yield ("classify", "--p", "31", "--f", "x^31-31", "--n", "1", "--format", fmt, "--group-bound", "31")
    yield ("classify", "--p", "5", "--f", "x^5+x+1", "--n", "1")
    # refusals of uncertified inputs: a repeated root, slope 0, two
    # clusters (x(x-1)(x-2)(x-3)(x-5)), fractional coefficients, and p = 13
    for p, f in ((5, "[1,1,-2,-2,1,1]"), (5, "x^5+x+1"), (5, "x^5-11*x^4+41*x^3-61*x^2+30*x"),
                 (5, '["5/2","5/3",0,0,"1/7",1]'), (13, "x^13+x+13")):
        for fmt in ("json", "text"):
            yield ("classify", "--p", str(p), "--f", f, "--n", "1", "--format", fmt)
    for fmt in ("json", "text"):
        yield ("verify", "--format", fmt)
    yield ("count", "--mode", "twisted", "--p", "31", "--n", "1")


INVOCATIONS = tuple(_invocations())


class _HashingStdout(io.TextIOBase):
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("utf-8"))
        return len(text)


def run_digest(argv):
    out = _HashingStdout()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return out.sha.hexdigest(), code


GOLDEN = {
    "chartab --p 3 --group inertia --format json --group-bound 3": ("a0e94a9e8bed98e4aff015c4bbdad734fdd6a7611ada09f73eff64fc02bb65c2", 0),
    "chartab --p 3 --group inertia --format text --group-bound 3": ("d61556c8f3a3d537ad4a4a10fd500697c6ec7d7318a695c5c68c36dd11ba5ddb", 0),
    "chartab --p 3 --group full --format json --group-bound 3": ("5c66507a792d09d26f2cce30bf93855a23c01e35faed31eecbf65c79f63d7591", 0),
    "chartab --p 3 --group full --format text --group-bound 3": ("7b433da106370a241e18efd0ba92312fc5ea72cbccda1f2fad2ed467b886e9cd", 0),
    "chartab --p 5 --group inertia --format json --group-bound 5": ("6864caeb9908edf28bc1bbdf2f85995328c6e622acbc889dd5238c847660eaf0", 0),
    "chartab --p 5 --group inertia --format text --group-bound 5": ("8ac70f1a1451a375d9b48a8d95275884524aed26baae071e51e2a7bbebfbadcf", 0),
    "chartab --p 5 --group full --format json --group-bound 5": ("f8cf18151c167ae669c435aff05c21e3a18eb33b0181411835372e9392684d58", 0),
    "chartab --p 5 --group full --format text --group-bound 5": ("88414ffd70f597591c014684c106dff0b6f3eaa96cb199affd24920a19504826", 0),
    "chartab --p 7 --group inertia --format json --group-bound 7": ("508538c630003edee3bfd3bc732ee423e02eb55980ec8fd8f6e5c24f47a2483f", 0),
    "chartab --p 7 --group inertia --format text --group-bound 7": ("276d1f6a31750da52e5c48bbeb12df33ce64f70ac0a8a43caf9418037d6b1216", 0),
    "chartab --p 7 --group full --format json --group-bound 7": ("27febb7747e166de0c123bbb85d8c7fc4ed599229ad82305fa81102e313100c8", 0),
    "chartab --p 7 --group full --format text --group-bound 7": ("3731e722ee0f3a90d6147516621a8801e1f73debac84b8cc6dca3cd4a708dd0f", 0),
    "chartab --p 11 --group inertia --format json --group-bound 11": ("58d4813ecaa1b86939d8e92f7256d941b99e09d589eebe7ce378d1c076ecca84", 0),
    "chartab --p 11 --group inertia --format text --group-bound 11": ("5f6b009c8a37a5e7a159d528f8052b0b4e5dba021a51591f2fdcff934e996d41", 0),
    "chartab --p 11 --group full --format json --group-bound 11": ("866d2e31da43f092414477924e0153f10b08ce6407bb46f961ab429c79f7089c", 0),
    "chartab --p 11 --group full --format text --group-bound 11": ("9d59acbce5a26c5ec2abc0db02bc918611df17fbe6bcd05b0ac10e537ac0acd6", 0),
    "chartab --p 13 --group inertia --format json --group-bound 13": ("fd3653089c3383e8c423f3a19c7601562592e42f01207e0653bca8b2efecac07", 0),
    "chartab --p 13 --group inertia --format text --group-bound 13": ("ab9978af60476d5854b050ec35aa8c70247da5ebefc7c8f666c968c984eb9399", 0),
    "chartab --p 13 --group full --format json --group-bound 13": ("6287e94f2a434a9d694b7b6531910d8a64062e71700ea641db6670358876c8ce", 0),
    "chartab --p 13 --group full --format text --group-bound 13": ("dbb72655480c3211b36c3140c9d6937e0bc7252c83cbf8fc8c0edd7255811179", 0),
    "chartab --p 17 --group inertia --format json --group-bound 17": ("6df6295faba5f586181c48b761c99c8ea0eb6d52388ecad74c72bd436b121e35", 0),
    "chartab --p 17 --group inertia --format text --group-bound 17": ("fda70a62c13b88f6cf8e973bffe3c579a969c6d0d126bd0f6f35b937ba1b23cd", 0),
    "chartab --p 17 --group full --format json --group-bound 17": ("d1e3353dc51f3409635020dbb05ad709f02cdce0da9cf7db7925c6c3141f57bd", 0),
    "chartab --p 17 --group full --format text --group-bound 17": ("18f76372f6096de2a71d419a13ef430afd3f5fb8aaadeb09d0686c850b293655", 0),
    "chartab --p 19 --group inertia --format json --group-bound 19": ("30d041dd92e6ec26007d471738ff1cc161598c7cef4e784a592d6dc561606ca3", 0),
    "chartab --p 19 --group inertia --format text --group-bound 19": ("e00ecdd1e1104281b64b390a305b49b8c9ceb26d4be7750b805119bf169b0fd3", 0),
    "chartab --p 19 --group full --format json --group-bound 19": ("5d1fca9b4c076594bba05fe1080b8492303de271a9c9f7d0d8276fc486733e21", 0),
    "chartab --p 19 --group full --format text --group-bound 19": ("b9bd7fed1aa58a2f8073dc66370e730aee7ef1b71e5fb5c4b120435069489432", 0),
    "chartab --p 23 --group inertia --format json --group-bound 23": ("80188835f6021189317747b07e808012f9a11daba8e51fb93c8926d1300de66a", 0),
    "chartab --p 23 --group inertia --format text --group-bound 23": ("ee59f4bf94e44f461a4a8471d56091b3b0acdb252e6d2ec9e06579f2d4baa1c1", 0),
    "chartab --p 23 --group full --format json --group-bound 23": ("51cd1a7f30e5f06c46046ed2a2b782c5f895f49f6094cc10c568e2d500fc5253", 0),
    "chartab --p 23 --group full --format text --group-bound 23": ("a40fdadfb0ae2cb42bd39bfc2ad63cfb62037e403665c46626cc8065ed9c08c5", 0),
    "chartab --p 61 --group full --group-bound 61": ("e25d0f7a381a226edb9d8a0f8a4c558248bfe9bdadb0a30449f578ed6448c94f", 0),
    "chartab --p 101 --group full --group-bound 101": ("5be1fb92d328dd612ab3a592cbb5a6d2a3a50cb7f7fd79ce1f64bc6d1f4c03da", 0),
    "classify --p 3 --f x^3-3 --n 1 --format json": ("9d3c637aba92e3ccdac4f7aad1ff883c1700844da5ffaeb313424fa075dfc30b", 0),
    "classify --p 3 --f x^3-3 --n 1 --format text": ("7815d92ecec5052adff4645a34d032cfc46524393f347e35689191183fac28c6", 0),
    "classify --p 3 --f x^3-3 --n 2 --format json": ("ddee858c358748b19995c23ede4346287ca4340cf35d7c30da7fb1e58a36bdac", 0),
    "classify --p 3 --f x^3-3 --n 2 --format text": ("1ad1a8d720d683482a1ca891076d71a97499854d47b010cf76b2a3111b473310", 0),
    "classify --p 3 --f x^3-3 --n 3 --format json": ("cdf95106f88128a3e7f6c14af9ddf60937088c7fb9242d3246f5284da57c0221", 0),
    "classify --p 3 --f x^3-3 --n 3 --format text": ("46f996daeee5767c656ebd31352775e407410bf51c465994ce65f9da0e37bc30", 0),
    "classify --p 3 --f x^3-3 --n 4 --format json": ("bce8fd4db5c566b75c926b322bcf9d4667a7f3143ba660456db126a0b4696b28", 0),
    "classify --p 3 --f x^3-3 --n 4 --format text": ("ff9d300aa4f440d8978ba1c155c41b2ecfc60e07ba3944c603e0a136b1a96a49", 0),
    "classify --p 3 --f x^3-3 --n 5 --format json": ("9bf7f1deb89644198218108ca7c3a0b60ef273bde7b26bf8111536e79a136b21", 0),
    "classify --p 3 --f x^3-3 --n 5 --format text": ("cc829734fde31738bba9e41797ad7dac60f6ced06d38be1522b2fd83885a8d2a", 0),
    "classify --p 5 --f x^5-5 --n 1 --format json": ("78685c889aa84a833174a3ba7921dc35a2078cb1a96dbf7673f709d482d465a0", 0),
    "classify --p 5 --f x^5-5 --n 1 --format text": ("bbd6f4f74ca3f541fa6fdc2dff505b0662945d368728495796b201b5309a5187", 0),
    "classify --p 5 --f x^5-5 --n 2 --format json": ("c3c1c7e2ec0d08105e96325936f07d594452506defb4489b8438ab2ff2133698", 0),
    "classify --p 5 --f x^5-5 --n 2 --format text": ("478471e70238e62f8330509e2f2711de25c2cfd350acc52599bd0280604645ba", 0),
    "classify --p 5 --f x^5-5 --n 3 --format json": ("29970bb35ba6fcd07a2ad0be825ba4c535679a037814f4ce81fc27cf45a287ce", 0),
    "classify --p 5 --f x^5-5 --n 3 --format text": ("5d59a634e2633160e4a2a1d039b8a5b4e72359eefb8bc60626939d82895a16e6", 0),
    "classify --p 5 --f x^5-5 --n 4 --format json": ("a39efce1327a5c03ef084d281e52b0b6c3a28fb12b63ae41ef4ab41bd6ba5290", 0),
    "classify --p 5 --f x^5-5 --n 4 --format text": ("fc7e7e7371a7bcc7a06ea1465dfe01fe60a377301964822faf09d779ac0d2fc6", 0),
    "classify --p 5 --f x^5-5 --n 5 --format json": ("1f6e39ebd724a0ada5502fcd5cdecd529ed798363745466113ac34120633dbfe", 0),
    "classify --p 5 --f x^5-5 --n 5 --format text": ("76fb5695b9e6ec9203895d86ba76a8770722174458b424e2397ed3e361f22d10", 0),
    "classify --p 7 --f x^7-7 --n 1 --format json": ("cb58debba549c76d12f4865fe64475707fa7e97518e38f4aaf63723107594e1a", 0),
    "classify --p 7 --f x^7-7 --n 1 --format text": ("e45bb556d80e05c4a82edc3b74628d232000c50894dea34dfa402bb18c259ae8", 0),
    "classify --p 7 --f x^7-7 --n 2 --format json": ("a401748f69f87490d47b654287b8d80dfaa5ba089bd6c0f747a680674ccaa027", 0),
    "classify --p 7 --f x^7-7 --n 2 --format text": ("8a1e5bf604fddb18a9ff1faa47f334010656c32ff5495d478f9041ce18f4ec30", 0),
    "classify --p 7 --f x^7-7 --n 3 --format json": ("ebf21316462ab7ffa9c2df5a71f517d6e8b2d358d3f3e35ae8ee3ba7dc551748", 0),
    "classify --p 7 --f x^7-7 --n 3 --format text": ("c141bc4cd98fbcb5824104dda96146bfe6969b5613774af15deed08048c59efb", 0),
    "classify --p 7 --f x^7-7 --n 4 --format json": ("6cdffff10162018f65e25e1476de05e972436b23830b774082ddc30e5c3979fc", 0),
    "classify --p 7 --f x^7-7 --n 4 --format text": ("e87cebeffceca92fb8652ec3fb3d755ab5e31ff106899dac991aaaf6f296bc5c", 0),
    "classify --p 7 --f x^7-7 --n 5 --format json": ("6cf658414a9eb45b8e74fd4f02bdd4a636223ddc23c714a96a72fc5616b1de63", 0),
    "classify --p 7 --f x^7-7 --n 5 --format text": ("b74e8bcf5a1b392297322d152c6276b59b2e482157139645a2327dbfe3f72b34", 0),
    "classify --p 11 --f x^11-11 --n 1 --format json": ("ae6634521e9a3e26232094839dc0997e613ace7439f576434ae42a63d75ed04b", 0),
    "classify --p 11 --f x^11-11 --n 1 --format text": ("b683263b62771093cdddc1fe1e1a653caad0506893a4650c8400ae392f1da09e", 0),
    "classify --p 11 --f x^11-11 --n 2 --format json": ("b5839ca36c231a5e943af31164d397b8162c861e0303ab8e547456190c30ff56", 0),
    "classify --p 11 --f x^11-11 --n 2 --format text": ("b445a886bc069878102888c8c9a5f7ca98dbc093d2db975dd6aac6f8409c6770", 0),
    "classify --p 11 --f x^11-11 --n 3 --format json": ("adf34f16510bf116bf02065fd50919f4a52ef889a207e06a3a01167b7d52f94f", 0),
    "classify --p 11 --f x^11-11 --n 3 --format text": ("5b4af378ebb98e6844b763cf458cd8ccfd668f27dc025d6cdb6249a8fbc9487a", 0),
    "classify --p 11 --f x^11-11 --n 4 --format json": ("cfb6ec9d3ebd31da73d8bbe7a561ac82c82c04b2b78b99f221e54dfe9a7a8448", 0),
    "classify --p 11 --f x^11-11 --n 4 --format text": ("efb70e9f44163970a27b223eb725c2ecebb44ed4dd6c3eb36eeb876f0565e486", 0),
    "classify --p 11 --f x^11-11 --n 5 --format json": ("d3fe0263eac285202717ba49203ee21f46c617cd93f42b8d86926671c82b2227", 0),
    "classify --p 11 --f x^11-11 --n 5 --format text": ("3d82db749f7c9b68b1d4564a1ba4d9cc2f1ca85773813f36bfb59c3d1d87ba1a", 0),
    "classify --p 13 --f x^13-13 --n 1 --format json": ("cf354c843b3408a2af82abbc403ac0bacdc1524098329219c4801000d87aa30e", 0),
    "classify --p 13 --f x^13-13 --n 1 --format text": ("b48cb0f27cfb8caa544cf348e0315f990ca24a298e8bce0c9e07e2c480e674cb", 0),
    "classify --p 13 --f x^13-13 --n 2 --format json": ("0a731b327bfb29e784446a08b20fab2a13347023f11199ed671c56cdaac5d1a6", 0),
    "classify --p 13 --f x^13-13 --n 2 --format text": ("ca504dadfdd050281bcb9be8fe3dffee7e478ac9d92206a089f8150798c824eb", 0),
    "classify --p 13 --f x^13-13 --n 3 --format json": ("71a92855ffebe8e3ed9009241e38b8c5bf12e124579b22c5483b5c9eb17a778a", 0),
    "classify --p 13 --f x^13-13 --n 3 --format text": ("1f57618e2e8af8099d0a8faa3870bd93656f98d98fbe1c2865c159e8af297074", 0),
    "classify --p 13 --f x^13-13 --n 4 --format json": ("dbd4793613084dfba0b44a3a4836bf470efac65f3b204eea46fe86246a687632", 0),
    "classify --p 13 --f x^13-13 --n 4 --format text": ("ba4118593e699776ffe8a0389ddf82d6c3b7afe8dd4706d1a9acb1abd721e82c", 0),
    "classify --p 13 --f x^13-13 --n 5 --format json": ("81c0afa16860114f2a71ddb42d4aba6f33095d69b53d7be19922d288d86862d9", 0),
    "classify --p 13 --f x^13-13 --n 5 --format text": ("469081a5b161988fb5edbd1f927b05ecdffbc481f6942eeed3e543b6d5d3ba3a", 0),
    "classify --p 31 --f x^31-31 --n 1 --format json --group-bound 31": ("2bcca67a89e9390bc3eb0893ac1cdaa0323d34606363972e2daad2214cc3fe76", 0),
    "classify --p 31 --f x^31-31 --n 1 --format text --group-bound 31": ("acad91c60e87c45c3dc6c51337b6634c0f0b7179ef08018bac44e51da986fd7b", 0),
    "classify --p 5 --f x^5+x+1 --n 1": ("8982cf70bd803eb923d20d5549836af65bee9db19fad65be1794d1ebc92a1556", 3),
    "classify --p 5 --f [1,1,-2,-2,1,1] --n 1 --format json": ("705ccf348543cdbde57e70a3edce41aa6ee55ea025a9307b296f54cfe56c434f", 3),
    "classify --p 5 --f [1,1,-2,-2,1,1] --n 1 --format text": ("3d1ef5c1dc9f05b9dfd6a6d71a39b9eb9f5b6284eef1a95f270bc58026533417", 3),
    "classify --p 5 --f x^5+x+1 --n 1 --format json": ("8982cf70bd803eb923d20d5549836af65bee9db19fad65be1794d1ebc92a1556", 3),
    "classify --p 5 --f x^5+x+1 --n 1 --format text": ("f9b0a14ae36ea351643cd286e856f6cbacea2fd21366e153036eb08aba6069ad", 3),
    "classify --p 5 --f x^5-11*x^4+41*x^3-61*x^2+30*x --n 1 --format json": ("8f259381c8c58e920f98ef039e5b6d90b353067ad32424891fb77a72ecb27a90", 3),
    "classify --p 5 --f x^5-11*x^4+41*x^3-61*x^2+30*x --n 1 --format text": ("605bf491ff22f04448c398a10f1a1444a7d38bd262020a5704f365d44e65d86d", 3),
    'classify --p 5 --f ["5/2","5/3",0,0,"1/7",1] --n 1 --format json': ("06058a462a6ea155f6a787868ee359d786c574cf363c5e9ff3cbb08561c89f12", 3),
    'classify --p 5 --f ["5/2","5/3",0,0,"1/7",1] --n 1 --format text': ("3943d8f2284cd1acd8dca0ac8f3b98a7a6e7f92c852bebe290c11e8b4e3931b9", 3),
    "classify --p 13 --f x^13+x+13 --n 1 --format json": ("8982cf70bd803eb923d20d5549836af65bee9db19fad65be1794d1ebc92a1556", 3),
    "classify --p 13 --f x^13+x+13 --n 1 --format text": ("5d66492d01949425da8de5dff9f731870c2865ad1ef2b9462d93b2f76ee2fc5c", 3),
    "verify --format json": ("02340e949ea165d10d21f2c1e02d82aed6e44280b2d5cdd770973692f896dcb3", 0),
    "verify --format text": ("dfad18ba0734b5fb8aa083d1c20f8b4e0576287b6fbc33e7fc998779cfa6be85", 0),
    "count --mode twisted --p 31 --n 1": ("54b89d4e11fd6b90b84cdaa93e5c4335b8cc07f950e6b0a8f7d91b3b28659260", 0),
}


def test_one_hundred_invocations():
    assert len(INVOCATIONS) == 100 == len(set(INVOCATIONS))
    assert set(GOLDEN) == {" ".join(argv) for argv in INVOCATIONS}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_stdout_and_exit_code_unchanged(argv, monkeypatch):
    monkeypatch.delenv("GALREP_ENUM_BUDGET", raising=False)
    assert run_digest(argv) == GOLDEN[" ".join(argv)]
